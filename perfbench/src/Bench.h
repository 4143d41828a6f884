#ifndef C4CAM_PERFBENCH_BENCH_H
#define C4CAM_PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): command-line
 * options, the seeded workload inputs with their host reference
 * answers, result/metric plumbing and small timing helpers.
 *
 * Every workload drives the public c4cam API only; the per-layer
 * numbers of the traced run are timed here, around calls into each
 * layer, never inside the library.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/ArchSpec.h"
#include "runtime/Buffer.h"
#include "sim/Timing.h"

namespace c4cam::core {
class AsyncServingEngine;
struct AsyncServingOptions;
}

namespace c4cam::perfbench {

using Clock = std::chrono::steady_clock;

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its span document. */
    std::string traceOut = "perfbench-trace.json";
    /** Source identity printed in the run stamp (git sha or digest). */
    std::string sourceId = "unknown";
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Outcome of one run: correctness counts plus the metrics the final
 * JSON line carries. Report lines for humans are printed as the run
 * goes.
 */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/**
 * The generated inputs of one workload: kernel source, architecture,
 * stored rows, a pool of query rows and the host reference top-1 of
 * every pool query.
 */
struct Dataset
{
    std::string source;
    arch::ArchSpec spec;
    /** Euclidean kernel (kNN) vs Hamming/dot kernel (HDC). */
    bool euclidean = false;
    std::vector<std::vector<float>> stored;
    std::vector<std::vector<float>> queries;
    std::vector<std::int64_t> expected;

    rt::BufferPtr storedBuf;
    std::vector<rt::BufferPtr> queryBufs;

    /** Kernel arguments for pool query @p i. */
    std::vector<rt::BufferPtr>
    args(std::size_t i) const
    {
        return {queryBufs[i % queryBufs.size()], storedBuf};
    }
    std::int64_t
    answer(std::size_t i) const
    {
        return expected[i % expected.size()];
    }
};

/// @name Workload inputs (Inputs.cpp)
/// @{
/**
 * HDC dot-similarity inputs: @p rows x @p dims bipolar (+1/-1) class
 * vectors; each of the @p pool queries is a stored row with a seeded
 * share of its bits flipped.
 */
Dataset makeHdc(std::uint64_t seed, int rows, int dims, int pool,
                const arch::ArchSpec &spec);

/**
 * kNN Euclidean inputs: @p rows x @p dims values in {0, 1}, which
 * one-bit cells store exactly; queries are stored rows with a seeded
 * share of flipped values.
 */
Dataset makeKnn(std::uint64_t seed, int rows, int dims, int pool,
                const arch::ArchSpec &spec);

/**
 * Brute-force host reference: index of the stored row with the
 * largest dot product (HDC) or the smallest squared Euclidean
 * distance (kNN) to @p query; ties go to the lower index, the
 * kernel's top-k rule. Never derived from the compiler.
 */
std::int64_t referenceTop1(const std::vector<std::vector<float>> &stored,
                           const std::vector<float> &query, bool euclidean);
/// @}

/// @name Timing and statistics helpers
/// @{
inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Nearest-rank percentile @p p of @p values (copied and sorted). */
double percentileOf(std::vector<double> values, double p);

inline double
medianOf(std::vector<double> values)
{
    return percentileOf(std::move(values), 50.0);
}

/** Geometric mean of positive @p values. */
double geomean(const std::vector<double> &values);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Top-1 index from a kernel's (values, indices) outputs. */
std::int64_t top1Of(const std::vector<rt::RtValue> &outputs);

/** Every field of two PerfReports equal, bit for bit. */
bool sameReport(const sim::PerfReport &a, const sim::PerfReport &b);

/** Replicas for the serving workloads: one core stays free for the
 *  load injector. */
int servingReplicas();

/// @}

/// @name Open-loop load injection (OpenLoop.cpp)
/// @{
/** The serving configuration of bursty-open: block policy, fused
 *  windows of up to 8 at depth >= 2, a queue that holds one burst. */
core::AsyncServingOptions burstyServingOptions();

/** One scheduled arrival. */
struct Arrival
{
    double dueUs = 0.0;    ///< due time, us after the schedule starts
    std::size_t query = 0; ///< pool query index
    int group = 0;         ///< burst (phase 1) or rung (phase 2)
};

/**
 * @p bursts bursts of 100 arrivals shaped like
 * bench/traces/bursty_1k.json: bursts start 100 ms apart (plus up to
 * 2 ms of seeded jitter), arrivals inside a burst ~200 us apart
 * (seeded, uniform in 100..300 us).
 */
std::vector<Arrival> burstSchedule(std::uint64_t seed, int bursts,
                                   std::size_t pool);

/** Poisson arrivals at @p rate per second for @p seconds. */
std::vector<Arrival> poissonSchedule(std::uint64_t seed, double rate,
                                     double seconds, std::size_t pool,
                                     int group);

/** What one open-loop pass observed, per arrival. */
struct OpenLoopRun
{
    std::vector<double> dueUs;  ///< scheduled send time
    std::vector<double> sentUs; ///< when the injector actually sent
    std::vector<double> doneUs; ///< completion time (NaN: never done)
    /** 1 when served with the reference answer and the serial
     *  PerfReport; 0 when wrong, errored, refused or dropped. */
    std::vector<char> ok;

    std::int64_t failed() const;
    /** Latency of arrival @p i from its due time, in ms. */
    double latencyMs(std::size_t i) const;
    /** How late the injector sent each arrival, in ms. */
    std::vector<double> lateMs() const;
};

/** One burst (a group of consecutive arrivals) of an open-loop pass. */
struct Burst
{
    /** Busy period: first due arrival to last completion. */
    double busySeconds = 0.0;
    /** Latency from the due time of every correctly served query. */
    std::vector<double> latencyMs;
};

/** Split @p run into the bursts of @p schedule. */
std::vector<Burst> splitBursts(const std::vector<Arrival> &schedule,
                               const OpenLoopRun &run);

/**
 * Drive @p schedule into @p engine from the calling thread (the single
 * injector) and wait for every completion. Each answer is checked
 * against the host reference and each PerfReport against
 * @p serial_reports (indexed by pool query), which come from serial
 * session replay.
 */
OpenLoopRun serveOpenLoop(core::AsyncServingEngine &engine,
                          const Dataset &data,
                          const std::vector<Arrival> &schedule,
                          const std::vector<sim::PerfReport> &serial_reports);
/// @}

/// @name Workloads (Workloads.cpp); each returns its run's result
/// @{
Result runClosedLoop(const Dataset &data, const Options &options);
Result runBurstyOpen(const Dataset &data, const Options &options);
Result runDseSweep(const Dataset &data, const Options &options);
/// @}

/**
 * The traced run (Layers.cpp): times every layer's public entry points
 * for @p workload's kernel on each spec in @p specs, serves a traced
 * burst through the async engine, and writes the span document.
 */
Result runLayers(const std::string &workload, const Dataset &data,
                 const std::vector<arch::ArchSpec> &specs,
                 const Options &options);

} // namespace c4cam::perfbench

#endif // C4CAM_PERFBENCH_BENCH_H
