#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include <sched.h>

#include "Bench.h"
#include "core/AsyncServingEngine.h"
#include "core/Compiler.h"
#include "core/DseExplorer.h"
#include "core/ExecutionSession.h"
#include "core/PlanCache.h"

namespace c4cam::perfbench {

namespace {

/** Length of a closed-loop block (see BlockStats). */
constexpr double kBlockSeconds = 0.25;

/** p99 latency limit of the phase-2 SLO ladder. */
constexpr double kSloP99Ms = 25.0;

/** Phase-2 rungs, arrivals per second. */
constexpr double kLadder[] = {250, 500, 750, 1000, 1250, 1500,
                              1750, 2000, 2500, 3000, 4000};

core::CompilerOptions
compilerOptions(const arch::ArchSpec &spec)
{
    core::CompilerOptions options;
    options.spec = spec;
    return options;
}

/**
 * Pins the calling thread to one allowed CPU after another. Host
 * interference on a shared machine differs per core and comes in
 * phases of seconds, so a single-threaded loop that moves to the next
 * core every block samples them all; the destructor restores the
 * original affinity. A no-op where affinity cannot be set.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus_.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        for (int cpu : cpus_)
            CPU_SET(cpu, &allowed);
        sched_setaffinity(0, sizeof(allowed), &allowed);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move to the next allowed CPU. */
    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[index_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    std::vector<int> cpus_;
    std::size_t index_ = 0;
};

/**
 * Cold set-ups spread over the whole run: host interference comes in
 * phases of seconds, so set-ups taken in one burst would all land in
 * the same phase. Each sample clears the plan cache, times @p setup
 * (source to a ready session or engine) and then releases what it
 * built, outside the timed window.
 */
class SetupSampler
{
  public:
    SetupSampler(const Options &options, std::function<void()> setup,
                 std::function<void()> teardown)
        : setup_(std::move(setup)), teardown_(std::move(teardown)),
          interval_(options.seconds / 24.0)
    {
    }

    /** Take one sample now. */
    void
    sample()
    {
        core::PlanCache::instance().clear();
        core::PlanCacheStats before = core::PlanCache::instance().stats();
        Clock::time_point t0 = Clock::now();
        setup_();
        times_.push_back(secondsSince(t0));
        core::PlanCacheStats after = core::PlanCache::instance().stats();
        hits_ += after.hits - before.hits;
        misses_ += after.misses - before.misses;
        teardown_();
        last_ = Clock::now();
    }

    /** Take a sample when the last one is an interval old. */
    void
    maybeSample()
    {
        if (times_.empty() || secondsSince(last_) >= interval_)
            sample();
    }

    /** Top up to 7 samples, print, and return the median seconds. */
    double
    finish()
    {
        while (times_.size() < 7)
            sample();
        double median = medianOf(times_);
        std::printf("  setup_s            %.6f s    median of %zu cold "
                    "set-ups spread over the run (plan cache: %llu hits, "
                    "%llu misses)\n",
                    median, times_.size(),
                    static_cast<unsigned long long>(hits_),
                    static_cast<unsigned long long>(misses_));
        return median;
    }

  private:
    std::function<void()> setup_;
    std::function<void()> teardown_;
    double interval_;
    std::vector<double> times_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    Clock::time_point last_;
};

/**
 * Per-block figures of a run. The run is cut into blocks (0.25 s of
 * closed-loop queries, one burst, one DSE sweep) and each block gets
 * its completion rate and its own latency p50 and p99. Co-tenant
 * interference on a shared host comes and goes in phases of seconds,
 * so the end-to-end figures are medians over the quietest quarter of
 * the blocks (those with the highest completion rates).
 */
class BlockStats
{
  public:
    void
    add(double completions, double seconds, std::vector<double> latency_ms)
    {
        blocks_.push_back({completions / seconds,
                           percentileOf(latency_ms, 50.0),
                           percentileOf(latency_ms, 99.0),
                           latency_ms.size()});
    }

    std::size_t size() const { return blocks_.size(); }

    double rate() const { return quietMedian(&Block::rate); }
    double p50() const { return quietMedian(&Block::p50); }
    double p99() const { return quietMedian(&Block::p99); }

    /** Latency samples behind each block's percentiles (median). */
    std::size_t
    samplesPerBlock() const
    {
        std::vector<double> n;
        for (const Block &b : blocks_)
            n.push_back(static_cast<double>(b.samples));
        return static_cast<std::size_t>(medianOf(n));
    }

    /** Median completion rate over every block. */
    double
    overallRate() const
    {
        std::vector<double> rates;
        for (const Block &b : blocks_)
            rates.push_back(b.rate);
        return medianOf(rates);
    }

  private:
    struct Block
    {
        double rate;
        double p50;
        double p99;
        std::size_t samples;
    };

    double
    quietMedian(double Block::*field) const
    {
        std::vector<const Block *> order;
        for (const Block &b : blocks_)
            order.push_back(&b);
        std::sort(order.begin(), order.end(),
                  [](const Block *x, const Block *y) { return x->rate > y->rate; });
        order.resize((order.size() + 3) / 4);
        std::vector<double> values;
        for (const Block *b : order)
            values.push_back(b->*field);
        return medianOf(values);
    }

    std::vector<Block> blocks_;
};

void
printSim(double ns, double pj, const char *how)
{
    std::printf("  sim_ns_per_query   %.6g ns (simulated, %s)\n", ns, how);
    std::printf("  sim_pj_per_query   %.6g pJ (simulated, %s)\n", pj, how);
}

/** The end-to-end metrics every workload reports. */
void
addEndToEnd(Result &result, double setup_s, const BlockStats &blocks)
{
    double fail_frac = result.attempted > 0
                           ? double(result.failed) / double(result.attempted)
                           : 1.0;
    double rss = peakRssMb();
    std::printf("  qps                %.2f 1/s  median of the quietest quarter "
                "of %zu blocks (all blocks: %.2f 1/s)\n",
                blocks.rate(), blocks.size(), blocks.overallRate());
    std::printf("  latency            p50 %.4f ms, p99 %.4f ms (medians of "
                "per-block percentiles, ~%zu samples per block)\n",
                blocks.p50(), blocks.p99(), blocks.samplesPerBlock());
    std::printf("  fail_frac          %.6g (%lld of %lld attempted)\n",
                fail_frac, static_cast<long long>(result.failed),
                static_cast<long long>(result.attempted));
    std::printf("  peak_rss_mb        %.2f MB\n", rss);
    result.add("setup_s", setup_s, "s");
    result.add("qps", blocks.rate(), "1/s");
    result.add("p50_ms", blocks.p50(), "ms");
    result.add("p99_ms", blocks.p99(), "ms");
    result.add("peak_rss_mb", rss, "MB");
}

/** Top-1 of @p result matches the host reference for pool query @p q. */
bool
answerMatches(const core::ExecutionResult &result, const Dataset &data,
              std::size_t q)
{
    return top1Of(result.outputs) == data.answer(q);
}

} // namespace

Result
runClosedLoop(const Dataset &data, const Options &options)
{
    Result result;
    core::Compiler compiler(compilerOptions(data.spec));
    std::unique_ptr<core::CompiledKernel> kernel;
    std::optional<core::ExecutionSession> session;
    SetupSampler setups(
        options,
        [&] {
            kernel = std::make_unique<core::CompiledKernel>(
                compiler.compileTorchScript(data.source));
            session.emplace(kernel->createSession(data.args(0)));
        },
        [&] {
            session.reset();
            kernel.reset();
        });
    setups.sample();

    // The served session is built once, untimed; warm-up queries let
    // caches and lazily sized buffers settle.
    core::CompiledKernel live = compiler.compileTorchScript(data.source);
    core::ExecutionSession served = live.createSession(data.args(0));
    for (std::size_t i = 0; i < 32; ++i)
        served.runQuery(data.args(i));

    std::vector<double> block_ms;
    BlockStats blocks;
    std::optional<sim::PerfReport> first;
    CpuRotation cpus;
    cpus.next();
    Clock::time_point loop_start = Clock::now();
    Clock::time_point block_start = loop_start;
    for (std::size_t i = 0; secondsSince(loop_start) < options.seconds; ++i) {
        ++result.attempted;
        bool ok = false;
        Clock::time_point t0 = Clock::now();
        try {
            core::ExecutionResult r = served.runQuery(data.args(i));
            block_ms.push_back(usBetween(t0, Clock::now()) / 1000.0);
            if (!first)
                first = r.perf;
            // The simulated cost of a query does not depend on its
            // data, so every report must equal the first one.
            ok = answerMatches(r, data, i) && sameReport(r.perf, *first);
        } catch (const std::exception &err) {
            std::fprintf(stderr, "query %zu failed: %s\n", i, err.what());
        }
        if (!ok)
            ++result.failed;
        double block_s = secondsSince(block_start);
        if (block_s >= kBlockSeconds) {
            double completed = double(block_ms.size());
            blocks.add(completed, block_s, std::move(block_ms));
            block_ms.clear();
            setups.maybeSample();
            cpus.next();
            block_start = Clock::now();
        }
    }

    double setup_s = setups.finish();
    std::printf("  closed loop, 1 caller; blocks of %.2f s, one CPU each in "
                "turn\n", kBlockSeconds);
    if (first)
        printSim(first->queryLatencyNs, first->queryEnergyPj,
                 "identical for every query");
    addEndToEnd(result, setup_s, blocks);
    return result;
}

Result
runBurstyOpen(const Dataset &data, const Options &options)
{
    Result result;
    const int replicas = servingReplicas();
    const core::AsyncServingOptions serving = burstyServingOptions();
    core::Compiler compiler(compilerOptions(data.spec));
    std::printf("  serving: %d replicas, queue %zu (block), fuse K=%d at "
                "depth >= %zu\n",
                replicas, serving.queueCapacity, serving.fuseMaxK,
                serving.fuseMinDepth);
    std::unique_ptr<core::CompiledKernel> sample_kernel;
    std::unique_ptr<core::AsyncServingEngine> sample_engine;
    SetupSampler setups(
        options,
        [&] {
            sample_kernel = std::make_unique<core::CompiledKernel>(
                compiler.compileTorchScript(data.source));
            sample_engine = sample_kernel->createAsyncServingEngine(
                data.args(0), replicas, serving);
        },
        [&] {
            sample_engine.reset();
            sample_kernel.reset();
        });
    setups.sample();

    core::CompiledKernel kernel = compiler.compileTorchScript(data.source);
    std::unique_ptr<core::AsyncServingEngine> engine =
        kernel.createAsyncServingEngine(data.args(0), replicas, serving);

    // Serial session replay is the reference every served query's
    // PerfReport must equal bit for bit.
    std::vector<sim::PerfReport> serial;
    {
        core::ExecutionSession session = kernel.createSession(data.args(0));
        for (std::size_t q = 0; q < data.queries.size(); ++q) {
            core::ExecutionResult r = session.runQuery(data.args(q));
            if (!answerMatches(r, data, q)) {
                std::printf("  FAIL: serial replay of query %zu disagrees "
                            "with the host reference\n", q);
                result.correct = false;
            }
            serial.push_back(r.perf);
        }
    }

    // Warm-up burst, not counted.
    serveOpenLoop(*engine, data,
                  burstSchedule(options.seed ^ 0xffff, 1, data.queries.size()),
                  serial);

    auto account = [&result](const OpenLoopRun &run) {
        result.attempted += static_cast<std::int64_t>(run.ok.size());
        result.failed += run.failed();
    };

    // Phase 1: repeated 10-burst schedules for 60% of the run. Each
    // burst is a block: its busy-period rate is completions over the
    // time from its first due arrival to its last completion.
    std::vector<double> late_ms;
    BlockStats blocks;
    double sent_span_us = 0.0, due_span_us = 0.0;
    std::size_t phase1_arrivals = 0;
    Clock::time_point phase1_start = Clock::now();
    for (std::uint64_t rep = 0;
         rep == 0 || secondsSince(phase1_start) < 0.6 * options.seconds;
         ++rep) {
        std::vector<Arrival> schedule = burstSchedule(
            options.seed * 1000 + rep, 10, data.queries.size());
        OpenLoopRun run = serveOpenLoop(*engine, data, schedule, serial);
        account(run);
        std::vector<double> late = run.lateMs();
        late_ms.insert(late_ms.end(), late.begin(), late.end());
        for (Burst &burst : splitBursts(schedule, run)) {
            double completed = double(burst.latencyMs.size());
            if (completed > 0 && burst.busySeconds > 0.0)
                blocks.add(completed, burst.busySeconds,
                           std::move(burst.latencyMs));
        }
        sent_span_us += run.sentUs.back() - run.sentUs.front();
        due_span_us += run.dueUs.back() - run.dueUs.front();
        phase1_arrivals += run.ok.size();
        setups.maybeSample();
    }
    double late_p99 = percentileOf(late_ms, 99.0);
    std::printf("  phase 1            %zu arrivals in %zu bursts; a burst's "
                "rate is its busy period's (first due arrival to last "
                "completion); latency runs from the due time\n",
                phase1_arrivals, blocks.size());
    std::printf("  injector           late p50 %.4f ms, p99 %.4f ms; offered "
                "%.1f/s achieved vs %.1f/s scheduled (within 10-burst "
                "schedules)\n",
                percentileOf(late_ms, 50.0), late_p99,
                phase1_arrivals / (sent_span_us * 1e-6),
                phase1_arrivals / (due_span_us * 1e-6));
    if (late_p99 > 1.0)
        std::printf("  FLAG: injector fell behind its schedule (late p99 "
                    "%.3f ms > 1 ms)\n", late_p99);

    // Phase 2: seeded Poisson rungs; stop at the first rung that misses
    // the SLO (p99 <= 25 ms and no growing backlog).
    double rung_seconds =
        std::max(0.4, 0.3 * options.seconds / std::size(kLadder));
    double slo_qps = 0.0;
    int rung_index = 0;
    for (double rate : kLadder) {
        std::vector<Arrival> schedule =
            poissonSchedule(options.seed * 1000 + 500 + rung_index, rate,
                            rung_seconds, data.queries.size(), rung_index);
        ++rung_index;
        OpenLoopRun run = serveOpenLoop(*engine, data, schedule, serial);
        account(run);
        std::vector<double> rung_ms;
        std::size_t done_in_window = 0;
        for (std::size_t i = 0; i < run.ok.size(); ++i) {
            // A failed query misses the latency limit.
            rung_ms.push_back(run.ok[i]
                                  ? run.latencyMs(i)
                                  : std::numeric_limits<double>::infinity());
            if (run.ok[i] && run.doneUs[i] <= rung_seconds * 1e6)
                ++done_in_window;
        }
        double p99 = percentileOf(rung_ms, 99.0);
        // Backlog grows when fewer than 90% of the arrivals complete
        // inside the rung's own window.
        bool keeps_up = done_in_window >= 0.9 * run.ok.size();
        bool pass = p99 <= kSloP99Ms && keeps_up;
        std::printf("  rung %6.0f/s      p50 %.3f ms, p99 %.3f ms over %zu "
                    "arrivals, %.0f%% done in window: %s\n",
                    rate, percentileOf(rung_ms, 50.0), p99, rung_ms.size(),
                    100.0 * done_in_window /
                        std::max<std::size_t>(1, run.ok.size()),
                    pass ? "meets SLO" : "misses SLO");
        setups.maybeSample();
        if (!pass)
            break;
        slo_qps = rate;
    }
    std::printf("  slo_qps            %.0f 1/s (highest rung with p99 <= "
                "%.0f ms and no growing backlog)\n",
                slo_qps, kSloP99Ms);

    core::AsyncServingStats stats = engine->stats();
    std::printf("  serving tier       %lld fused windows, %lld fused queries, "
                "%lld single; %lld rejected, %lld dropped, %lld retries\n",
                static_cast<long long>(stats.fusedWindows),
                static_cast<long long>(stats.fusedQueries),
                static_cast<long long>(stats.singleDispatches),
                static_cast<long long>(stats.rejected),
                static_cast<long long>(stats.dropped),
                static_cast<long long>(stats.fallbackRetries));
    engine.reset();
    double setup_s = setups.finish();
    printSim(serial.front().queryLatencyNs, serial.front().queryEnergyPj,
             "serial replay, identical per query");
    addEndToEnd(result, setup_s, blocks);
    return result;
}

Result
runDseSweep(const Dataset &data, const Options &options)
{
    Result result;
    const std::vector<arch::ArchSpec> candidates =
        core::DseExplorer::standardCandidates();

    // The explorer's own sweep pins what each candidate evaluation
    // below must report; untimed.
    core::PlanCache::instance().clear();
    core::DseResult reference =
        core::DseExplorer().explore(data.source, candidates, data.args(0));

    // Set-up: source to a ready session on the sweep's first candidate.
    std::unique_ptr<core::CompiledKernel> kernel;
    std::optional<core::ExecutionSession> session;
    core::Compiler first_compiler(compilerOptions(candidates.front()));
    SetupSampler setups(
        options,
        [&] {
            kernel = std::make_unique<core::CompiledKernel>(
                first_compiler.compileTorchScript(data.source));
            session.emplace(kernel->createSession(data.args(0)));
        },
        [&] {
            session.reset();
            kernel.reset();
        });
    setups.sample();

    // Each sweep evaluates every candidate the way
    // DseExplorer::explore does (compile, then one query on a fresh
    // device), on a cold plan cache, with the answer checked. A sweep
    // is a block.
    BlockStats blocks;
    CpuRotation cpus;
    core::PlanCacheStats before = core::PlanCache::instance().stats();
    Clock::time_point loop_start = Clock::now();
    std::size_t sweep = 0;
    for (; sweep == 0 || secondsSince(loop_start) < options.seconds; ++sweep) {
        cpus.next();
        core::PlanCache::instance().clear();
        std::vector<double> sweep_ms;
        Clock::time_point sweep_start = Clock::now();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            ++result.attempted;
            bool ok = false;
            Clock::time_point t0 = Clock::now();
            try {
                core::Compiler compiler(compilerOptions(candidates[c]));
                core::CompiledKernel k =
                    compiler.compileTorchScript(data.source);
                core::ExecutionResult r = k.run(data.args(sweep));
                sweep_ms.push_back(usBetween(t0, Clock::now()) / 1000.0);
                ok = answerMatches(r, data, sweep) &&
                     sameReport(r.perf, reference.points[c].perf);
            } catch (const std::exception &err) {
                std::fprintf(stderr, "candidate %zu failed: %s\n", c,
                             err.what());
            }
            if (!ok)
                ++result.failed;
        }
        double sweep_s = secondsSince(sweep_start);
        blocks.add(double(candidates.size()), sweep_s, std::move(sweep_ms));
        setups.maybeSample();
    }
    core::PlanCacheStats after = core::PlanCache::instance().stats();
    double setup_s = setups.finish();

    std::vector<double> sim_ns, sim_pj;
    for (const core::DsePoint &p : reference.points) {
        sim_ns.push_back(p.latencyNs());
        sim_pj.push_back(p.energyPj());
    }
    std::printf("  candidates_per_s   %.2f 1/s  over the quietest quarter of %zu "
                "cold sweeps of %zu candidates (reported as qps)\n",
                blocks.rate(), sweep, candidates.size());
    std::printf("  plan cache         %llu hits, %llu misses over the sweeps\n",
                static_cast<unsigned long long>(after.hits - before.hits),
                static_cast<unsigned long long>(after.misses - before.misses));
    printSim(geomean(sim_ns), geomean(sim_pj),
             "geometric mean over the candidates");
    std::printf("  pareto frontier    %zu of %zu candidates\n",
                reference.frontier().size(), candidates.size());
    addEndToEnd(result, setup_s, blocks);
    return result;
}

} // namespace c4cam::perfbench
