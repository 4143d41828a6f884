#ifndef C4CAM_CORE_EXECUTIONSESSION_H
#define C4CAM_CORE_EXECUTIONSESSION_H

/**
 * @file
 * Persistent CAM execution sessions: program the device once, serve
 * many queries.
 *
 * The paper's execution model (§III-D) splits cost into a one-time
 * *setup* phase (programming stored data into subarrays) and a
 * per-query *search* phase. CompiledKernel::run() pays both on every
 * call because it rebuilds the whole CamDevice. An ExecutionSession
 * keeps the device and the plan's slot frame alive across calls
 * instead:
 *
 * @code
 *   core::CompiledKernel kernel = compiler.compileTorchScript(src);
 *   core::ExecutionSession session =
 *       kernel.createSession({query0, stored});   // setup happens here
 *   for (auto &query : queries) {
 *       core::ExecutionResult r = session.runQuery({query, stored});
 *       // r.perf.queryLatencyNs covers THIS query only; setup fields
 *       // describe the shared one-time programming cost.
 *   }
 *   sim::PerfReport total = session.aggregateReport();
 *   // total.amortizedLatencyNs() = (setup + all queries) / #queries
 * @endcode
 *
 * Accounting rules:
 *  - setup fields of every report describe the session's one-time
 *    programming cost (identical across queries);
 *  - query fields of a runQuery() report cover exactly that call, and
 *    are bit-identical to what a fresh single-shot run() would report
 *    for the same input (the device's query window is reset, not
 *    recovered by subtracting snapshots);
 *  - aggregateReport() sums the query fields over all served queries
 *    and sets queriesServed, so avgQueryLatencyNs() /
 *    amortizedLatencyNs() describe the batch.
 *
 * The session owns both per-query steps of the serving tier: runQuery()
 * (query window, plan replay, report, spans, rollback on failure) and
 * runFusedBatch(), the only code that opens, folds and aborts a fused
 * device window. ServingEngine replicas and the shards of a
 * ShardedEngine serve through these two calls.
 *
 * The session borrows the kernel's lowered module: the CompiledKernel
 * must outlive (and not be moved while used by) its sessions.
 */

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/Compiler.h"
#include "runtime/Buffer.h"
#include "runtime/ExecutionPlan.h"
#include "sim/CamDevice.h"
#include "sim/Timing.h"
#include "support/Trace.h"

namespace c4cam::core {

/**
 * Outcome of serving one fused multi-query batch: the per-query
 * results (outputs always bit-identical to serial serving) plus the
 * fused window's accounting. fusedReport renders the window as a
 * PerfReport with fusedBatchK set, so the amortized per-query
 * attribution (drive/setup shares) is available alongside the batch
 * totals. Under sim::FusionModel::ExactSerial (default) the totals
 * equal the sum of the per-query serial windows exactly and the
 * per-query reports match serial serving bit for bit; under TrueFused
 * the totals come in strictly below the serial sum (drive charged
 * once per pass) and queries 2..K report honestly cheaper windows.
 */
struct FusedBatchResult
{
    std::vector<ExecutionResult> results;
    sim::FusedWindow fused;
    sim::PerfReport fusedReport;
};

/** Host wall-clock interval one query of a fused batch ran in. */
struct QueryHostTime
{
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point done;
};

/**
 * Fused accounting synthesized from per-query @p results, for batches
 * with no device pass to fuse (host-only fallback) or whose reports
 * are merged on the host (sharded serving): k and the totals come
 * from the per-query reports. The fused report carries @p setup when
 * @p persistent; otherwise every full re-run re-paid setup, so it
 * carries the summed setup fields of the per-query reports -- never
 * claiming free setup.
 */
FusedBatchResult synthesizeFusedBatch(std::vector<ExecutionResult> results,
                                      bool persistent,
                                      const sim::PerfReport &setup);

/**
 * A live kernel instance on a programmed CAM device.
 *
 * Sessions require the cam-mapped device path. For host-only kernels
 * (no cam ops, nothing to keep programmed) the session transparently
 * falls back to full re-execution per query; persistent() tells the
 * two modes apart.
 *
 * Execution: the setup prologue and every query are *replayed* through
 * the kernel's compiled ExecutionPlan over a persistent slot frame.
 */
class ExecutionSession
{
  public:
    /**
     * Create a session for @p entry of @p module and run the setup
     * phase with @p setup_args (one buffer per function parameter; the
     * stored-data arguments are programmed into the device here).
     * Prefer CompiledKernel::createSession() over calling this
     * directly. @p plan is the instruction stream to replay (tests and
     * benches pass a raw rt::ExecutionPlan::compile() result here);
     * when null the session compiles the optimized plan itself. Only
     * the entry signature is read from @p module.
     */
    ExecutionSession(std::shared_ptr<ir::Context> ctx,
                     const ir::Module &module,
                     CompilerOptions options, std::string entry,
                     const std::vector<rt::BufferPtr> &setup_args,
                     std::shared_ptr<const rt::ExecutionPlan> plan =
                         nullptr);

    ExecutionSession(ExecutionSession &&) = default;
    ExecutionSession &operator=(ExecutionSession &&) = default;

    /**
     * Fork this session for another serving replica without paying
     * setup again: the device is copied with
     * sim::CamDevice::cloneProgrammed() (same programmed cells, setup
     * accounting and handle numbering, so the copied slot frame keeps
     * addressing the right subarrays), the plan is shared read-only
     * and the fork starts with nothing served and tracing off.
     * Host-only sessions fork without a device. Call between queries.
     */
    ExecutionSession cloneProgrammed() const;

    /**
     * Serve one query batch: re-enters only the search/read/merge
     * portion of the kernel. @p args must match the function signature;
     * the stored-data argument is ignored by the query body (the
     * device keeps the data programmed at session creation).
     *
     * @p parent, when non-null, is the caller's tracing context: the
     * query's "execute" and "merge" spans are recorded under
     * parent->parentSpanId (into parent->collector, if any) and the
     * caller owns the root span. Without it, a session with tracing
     * enabled records its own "query" root.
     */
    ExecutionResult runQuery(const std::vector<rt::BufferPtr> &args,
                             const support::SpanContext *parent = nullptr);

    /** Serve @p batches in order; one ExecutionResult per entry. */
    std::vector<ExecutionResult>
    runBatch(const std::vector<std::vector<rt::BufferPtr>> &batches);

    /**
     * Serve @p queries as ONE fused multi-query device pass -- the one
     * place a fused window is opened, folded and aborted: the device
     * opens a fused accounting window over the K queries
     * (CamDevice::beginFusedWindow) and amortizes the drive/setup
     * attribution across them. Each query still runs in its own query
     * window and outputs are always bit-identical to serial runQuery()
     * calls. What the accounting means depends on
     * CompilerOptions::fusionModel: under ExactSerial (default) the
     * per-query reports match serial serving bit for bit and the fused
     * totals equal their sum; under TrueFused the pass charges each
     * subarray's precharge/drive once, so the totals come in strictly
     * below the serial sum. Host-only sessions synthesize the fused
     * accounting from the per-query reports (no device pass to fuse,
     * so TrueFused changes nothing there). The batch is counted in
     * queriesServed() / aggregateReport() only when every query of it
     * succeeded; a failure aborts the window and rethrows.
     *
     * @p ctxs, when non-empty, holds one tracing context per query
     * (runQuery()'s @p parent, query by query). @p times, when
     * non-null, gets one host interval appended per served query --
     * on failure it holds the served prefix.
     */
    FusedBatchResult
    runFusedBatch(std::span<const std::vector<rt::BufferPtr>> queries,
                  std::span<const support::SpanContext> ctxs = {},
                  std::vector<QueryHostTime> *times = nullptr);

    /**
     * Validate @p args against the kernel signature without serving
     * (throws CompilerError on mismatch) -- the admission-time check
     * runQuery() repeats, so callers can fail malformed queries
     * before serving any.
     */
    void
    validateQuery(const std::vector<rt::BufferPtr> &args) const
    {
        validateKernelArgs(entryBody_, entry_, args);
    }

    /** One-time setup cost (query fields are zero). */
    const sim::PerfReport &setupReport() const { return setupReport_; }

    /**
     * Cumulative report: setup once + query fields summed over all
     * served queries, with queriesServed set for the per-query and
     * amortized aggregates.
     */
    sim::PerfReport aggregateReport() const;

    /** Number of runQuery() calls served so far. */
    std::int64_t queriesServed() const { return queriesServed_; }

    /**
     * True when the device stays programmed across queries (cam-mapped
     * kernels); false for the host-only fallback that re-runs the full
     * kernel (and re-pays setup) on every call.
     */
    bool persistent() const { return persistent_; }

    /**
     * Record per-query lifecycle spans ("query" > "execute"/"merge",
     * plus "plan-replay" under execute) into @p collector.
     * The execute span carries the device window's simulated breakdown
     * (sim::attachWindowBreakdown). Pass nullptr to turn tracing off
     * again; with no collector every tracing site is an inlined
     * null-check no-op, and recorded spans never perturb outputs or
     * PerfReports (locked by DifferentialFuzzTest running traced).
     * Call between queries, not concurrently with runQuery().
     */
    void enableTracing(support::TraceCollector *collector);

    /** The active trace collector (nullptr when tracing is off). */
    support::TraceCollector *traceCollector() const { return trace_; }

    /** The simulated device; nullptr in host-only sessions. */
    sim::CamDevice *device() { return device_.get(); }

  private:
    /** Shell for cloneProgrammed() to fill in. */
    ExecutionSession() = default;

    /** runQuery() on validated @p args, without counting the query
     *  in the session aggregate. */
    ExecutionResult execute(const std::vector<rt::BufferPtr> &args,
                            const support::SpanContext *parent);

    /** Count one served query in the session aggregate. */
    void accumulate(const sim::PerfReport &perf);

    std::shared_ptr<ir::Context> ctx_;
    CompilerOptions options_;
    std::string entry_;
    /** Entry block of the kernel function (cached: the module is
     *  immutable for the session's lifetime). */
    ir::Block *entryBody_ = nullptr;

    std::unique_ptr<sim::CamDevice> device_;
    /** Compiled instruction stream. */
    std::shared_ptr<const rt::ExecutionPlan> plan_;
    /** Persistent slot frame (the plan path's SSA environment). */
    rt::PlanFrame frame_;

    bool persistent_ = false;
    sim::PerfReport setupReport_;
    sim::PerfReport aggregate_;
    std::int64_t queriesServed_ = 0;

    /// @name Tracing (off unless enableTracing() installed a collector)
    /// @{
    support::TraceCollector *trace_ = nullptr;
    std::uint64_t traceId_ = 0;
    /// @}
};

} // namespace c4cam::core

#endif // C4CAM_CORE_EXECUTIONSESSION_H
