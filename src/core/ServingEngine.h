#ifndef C4CAM_CORE_SERVINGENGINE_H
#define C4CAM_CORE_SERVINGENGINE_H

/**
 * @file
 * Parallel query serving on replicated CAM devices.
 *
 * An ExecutionSession serves queries one at a time on one programmed
 * device. A ServingEngine scales that out across host threads: it
 * creates one session (paying setup once), forks it with
 * ExecutionSession::cloneProgrammed() into N independent replica
 * sessions, and drives them behind a work queue with one worker
 * thread per replica.
 *
 * @code
 *   core::CompiledKernel kernel = compiler.compileTorchScript(src);
 *   auto engine = kernel.createServingEngine({query0, stored}, 4);
 *   std::future<core::ExecutionResult> f = engine->submit({q, stored});
 *   std::vector<core::ExecutionResult> all =
 *       engine->runBatch(batches, 4);  // concurrency cap: 4 lanes
 *   core::ServingStats stats = engine->stats();  // qps, p50/p95
 * @endcode
 *
 * Accounting guarantees (locked by tests and bench/serving_throughput):
 *  - every served query's PerfReport is bit-identical to what a serial
 *    ExecutionSession::runQuery() reports for the same input: replicas
 *    are exact copies, each query runs on exactly one replica inside a
 *    fresh query window, and the simulated cost model is deterministic;
 *  - the aggregate report pays setup once (replication is free host
 *    work, not simulated device work) and sums the query windows over
 *    all served queries, exactly like a serial session.
 *
 * Threading model: each replica is an ExecutionSession that owns its
 * CamDevice and PlanFrame, shares the compiled ExecutionPlan read-only
 * with the others, and serves at most one query at a time (the engine
 * hands sessions out from a free-list). The session runs the whole
 * per-query step -- query window, plan replay, report, spans, and the
 * window rollback after a failure -- and, through runFusedBatch(),
 * the whole fused-window step for a chunk. The engine only picks a
 * session, retries transient faults, owns root spans and keeps the
 * engine-wide stats (a replica session's own aggregate is not the
 * engine's). Queries must not alias writable buffers across
 * concurrent submissions (inputs are read-only; outputs are freshly
 * allocated per query).
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "core/QueryBackend.h"
#include "core/RetryPolicy.h"
#include "runtime/Buffer.h"
#include "runtime/ExecutionPlan.h"
#include "sim/CamDevice.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

namespace c4cam::core {

/**
 * N replica sessions behind a work queue.
 *
 * For host-only kernels (no cam ops, nothing to replicate) the
 * replica sessions fall back to independent full executions per query
 * -- still parallel (runKernelOnce builds per-call state), just
 * without persistent devices; persistent() tells the modes apart.
 *
 * The engine borrows the kernel's lowered module: the CompiledKernel
 * must outlive (and not be moved while used by) its engines. Prefer
 * CompiledKernel::createServingEngine() over the raw constructor.
 */
class ServingEngine : public QueryBackend
{
  public:
    /**
     * @p plan is the instruction stream to replay; when null the
     * first replica session compiles the optimized plan itself. Every
     * replica replays the shared plan over its own slot frame. Only
     * the entry signature is read from @p module.
     */
    ServingEngine(std::shared_ptr<ir::Context> ctx,
                  const ir::Module &module,
                  CompilerOptions options, std::string entry,
                  const std::vector<rt::BufferPtr> &setup_args,
                  int replicas,
                  std::shared_ptr<const rt::ExecutionPlan> plan = nullptr);

    /** Waits for all in-flight queries, then tears down the pool. */
    ~ServingEngine() = default;

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Enqueue one query asynchronously. The future resolves with the
     * result (or rethrows the execution error). Queries may complete
     * in any order; each runs on whichever replica frees up first.
     */
    std::future<ExecutionResult>
    submit(std::vector<rt::BufferPtr> args);

    /**
     * Serve @p queries and return results in input order.
     * @param threads concurrency cap; 0 (default) uses all replicas,
     *        1 degenerates to serial serving, values above the replica
     *        count are clamped.
     */
    std::vector<ExecutionResult>
    runBatch(const std::vector<std::vector<rt::BufferPtr>> &queries,
             int threads = 0);

    /**
     * Validate @p args against the kernel signature without serving
     * (throws CompilerError on mismatch). The async front-end calls
     * this at submission time so malformed queries fail on the
     * submitter's stack instead of inside a dispatcher thread.
     */
    void
    validateQuery(const std::vector<rt::BufferPtr> &args) const override
    {
        sessions_.front()->validateQuery(args);
    }

    /**
     * Acquire a replica, serve one query, record stats, release. The
     * replica session validates @p args (throws CompilerError on a
     * mismatch). With engine tracing on and no caller-provided @p ctx,
     * opens (and records) this query's root span itself.
     */
    ExecutionResult
    serve(const std::vector<rt::BufferPtr> &args,
          const support::SpanContext *ctx = nullptr) override;

    /** Serve queries [@p begin, @p end) as one fused window on a
     *  replica acquired for the chunk (ExecutionSession::runFusedBatch
     *  drives the window). @p ctxs, when non-null, holds one per-query
     *  tracing context for the chunk; with engine tracing on and no
     *  @p ctxs the engine owns one root span per query. Throws
     *  CompilerError, before touching a replica, when the range is
     *  empty or exceeds @p queries. */
    FusedBatchResult serveFusedChunk(
        const std::vector<std::vector<rt::BufferPtr>> &queries,
        std::size_t begin, std::size_t end,
        const std::vector<support::SpanContext> *ctxs = nullptr) override;

    /**
     * Record per-query lifecycle spans into @p collector: for every
     * served query a "query" root span with "execute" and "merge"
     * children (the execute span carries the device window's simulated
     * breakdown via sim::attachWindowBreakdown, and plan replay adds
     * a "plan-replay" child). When the engine serves on behalf of
     * an AsyncServingEngine the async layer passes per-query contexts
     * instead and owns the root span. @p trace_id groups the spans;
     * 0 allocates a fresh id from the collector. Pass nullptr to turn
     * tracing off. Not thread-safe against in-flight queries: install
     * the collector before serving starts. Tracing never perturbs
     * outputs or PerfReports (locked by DifferentialFuzzTest).
     */
    void enableTracing(support::TraceCollector *collector,
                       std::uint64_t trace_id = 0) override;

    /** The active trace collector (nullptr when tracing is off). */
    support::TraceCollector *traceCollector() const { return trace_; }

    /// @name Fault tolerance
    /// @{
    /**
     * Bounded-retry policy for transient device faults: serve() will
     * re-attempt a query up to policy.maxAttempts times total when a
     * sim::TransientFault unwinds out of execution, with deterministic
     * exponential backoff between attempts. The failed replica's query
     * window is rolled back before the retry, so a recovered query's
     * output and PerfReport are bit-identical to a fault-free run.
     * Permanent c4cam::ExecutionErrors are never retried. Install
     * before serving starts.
     */
    void setRetryPolicy(RetryPolicy policy) { retryPolicy_ = policy; }

    const RetryPolicy &retryPolicy() const { return retryPolicy_; }

    /** Transient-fault re-serve attempts so far (also in
     *  stats().retries; cheap accessor for aggregating layers). */
    std::int64_t retriesAttempted() const
    {
        return retries_.load(std::memory_order_relaxed);
    }

    /**
     * Attach @p injector to every replica device (slot order, so
     * injector device ids are deterministic). No-op for host-only
     * engines, which have no devices to fault.
     */
    void attachFaultInjector(std::shared_ptr<sim::FaultInjector> injector);
    /// @}

    /** Aggregate metrics over everything served so far. */
    ServingStats stats() const override;

    /** One-time setup cost of the first replica (the others are
     *  forked from it for free). */
    const sim::PerfReport &setupReport() const override
    {
        return sessions_.front()->setupReport();
    }

    bool persistent() const override
    {
        return sessions_.front()->persistent();
    }
    int numReplicas() const { return static_cast<int>(sessions_.size()); }

    /** One serve() makes progress per replica. */
    int concurrency() const override { return numReplicas(); }

    std::int64_t queriesServed() const override;

  private:
    ExecutionSession *acquireSession();
    void releaseSession(ExecutionSession *session);

    /// @name Tracing (off unless enableTracing() installed a collector)
    /// @{
    support::TraceCollector *trace_ = nullptr;
    std::uint64_t traceId_ = 0;
    /// @}

    /** Replica sessions (index 0 ran setup; the rest are its forks). */
    std::vector<std::unique_ptr<ExecutionSession>> sessions_;

    /// @name Free-list of idle replica sessions
    /// @{
    std::mutex sessionMutex_;
    std::condition_variable sessionFree_;
    std::vector<ExecutionSession *> freeSessions_;
    /// @}

    /// @name Fault tolerance
    /// @{
    RetryPolicy retryPolicy_;
    /** Transient-fault re-serve attempts (stats().retries). */
    std::atomic<std::int64_t> retries_{0};
    /// @}

    /** Engine-wide serving stats (set once the first session has run
     *  setup). */
    std::optional<ServingRecorder> recorder_;

    /** The pool backing submit()/runBatch(), created lazily on first
     *  use: the async front-end dispatches through
     *  serve()/serveFusedChunk() on its own threads and must not pay
     *  one parked pool worker per replica for the engine's lifetime.
     *  Declared last: destruction drains in-flight work while the
     *  sessions and stats above are still alive. */
    support::ThreadPool &pool();
    std::mutex poolMutex_;
    std::unique_ptr<support::ThreadPool> pool_;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_SERVINGENGINE_H
