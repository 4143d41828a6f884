#ifndef C4CAM_CORE_QUERYBACKEND_H
#define C4CAM_CORE_QUERYBACKEND_H

/**
 * @file
 * The serving seam: "how a query executes" vs "which hardware
 * instance executes it".
 *
 * AsyncServingEngine used to reach into ServingEngine through a friend
 * declaration to call its private serve()/serveFusedChunk() primitives
 * -- which welded the async front-end to exactly one backend shape (a
 * replica pool over one programmed device). QueryBackend replaces that
 * coupling with an interface: anything that can validate a query,
 * serve it (optionally as part of a fused chunk) and account for it
 * can sit behind the bounded queue. Two implementations exist:
 *
 *  - ServingEngine: N replica ExecutionSessions forked from one
 *    programmed session (core/ServingEngine.h); with one replica it
 *    is the minimal single-device backend;
 *  - ShardedEngine: the stored-vector axis partitioned across M
 *    programmed devices with scatter-gather top-k merge
 *    (core/ShardedEngine.h).
 *
 * Contract highlights:
 *  - serve()/serveFusedChunk() may assume validateQuery() passed for
 *    every query (the async front-end validates at admission);
 *    implementations may still re-check cheaply.
 *  - serveFusedChunk() serves queries [begin, end) inside one fused
 *    accounting window (per device, ExecutionSession::runFusedBatch
 *    opens, folds and aborts it); on failure it must record NOTHING
 *    in stats() (the caller falls back to per-query serve()).
 *  - With tracing enabled and a null span context, serve() owns the
 *    query's root "query" span; with a caller-provided context it
 *    parents its spans under ctx->parentSpanId instead and the caller
 *    owns the root. Spans are built with support::SpanContext
 *    (newRoot / span / root), never filled field by field.
 *  - Every implementation must be thread-safe for concurrent serve
 *    calls (concurrency() says how many make progress in parallel).
 */

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/ExecutionSession.h"
#include "core/PlanCache.h"
#include "runtime/Buffer.h"
#include "sim/Timing.h"
#include "support/Stats.h"
#include "support/Trace.h"

namespace c4cam::core {

/** Aggregate serving metrics over all queries served so far. */
struct ServingStats
{
    std::int64_t queriesServed = 0;

    /** Wall-clock seconds from the first submission to the last
     *  completion (0 when nothing was served). */
    double wallSeconds = 0.0;

    /** Host throughput: queriesServed / wallSeconds. */
    double qps = 0.0;

    /// @name Host wall-clock latency percentiles per query (us),
    /// over a bounded window of the most recent queries (a long-lived
    /// engine keeps no unbounded per-query history)
    /// @{
    double p50LatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    /// @}

    /// @name Fault-recovery activity (0 on fault-free runs)
    /// @{
    /** Transient-fault re-serve attempts (RetryPolicy). Includes the
     *  async fused-chunk fallback's individual re-serves. */
    std::int64_t retries = 0;
    /** Queries shed at dispatch because their deadline had already
     *  passed while queued (AsyncServingEngine deadlines). */
    std::int64_t deadlineSheds = 0;
    /** Shard quarantine transitions (ShardedEngine circuit breaker);
     *  counts every healthy->quarantined edge including re-trips
     *  after a failed probe. */
    std::int64_t quarantines = 0;
    /** Queries answered from surviving shards only (allowDegraded),
     *  marked partial with a < 1 coverage fraction. */
    std::int64_t degradedServes = 0;
    /// @}

    /** Simulated totals: setup once + query windows summed, with
     *  queriesServed set (same accounting as a serial session). */
    sim::PerfReport aggregate;

    /** Process-wide PlanCache counters at stats() time (shared across
     *  backends -- replicas, shards and sessions all compile through
     *  the same cache; see core/PlanCache.h). */
    PlanCacheStats planCache;
};

/**
 * The serving statistics every backend keeps: the simulated aggregate
 * (setup once, then each served query folded in completion order),
 * the served count, a bounded window of host latencies and the
 * first-submit / last-done times qps is measured over. Thread-safe.
 * Backend-specific counters (retries, quarantines, degraded serves)
 * are filled in by the backend on top of snapshot().
 */
class ServingRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Start from @p setup; @p persistent selects whether a served
     *  report adds only its query window or a full re-run (setup
     *  re-paid, see sim::PerfReport::addFullRun). */
    ServingRecorder(const sim::PerfReport &setup, bool persistent)
        : persistent_(persistent), aggregate_(setup)
    {
    }

    /** Count one query served from @p start to @p done. */
    void record(const sim::PerfReport &perf, Clock::time_point start,
                Clock::time_point done);

    std::int64_t served() const;

    /** Everything above as ServingStats (plus the PlanCache counters);
     *  the fault-recovery fields are left 0. */
    ServingStats snapshot() const;

  private:
    const bool persistent_;

    mutable std::mutex mutex_;
    /// @name Guarded by mutex_
    /// @{
    sim::PerfReport aggregate_;
    std::int64_t served_ = 0;
    /** Bounded: snapshot() sorts it per call and a serving engine can
     *  live for millions of queries. */
    support::LatencyWindow latenciesUs_;
    bool anyServed_ = false;
    Clock::time_point firstSubmit_;
    Clock::time_point lastDone_;
    /// @}
};

/**
 * A synchronous query-serving backend the async front-end can drive.
 * See the file comment for the contract.
 */
class QueryBackend
{
  public:
    virtual ~QueryBackend() = default;

    /**
     * Validate @p args against the kernel signature without serving
     * (throws CompilerError on mismatch). Called at admission time so
     * malformed queries fail on the submitter's stack, never inside a
     * dispatcher thread.
     */
    virtual void
    validateQuery(const std::vector<rt::BufferPtr> &args) const = 0;

    /**
     * Serve one query and record it in stats(). @p ctx, when tracing,
     * parents this query's spans (null with tracing enabled means
     * "own the root span yourself").
     */
    virtual ExecutionResult
    serve(const std::vector<rt::BufferPtr> &args,
          const support::SpanContext *ctx = nullptr) = 0;

    /**
     * Serve queries [@p begin, @p end) of @p queries as one fused
     * multi-query window. @p ctxs, when non-null, holds one tracing
     * context per query of the chunk. Per-query results and reports
     * must stay bit-identical to serial serve() calls, and the fused
     * totals must equal the sum of the per-query windows. A failure
     * must leave stats() untouched (nothing half-recorded).
     */
    virtual FusedBatchResult serveFusedChunk(
        const std::vector<std::vector<rt::BufferPtr>> &queries,
        std::size_t begin, std::size_t end,
        const std::vector<support::SpanContext> *ctxs = nullptr) = 0;

    /**
     * Record per-query lifecycle spans into @p collector (nullptr
     * turns tracing off). @p trace_id groups the spans; 0 allocates a
     * fresh id. Install before serving starts, never concurrently
     * with in-flight queries.
     */
    virtual void enableTracing(support::TraceCollector *collector,
                               std::uint64_t trace_id = 0) = 0;

    /** Aggregate metrics over everything served so far. */
    virtual ServingStats stats() const = 0;

    /** One-time simulated setup cost of programming the backend. */
    virtual const sim::PerfReport &setupReport() const = 0;

    /** True when devices stay programmed across queries (vs the
     *  host-only fallback that re-pays setup per query). */
    virtual bool persistent() const = 0;

    /**
     * How many serve() calls make progress in parallel (replica
     * count, or replicas per shard). The async front-end sizes its
     * dispatcher thread count from this.
     */
    virtual int concurrency() const = 0;

    /** Number of queries served so far. */
    virtual std::int64_t queriesServed() const = 0;
};

} // namespace c4cam::core

#endif // C4CAM_CORE_QUERYBACKEND_H
