#include "core/ServingEngine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/FaultInjector.h"
#include "support/Backoff.h"
#include "support/Error.h"

namespace c4cam::core {

using Clock = std::chrono::steady_clock;

ServingEngine::ServingEngine(std::shared_ptr<ir::Context> ctx,
                             const ir::Module &module,
                             CompilerOptions options, std::string entry,
                             const std::vector<rt::BufferPtr> &setup_args,
                             int replicas,
                             std::shared_ptr<const rt::ExecutionPlan> plan)
{
    C4CAM_CHECK(replicas >= 1,
                "ServingEngine needs at least 1 replica, got " << replicas);
    // The first session runs setup (the only simulated setup cost);
    // the others are forks of its programmed state.
    sessions_.push_back(std::make_unique<ExecutionSession>(
        std::move(ctx), module, std::move(options), std::move(entry),
        setup_args, std::move(plan)));
    for (int i = 1; i < replicas; ++i)
        sessions_.push_back(std::make_unique<ExecutionSession>(
            sessions_.front()->cloneProgrammed()));
    recorder_.emplace(setupReport(), persistent());

    freeSessions_.reserve(sessions_.size());
    for (auto &session : sessions_)
        freeSessions_.push_back(session.get());
}

support::ThreadPool &
ServingEngine::pool()
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (!pool_)
        pool_ = std::make_unique<support::ThreadPool>(sessions_.size());
    return *pool_;
}

ExecutionSession *
ServingEngine::acquireSession()
{
    std::unique_lock<std::mutex> lock(sessionMutex_);
    sessionFree_.wait(lock, [this] { return !freeSessions_.empty(); });
    ExecutionSession *session = freeSessions_.back();
    freeSessions_.pop_back();
    return session;
}

void
ServingEngine::releaseSession(ExecutionSession *session)
{
    {
        std::lock_guard<std::mutex> lock(sessionMutex_);
        freeSessions_.push_back(session);
    }
    sessionFree_.notify_one();
}

void
ServingEngine::attachFaultInjector(
    std::shared_ptr<sim::FaultInjector> injector)
{
    // Host-only sessions have no devices to fault.
    for (auto &session : sessions_)
        if (sim::CamDevice *device = session->device())
            device->attachFaultInjector(injector);
}

void
ServingEngine::enableTracing(support::TraceCollector *collector,
                             std::uint64_t trace_id)
{
    trace_ = collector;
    if (!collector)
        traceId_ = 0;
    else
        traceId_ = trace_id != 0 ? trace_id : collector->newTraceId();
}

ExecutionResult
ServingEngine::serve(const std::vector<rt::BufferPtr> &args,
                     const support::SpanContext *ctx)
{
    // Sync serving with engine tracing on: this call owns the query's
    // root span. The async front-end passes its own per-query context
    // (parenting under its dispatch span) and owns the root instead.
    support::SpanContext local;
    bool own_root = false;
    if (!ctx && trace_) {
        local.collector = trace_;
        local.traceId = traceId_;
        local.queryId = trace_->newQueryId();
        local.parentSpanId = trace_->newSpanId(); // becomes the root id
        ctx = &local;
        own_root = true;
    }
    Clock::time_point start = Clock::now();
    // Record the root span on every exit (the failed attempts may have
    // recorded execute spans under it; an unresolvable parent would
    // fail c4cam-trace-check on an otherwise complete trace).
    auto record_root = [&](Clock::time_point done) {
        if (!own_root)
            return;
        support::TraceEvent root;
        root.name = "query";
        root.traceId = local.traceId;
        root.queryId = local.queryId;
        root.spanId = local.parentSpanId;
        root.startUs = trace_->toUs(start);
        root.durUs = trace_->toUs(done) - root.startUs;
        trace_->record(root);
    };

    ExecutionResult result;
    const int max_attempts = std::max(1, retryPolicy_.maxAttempts);
    for (int attempt = 1;; ++attempt) {
        // A failed runQuery() has already rolled its session back to a
        // servable between-queries state.
        ExecutionSession *session = acquireSession();
        try {
            result = session->runQuery(args, ctx);
            releaseSession(session);
            break;
        } catch (const sim::TransientFault &) {
            releaseSession(session);
            if (attempt >= max_attempts) {
                record_root(Clock::now());
                throw;
            }
            retries_.fetch_add(1, std::memory_order_relaxed);
            if (ctx && ctx->collector) {
                support::TraceCollector *col = ctx->collector;
                double now = col->nowUs();
                support::TraceEvent retry;
                retry.name = "retry";
                retry.traceId = ctx->traceId;
                retry.queryId = ctx->queryId;
                retry.spanId = col->newSpanId();
                retry.parentSpanId = ctx->parentSpanId;
                retry.startUs = now;
                retry.durUs = 0.0;
                col->record(retry);
            }
            std::int64_t delay_us = support::backoffDelayUs(
                retryPolicy_.backoffUs, attempt, retryPolicy_.maxBackoffUs,
                retryPolicy_.jitterSeed);
            if (delay_us > 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay_us));
        } catch (...) {
            // Permanent (ExecutionError / PermanentFault), malformed
            // arguments or programmatic failure: never retried.
            releaseSession(session);
            record_root(Clock::now());
            throw;
        }
    }
    Clock::time_point done = Clock::now();
    recorder_->record(result.perf, start, done);
    record_root(done);
    return result;
}

std::future<ExecutionResult>
ServingEngine::submit(std::vector<rt::BufferPtr> args)
{
    validateQuery(args);
    return pool().submit(
        [this, args = std::move(args)] { return serve(args); });
}

void
ServingEngine::runOnLanes(std::size_t count, int threads,
                          const std::function<void(std::size_t)> &task)
{
    int lanes = threads <= 0 ? numReplicas()
                             : std::min(threads, numReplicas());
    lanes = std::min<int>(lanes, static_cast<int>(count));
    // `lanes` pool tasks pull indices from a shared cursor, so
    // concurrency is capped at `lanes` while every index runs once.
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
        futures.push_back(pool().submit([&task, cursor, count] {
            for (;;) {
                std::size_t idx = cursor->fetch_add(1);
                if (idx >= count)
                    return;
                task(idx);
            }
        }));
    }
    // get() rethrows the first lane failure after all lanes stopped.
    for (auto &future : futures)
        future.wait();
    for (auto &future : futures)
        future.get();
}

std::vector<ExecutionResult>
ServingEngine::runBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries, int threads)
{
    // Validate everything up front: a malformed query must fail before
    // any work is enqueued, not halfway through a batch.
    for (const auto &args : queries)
        validateQuery(args);

    // Results land in input order (distinct slots, no ordering races).
    std::vector<ExecutionResult> results(queries.size());
    runOnLanes(queries.size(), threads,
               [&](std::size_t i) { results[i] = serve(queries[i]); });
    return results;
}

FusedBatchResult
ServingEngine::serveFusedChunk(
    const std::vector<std::vector<rt::BufferPtr>> &queries,
    std::size_t begin, std::size_t end,
    const std::vector<support::SpanContext> *ctxs)
{
    C4CAM_CHECK(begin < end && end <= queries.size(),
                "fused chunk [" << begin << ", " << end
                << ") out of range for " << queries.size()
                << " queries");
    const std::size_t n = end - begin;
    // Sync fused serving with engine tracing on: own one root span per
    // query of the chunk (the async front-end passes @p ctxs and owns
    // its roots itself).
    std::vector<support::SpanContext> local_ctxs;
    bool own_roots = false;
    if (!ctxs && trace_) {
        local_ctxs.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            local_ctxs.push_back(support::SpanContext{
                trace_, traceId_, trace_->newQueryId(),
                trace_->newSpanId()});
        ctxs = &local_ctxs;
        own_roots = true;
    }
    auto record_root = [&](std::size_t j, double start_us, double done_us) {
        support::TraceEvent root;
        root.name = "query";
        root.traceId = local_ctxs[j].traceId;
        root.queryId = local_ctxs[j].queryId;
        root.spanId = local_ctxs[j].parentSpanId;
        root.startUs = start_us;
        root.durUs = done_us - start_us;
        root.fusedK = static_cast<std::int64_t>(n);
        trace_->record(root);
    };

    FusedBatchResult batch;
    batch.results.reserve(n);
    /** Per-query host times: stats and roots are recorded only once
     *  the whole chunk succeeded. */
    std::vector<std::pair<Clock::time_point, Clock::time_point>> times;
    times.reserve(n);
    Clock::time_point chunk_start = Clock::now();
    ExecutionSession *session = acquireSession();
    sim::CamDevice *device = session->device(); // null when host-only
    try {
        if (device)
            device->beginFusedWindow(static_cast<int>(n));
        for (std::size_t i = begin; i < end; ++i) {
            Clock::time_point start = Clock::now();
            batch.results.push_back(session->runQuery(
                queries[i], ctxs ? &(*ctxs)[i - begin] : nullptr));
            times.emplace_back(start, Clock::now());
        }
        if (device)
            batch.fused = device->endFusedWindow();
    } catch (...) {
        // A failed query leaves the partial fused accounting
        // meaningless; discard it so the replica stays servable.
        // Nothing was recorded in the serving stats either, so a
        // caller that retries the queries individually (the async
        // front-end's fallback) does not double-count the ones that
        // succeeded before the failure.
        if (device)
            device->abortFusedWindow();
        releaseSession(session);
        if (own_roots) {
            // Queries [0, times.size()] already recorded execute spans
            // under their root ids (the failed query's on the
            // session's unwind path); record those roots so the trace
            // stays parent-resolvable.
            double now_us = trace_->nowUs();
            for (std::size_t j = 0; j < times.size(); ++j)
                record_root(j, trace_->toUs(times[j].first),
                            trace_->toUs(times[j].second));
            if (times.size() < n)
                record_root(times.size(), trace_->toUs(chunk_start),
                            now_us);
        }
        throw;
    }
    releaseSession(session);
    for (std::size_t j = 0; j < n; ++j) {
        recorder_->record(batch.results[j].perf, times[j].first,
                          times[j].second);
        if (own_roots)
            record_root(j, trace_->toUs(times[j].first),
                        trace_->toUs(times[j].second));
    }

    if (!device)
        return synthesizeFusedBatch(std::move(batch.results), false,
                                    setupReport());
    batch.fusedReport = batch.fused.toReport(setupReport());
    return batch;
}

std::vector<FusedBatchResult>
ServingEngine::runFusedBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries, int k,
    int threads)
{
    C4CAM_CHECK(k >= 1, "fused batch width must be >= 1, got " << k);
    for (const auto &args : queries)
        validateQuery(args);

    std::size_t n = queries.size();
    std::size_t width = static_cast<std::size_t>(k);
    std::vector<FusedBatchResult> results((n + width - 1) / width);
    runOnLanes(results.size(), threads, [&](std::size_t idx) {
        std::size_t begin = idx * width;
        results[idx] = serveFusedChunk(queries, begin,
                                       std::min(n, begin + width));
    });
    return results;
}

std::int64_t
ServingEngine::queriesServed() const
{
    return recorder_->served();
}

ServingStats
ServingEngine::stats() const
{
    ServingStats stats = recorder_->snapshot();
    stats.retries = retries_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace c4cam::core
