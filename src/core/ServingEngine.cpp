#include "core/ServingEngine.h"

#include <algorithm>
#include <atomic>
#include <span>
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
    if (!ctx && trace_) {
        local = support::SpanContext::newRoot(trace_, traceId_);
        ctx = &local;
    }
    Clock::time_point start = Clock::now();
    // Record the root span on every exit (the failed attempts may have
    // recorded execute spans under it; an unresolvable parent would
    // fail c4cam-trace-check on an otherwise complete trace).
    auto record_root = [&](Clock::time_point done) {
        if (local.enabled())
            trace_->record(
                local.root(trace_->toUs(start), trace_->toUs(done)));
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
            if (ctx && ctx->enabled()) {
                double now = ctx->collector->nowUs();
                ctx->collector->record(ctx->span("retry", now, now));
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

std::vector<ExecutionResult>
ServingEngine::runBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries, int threads)
{
    // Validate everything up front: a malformed query must fail before
    // any work is enqueued, not halfway through a batch.
    for (const auto &args : queries)
        validateQuery(args);

    const std::size_t count = queries.size();
    int lanes = threads <= 0 ? numReplicas()
                             : std::min(threads, numReplicas());
    lanes = std::min<int>(lanes, static_cast<int>(count));
    // Results land in input order (distinct slots, no ordering races).
    // `lanes` pool tasks pull indices from a shared cursor, so
    // concurrency is capped at `lanes` while every query runs once.
    std::vector<ExecutionResult> results(count);
    std::atomic<std::size_t> cursor{0};
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
        futures.push_back(pool().submit([&] {
            for (;;) {
                std::size_t i = cursor.fetch_add(1);
                if (i >= count)
                    return;
                results[i] = serve(queries[i]);
            }
        }));
    }
    // get() rethrows the first lane failure after all lanes stopped.
    for (auto &future : futures)
        future.wait();
    for (auto &future : futures)
        future.get();
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
    const std::int64_t k = static_cast<std::int64_t>(n);
    // Sync fused serving with engine tracing on: own one root span per
    // query of the chunk (the async front-end passes @p ctxs and owns
    // its roots itself).
    std::vector<support::SpanContext> roots;
    if (!ctxs && trace_) {
        roots.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            roots.push_back(support::SpanContext::newRoot(trace_, traceId_));
        ctxs = &roots;
    }

    // Stats are recorded from the per-query host times only once the
    // whole chunk succeeded; owned roots are recorded on every exit
    // (the queries that ran already recorded execute spans under them).
    std::vector<QueryHostTime> times;
    times.reserve(n);
    auto record_roots = [&] {
        for (std::size_t j = 0; j < times.size(); ++j)
            trace_->record(roots[j].root(trace_->toUs(times[j].start),
                                         trace_->toUs(times[j].done), k));
    };
    Clock::time_point chunk_start = Clock::now();
    ExecutionSession *session = acquireSession();
    FusedBatchResult batch;
    try {
        batch = session->runFusedBatch(
            std::span(queries).subspan(begin, n),
            ctxs ? std::span(*ctxs) : std::span<const support::SpanContext>(),
            &times);
    } catch (...) {
        // The session aborted the fused window and nothing reached the
        // serving stats, so a caller that retries the queries
        // individually (the async front-end's fallback) does not
        // double-count the served prefix.
        releaseSession(session);
        if (!roots.empty()) {
            double now_us = trace_->nowUs();
            record_roots();
            if (times.size() < n) // the query that failed
                trace_->record(roots[times.size()].root(
                    trace_->toUs(chunk_start), now_us, k));
        }
        throw;
    }
    releaseSession(session);
    for (std::size_t j = 0; j < n; ++j)
        recorder_->record(batch.results[j].perf, times[j].start,
                          times[j].done);
    if (!roots.empty())
        record_roots();
    return batch;
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
