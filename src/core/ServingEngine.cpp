#include "core/ServingEngine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/FaultInjector.h"
#include "support/Backoff.h"
#include "support/Error.h"
#include "support/Stats.h"

namespace c4cam::core {

using Clock = std::chrono::steady_clock;

ServingEngine::ServingEngine(std::shared_ptr<ir::Context> ctx,
                             const ir::Module &module,
                             CompilerOptions options, std::string entry,
                             const std::vector<rt::BufferPtr> &setup_args,
                             int replicas,
                             std::shared_ptr<const rt::ExecutionPlan> plan)
    : options_(std::move(options)), entry_(std::move(entry)),
      ctx_(std::move(ctx)), plan_(std::move(plan))
{
    C4CAM_CHECK(replicas >= 1,
                "ServingEngine needs at least 1 replica, got " << replicas);
    ir::Operation *func = module.lookupFunction(entry_);
    C4CAM_CHECK(func, "serving kernel has no function '" << entry_ << "'");
    entryBody_ = &func->region(0).front();
    validateKernelArgs(entryBody_, entry_, setup_args);

    if (!plan_)
        plan_ = compilePlan(module, entry_, options_);
    persistent_ = !options_.hostOnly && plan_->hasPhaseMarkers();

    if (persistent_) {
        // Program the master replica (the only simulated setup cost),
        // then replicate it: clones copy the programmed cells, the
        // setup accounting and the handle numbering, so a copied slot
        // frame keeps addressing the right subarrays.
        auto master = std::make_unique<Replica>();
        master->device = std::make_unique<sim::CamDevice>(options_.spec);
        // Clones inherit the model via cloneProgrammed's copy, so the
        // whole replica pool fuses under one accounting regime.
        master->device->setFusionModel(options_.fusionModel);
        master->frame = plan_->makeFrame();
        plan_->run(master->frame, master->device.get(),
                   rt::toRtValues(setup_args),
                   rt::ExecutionPlan::ExecPhase::SetupOnly);
        setupReport_ = master->device->report();
        replicas_.push_back(std::move(master));
        for (int i = 1; i < replicas; ++i) {
            auto replica = std::make_unique<Replica>();
            replica->device = replicas_[0]->device->cloneProgrammed();
            // Slot frames fork by plain copy: setup results are
            // immutable once programmed, and device handles stay valid
            // on a cloneProgrammed() copy.
            replica->frame = replicas_[0]->frame;
            replicas_.push_back(std::move(replica));
        }
    } else {
        // Host-only fallback: no devices to replicate; per-query
        // executions are already independent. Keep placeholder
        // replicas so the concurrency cap (and stats) behave the same.
        for (int i = 0; i < replicas; ++i)
            replicas_.push_back(std::make_unique<Replica>());
    }
    aggregate_ = setupReport_;

    freeReplicas_.reserve(replicas_.size());
    for (auto &replica : replicas_)
        freeReplicas_.push_back(replica.get());
}

support::ThreadPool &
ServingEngine::pool()
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (!pool_)
        pool_ = std::make_unique<support::ThreadPool>(replicas_.size());
    return *pool_;
}

ServingEngine::Replica *
ServingEngine::acquireReplica()
{
    std::unique_lock<std::mutex> lock(replicaMutex_);
    replicaFree_.wait(lock, [this] { return !freeReplicas_.empty(); });
    Replica *replica = freeReplicas_.back();
    freeReplicas_.pop_back();
    return replica;
}

void
ServingEngine::releaseReplica(Replica *replica)
{
    {
        std::lock_guard<std::mutex> lock(replicaMutex_);
        freeReplicas_.push_back(replica);
    }
    replicaFree_.notify_one();
}

void
ServingEngine::attachFaultInjector(
    std::shared_ptr<sim::FaultInjector> injector)
{
    if (!persistent_)
        return; // host-only: no devices to fault
    for (auto &replica : replicas_)
        if (replica->device)
            replica->device->attachFaultInjector(injector);
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
ServingEngine::serveOn(Replica &replica,
                       const std::vector<rt::BufferPtr> &args,
                       const support::SpanContext *ctx)
{
    // Tracing adds an id handout plus four clock reads per query when
    // a context is threaded in, and predictable null checks when not;
    // it never touches the device or the result, so outputs and
    // PerfReports stay bit-identical either way.
    support::TraceCollector *col =
        ctx && ctx->collector ? ctx->collector : nullptr;
    std::uint64_t execSpan = col ? col->newSpanId() : 0;
    double e0 = col ? col->nowUs() : 0.0;

    ExecutionResult result;
    try {
        if (!persistent_) {
            result = runKernelOnce(*plan_, options_, args);
        } else {
            // Fresh accounting window: this query's report covers
            // exactly this call on top of the shared setup,
            // bit-identical to a serial session (and to a single-shot
            // run).
            replica.device->beginQueryWindow();
            if (col)
                replica.frame.trace = support::SpanContext{
                    col, ctx->traceId, ctx->queryId, execSpan};
            result.outputs = plan_->run(
                replica.frame, replica.device.get(), rt::toRtValues(args),
                rt::ExecutionPlan::ExecPhase::QueryOnly);
            if (col)
                replica.frame.trace = support::SpanContext{};
        }
    } catch (...) {
        if (col) {
            // A fault mid-replay may already have recorded children
            // under this execute span (the plan's RAII "plan-replay"
            // span fires during unwinding); record the execute span
            // itself so the trace stays parent-resolvable.
            replica.frame.trace = support::SpanContext{};
            support::TraceEvent exec;
            exec.name = "execute";
            exec.traceId = ctx->traceId;
            exec.queryId = ctx->queryId;
            exec.spanId = execSpan;
            exec.parentSpanId = ctx->parentSpanId;
            exec.startUs = e0;
            exec.durUs = col->nowUs() - e0;
            col->record(exec);
        }
        throw;
    }
    double e1 = col ? col->nowUs() : 0.0;
    if (persistent_) {
        result.perf = replica.device->report();
        result.perf.queriesServed = 1;
    }
    if (col) {
        double m1 = col->nowUs();
        support::TraceEvent exec;
        exec.name = "execute";
        exec.traceId = ctx->traceId;
        exec.queryId = ctx->queryId;
        exec.spanId = execSpan;
        exec.parentSpanId = ctx->parentSpanId;
        exec.startUs = e0;
        exec.durUs = e1 - e0;
        sim::attachWindowBreakdown(exec, result.perf);
        col->record(exec);

        support::TraceEvent merge;
        merge.name = "merge";
        merge.traceId = ctx->traceId;
        merge.queryId = ctx->queryId;
        merge.spanId = col->newSpanId();
        merge.parentSpanId = ctx->parentSpanId;
        merge.startUs = e1;
        merge.durUs = m1 - e1;
        col->record(merge);
    }
    return result;
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
        Replica *replica = acquireReplica();
        try {
            result = serveOn(*replica, args, ctx);
            releaseReplica(replica);
            break;
        } catch (const sim::TransientFault &) {
            // The fault fired before any window state mutated, but the
            // unwind left timing scopes open; roll the replica back to
            // a servable between-queries state either way.
            if (persistent_ && replica->device)
                replica->device->abortQueryWindow();
            releaseReplica(replica);
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
            // Permanent (ExecutionError / PermanentFault) or
            // programmatic failure: never retried, but the replica
            // still needs its window rolled back to stay servable.
            if (persistent_ && replica->device)
                replica->device->abortQueryWindow();
            releaseReplica(replica);
            record_root(Clock::now());
            throw;
        }
    }
    Clock::time_point done = Clock::now();
    recordServed(result.perf,
                 std::chrono::duration<double>(done - start).count(),
                 start, done);
    record_root(done);
    return result;
}

void
ServingEngine::recordServed(const sim::PerfReport &perf, double latency_s,
                            Clock::time_point start, Clock::time_point done)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    if (persistent_)
        aggregate_.addQueryWindow(perf);
    else
        aggregate_.addFullRun(perf);
    ++queriesServed_;
    latenciesUs_.record(latency_s * 1e6);
    if (!anyServed_ || start < firstSubmit_)
        firstSubmit_ = start;
    if (!anyServed_ || done > lastDone_)
        lastDone_ = done;
    anyServed_ = true;
}

std::future<ExecutionResult>
ServingEngine::submit(std::vector<rt::BufferPtr> args)
{
    validateKernelArgs(entryBody_, entry_, args);
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
        validateKernelArgs(entryBody_, entry_, args);

    int lanes = threads <= 0 ? numReplicas()
                             : std::min(threads, numReplicas());
    lanes = std::min<int>(lanes, static_cast<int>(queries.size()));

    std::vector<ExecutionResult> results(queries.size());
    if (lanes <= 0)
        return results;

    // Drain lanes: `lanes` pool tasks pull query indices from a shared
    // cursor, so concurrency is capped at `lanes` while results land
    // in input order (distinct slots, no ordering races).
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
        futures.push_back(pool().submit([this, &queries, &results,
                                         cursor] {
            for (;;) {
                std::size_t idx = cursor->fetch_add(1);
                if (idx >= queries.size())
                    return;
                results[idx] = serve(queries[idx]);
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
    // Sync fused serving with engine tracing on: own one root span per
    // query of the chunk (the async front-end passes @p ctxs and owns
    // its roots itself).
    std::vector<support::SpanContext> local_ctxs;
    bool own_roots = false;
    if (!ctxs && trace_) {
        local_ctxs.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            local_ctxs.push_back(support::SpanContext{
                trace_, traceId_, trace_->newQueryId(),
                trace_->newSpanId()});
        ctxs = &local_ctxs;
        own_roots = true;
    }

    FusedBatchResult batch;
    batch.results.reserve(end - begin);
    /** Per-query stats, recorded only once the whole chunk succeeded. */
    struct Served
    {
        sim::PerfReport perf;
        Clock::time_point start;
        Clock::time_point done;
    };
    std::vector<Served> served;
    served.reserve(end - begin);
    Clock::time_point chunk_start = Clock::now();
    Replica *replica = acquireReplica();
    try {
        if (persistent_)
            replica->device->beginFusedWindow(
                static_cast<int>(end - begin));
        for (std::size_t i = begin; i < end; ++i) {
            Clock::time_point start = Clock::now();
            ExecutionResult r = serveOn(
                *replica, queries[i],
                ctxs ? &(*ctxs)[i - begin] : nullptr);
            Clock::time_point done = Clock::now();
            served.push_back({r.perf, start, done});
            batch.results.push_back(std::move(r));
        }
        if (persistent_)
            batch.fused = replica->device->endFusedWindow();
    } catch (...) {
        // A failed query leaves the partial fused accounting
        // meaningless; discard it -- along with any open timing
        // scopes the unwind left behind -- so the replica stays
        // servable. Nothing was recorded in the serving stats either,
        // so a caller that retries the queries individually (the
        // async front-end's fallback) does not double-count the ones
        // that succeeded before the failure.
        if (persistent_ && replica->device)
            replica->device->abortQueryWindow();
        releaseReplica(replica);
        if (own_roots) {
            // Queries [0, served.size()] already recorded execute
            // spans under their root ids (the failed query's execute
            // span is recorded by serveOn's unwind path); record
            // those roots so the trace stays parent-resolvable.
            double now_us = trace_->nowUs();
            for (std::size_t j = 0;
                 j <= served.size() && j < local_ctxs.size(); ++j) {
                const support::SpanContext &qctx = local_ctxs[j];
                support::TraceEvent root;
                root.name = "query";
                root.traceId = qctx.traceId;
                root.queryId = qctx.queryId;
                root.spanId = qctx.parentSpanId;
                root.startUs = trace_->toUs(
                    j < served.size() ? served[j].start : chunk_start);
                root.durUs =
                    j < served.size()
                        ? trace_->toUs(served[j].done) - root.startUs
                        : now_us - root.startUs;
                root.fusedK = static_cast<std::int64_t>(end - begin);
                trace_->record(root);
            }
        }
        throw;
    }
    releaseReplica(replica);
    for (const Served &s : served)
        recordServed(s.perf,
                     std::chrono::duration<double>(s.done - s.start)
                         .count(),
                     s.start, s.done);
    if (own_roots) {
        for (std::size_t j = 0; j < served.size(); ++j) {
            const support::SpanContext &ctx = (*ctxs)[j];
            support::TraceEvent root;
            root.name = "query";
            root.traceId = ctx.traceId;
            root.queryId = ctx.queryId;
            root.spanId = ctx.parentSpanId;
            root.startUs = trace_->toUs(served[j].start);
            root.durUs = trace_->toUs(served[j].done) - root.startUs;
            root.fusedK = static_cast<std::int64_t>(end - begin);
            trace_->record(root);
        }
    }

    if (!persistent_) {
        // Non-persistent fallback: synthesize the fused accounting
        // from the per-query reports; setup was re-paid per query, so
        // the report carries the summed setup (see
        // nonPersistentSetupTotal).
        batch.fused.k = static_cast<std::int64_t>(end - begin);
        for (const auto &r : batch.results)
            batch.fused.addQueryReport(r.perf);
        batch.fusedReport =
            batch.fused.toReport(nonPersistentSetupTotal(batch.results));
        return batch;
    }
    batch.fusedReport = batch.fused.toReport(setupReport_);
    return batch;
}

std::vector<FusedBatchResult>
ServingEngine::runFusedBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries, int k,
    int threads)
{
    C4CAM_CHECK(k >= 1, "fused batch width must be >= 1, got " << k);
    for (const auto &args : queries)
        validateKernelArgs(entryBody_, entry_, args);

    std::size_t n = queries.size();
    std::size_t width = static_cast<std::size_t>(k);
    std::size_t num_chunks = (n + width - 1) / width;
    std::vector<FusedBatchResult> results(num_chunks);
    if (num_chunks == 0)
        return results;

    int lanes = threads <= 0 ? numReplicas()
                             : std::min(threads, numReplicas());
    lanes = std::min<int>(lanes, static_cast<int>(num_chunks));

    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
        futures.push_back(pool().submit([this, &queries, &results,
                                         cursor, n, width, num_chunks] {
            for (;;) {
                std::size_t idx = cursor->fetch_add(1);
                if (idx >= num_chunks)
                    return;
                std::size_t begin = idx * width;
                std::size_t end = std::min(n, begin + width);
                results[idx] = serveFusedChunk(queries, begin, end);
            }
        }));
    }
    for (auto &future : futures)
        future.wait();
    for (auto &future : futures)
        future.get();
    return results;
}

std::int64_t
ServingEngine::queriesServed() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return queriesServed_;
}

ServingStats
ServingEngine::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    ServingStats stats;
    stats.queriesServed = queriesServed_;
    stats.retries = retries_.load(std::memory_order_relaxed);
    stats.aggregate = aggregate_;
    stats.aggregate.queriesServed = queriesServed_;
    if (anyServed_) {
        stats.wallSeconds =
            std::chrono::duration<double>(lastDone_ - firstSubmit_)
                .count();
        if (stats.wallSeconds > 0.0)
            stats.qps = static_cast<double>(queriesServed_) /
                        stats.wallSeconds;
    }
    std::vector<double> sorted = latenciesUs_.sorted();
    stats.p50LatencyUs = support::percentile(sorted, 50.0);
    stats.p95LatencyUs = support::percentile(sorted, 95.0);
    stats.planCache = PlanCache::instance().stats();
    return stats;
}

} // namespace c4cam::core
