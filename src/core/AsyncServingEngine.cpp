#include "core/AsyncServingEngine.h"

#include <algorithm>
#include <utility>

#include "support/Error.h"
#include "support/Stats.h"

namespace c4cam::core {

namespace {

std::exception_ptr
admissionError(const char *what)
{
    return std::make_exception_ptr(AdmissionError(what));
}

} // namespace

AsyncServingEngine::AsyncServingEngine(std::unique_ptr<QueryBackend> backend,
                                       AsyncServingOptions options)
    : backend_(std::move(backend)), options_(options),
      queue_(options.queueCapacity == 0 ? 1 : options.queueCapacity,
             options.policy)
{
    C4CAM_CHECK(backend_, "AsyncServingEngine needs a QueryBackend");
    options_.queueCapacity = queue_.capacity();
    if (options_.trace) {
        // One trace id spans the whole stack: the async layer's
        // admit/wait/dispatch spans and the wrapped backend's
        // execute/merge spans group under it.
        traceId_ = options_.trace->newTraceId();
        backend_->enableTracing(options_.trace, traceId_);
    }
    options_.fuseMaxK = std::max(options_.fuseMaxK, 1);
    options_.fuseMinDepth = std::max<std::size_t>(options_.fuseMinDepth, 1);
    int dispatchers = options_.dispatchers > 0 ? options_.dispatchers
                                               : backend_->concurrency();
    options_.dispatchers = dispatchers;
    dispatchers_.reserve(static_cast<std::size_t>(dispatchers));
    for (int i = 0; i < dispatchers; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

AsyncServingEngine::~AsyncServingEngine()
{
    shutdown();
}

void
AsyncServingEngine::shutdown()
{
    shutdown_.store(true);
    // One caller closes and joins; concurrent callers block here until
    // the teardown finished, so shutdown() is idempotent and safe to
    // race (including destructor vs explicit call).
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    queue_.close();
    for (std::thread &t : dispatchers_)
        if (t.joinable())
            t.join();
}

bool
AsyncServingEngine::shuttingDown() const
{
    return shutdown_.load();
}

AsyncServingEngine::Admission
AsyncServingEngine::enqueue(Pending pending)
{
    submitted_.fetch_add(1);
    support::TraceCollector *col = options_.trace;
    if (col) {
        if (pending.admitStart == Clock::time_point{})
            pending.admitStart = Clock::now();
        pending.trace = support::SpanContext::newRoot(col, traceId_);
    }
    pending.enqueued = Clock::now();
    // Copies for the admit span: the push may move pending away (and
    // under the Block policy the push-wait is enqueue-wait time, so
    // the admit span closes at the pre-push `enqueued` stamp).
    const support::SpanContext trace = pending.trace;
    const Clock::time_point admit_start = pending.admitStart;
    const Clock::time_point admit_end = pending.enqueued;
    auto result = queue_.push(std::move(pending));
    switch (result.status) {
    case support::BoundedQueue<Pending>::PushStatus::Ok:
        accepted_.fetch_add(1);
        if (col)
            col->record(trace.span("admit", col->toUs(admit_start),
                                   col->toUs(admit_end)));
        if (result.displaced) {
            // DropOldest evicted the stalest queued query to admit
            // this one; its submitter still gets a completion.
            dropped_.fetch_add(1);
            deliverError(*result.displaced,
                         admissionError("query dropped: drop-oldest "
                                        "overflow displaced it from the "
                                        "submission queue"));
        }
        return Admission::Accepted;
    case support::BoundedQueue<Pending>::PushStatus::Rejected:
    case support::BoundedQueue<Pending>::PushStatus::Closed: {
        // Never entered the queue: count as rejected (not completed),
        // and resolve a promise-flavored submission's future with the
        // admission error. Callback-flavored submissions signal the
        // rejection through trySubmit's return value instead -- the
        // callback must not fire for work that was never accepted.
        rejected_.fetch_add(1);
        if (result.returned && !result.returned->hasCallback)
            result.returned->promise.set_exception(admissionError(
                result.status ==
                        support::BoundedQueue<Pending>::PushStatus::Closed
                    ? "query rejected: async serving engine is "
                      "shutting down"
                    : "query rejected: submission queue is full "
                      "(reject policy)"));
        notifyProgress();
        return Admission::Rejected;
    }
    }
    return Admission::Rejected; // unreachable
}

std::future<ExecutionResult>
AsyncServingEngine::submit(std::vector<rt::BufferPtr> args,
                           std::int64_t deadline_us)
{
    // The admit span opens at submit entry: validation is admission
    // work and belongs to it.
    Clock::time_point admit_start = Clock::now();
    // Fail malformed submissions on the caller's stack, before they
    // consume a queue slot.
    backend_->validateQuery(args);
    Pending pending;
    pending.admitStart = admit_start;
    pending.args = std::move(args);
    pending.deadlineUs =
        deadline_us != 0 ? deadline_us : options_.deadlineUs;
    std::future<ExecutionResult> future = pending.promise.get_future();
    enqueue(std::move(pending));
    return future;
}

bool
AsyncServingEngine::trySubmit(std::vector<rt::BufferPtr> args,
                              Completion callback,
                              std::int64_t deadline_us)
{
    Clock::time_point admit_start = Clock::now();
    C4CAM_CHECK(callback, "trySubmit needs a completion callback");
    backend_->validateQuery(args);
    Pending pending;
    pending.admitStart = admit_start;
    pending.args = std::move(args);
    pending.deadlineUs =
        deadline_us != 0 ? deadline_us : options_.deadlineUs;
    pending.callback = std::move(callback);
    pending.hasCallback = true;
    if (enqueue(std::move(pending)) == Admission::Rejected)
        return false;
    return true;
}

std::vector<std::future<ExecutionResult>>
AsyncServingEngine::submitBatch(
    const std::vector<std::vector<rt::BufferPtr>> &queries)
{
    std::vector<std::future<ExecutionResult>> futures;
    futures.reserve(queries.size());
    for (const auto &args : queries)
        futures.push_back(submit(args));
    return futures;
}

void
AsyncServingEngine::submitBatchStreaming(
    const std::vector<std::vector<rt::BufferPtr>> &queries,
    std::function<void(std::size_t, ExecutionResult, std::exception_ptr)>
        on_result)
{
    C4CAM_CHECK(on_result, "submitBatchStreaming needs a result callback");
    for (std::size_t i = 0; i < queries.size(); ++i) {
        // Every index gets exactly one completion -- admission
        // failures AND validation failures included. A streaming
        // consumer must never have to guess which entries went
        // missing, so a malformed query mid-list is reported through
        // its own slot instead of aborting the remaining submissions.
        bool accepted = false;
        std::exception_ptr failure;
        try {
            accepted = trySubmit(
                queries[i], [on_result, i](ExecutionResult result,
                                           std::exception_ptr err) {
                    on_result(i, std::move(result), err);
                });
        } catch (const CompilerError &) {
            failure = std::current_exception();
        }
        if (failure)
            on_result(i, ExecutionResult{}, failure);
        else if (!accepted)
            on_result(i, ExecutionResult{},
                      admissionError("query rejected at submission"));
    }
}

void
AsyncServingEngine::recordCompletionSpans(const Pending &pending,
                                          Clock::time_point dispatch_done)
{
    // Recorded after the fulfillment but BEFORE the completed_ bump:
    // once drain() returns, every delivered query's spans are already
    // in the collector.
    const support::SpanContext &trace = pending.trace;
    if (!trace.enabled())
        return;
    support::TraceCollector *col = trace.collector;
    double now_us = col->nowUs();
    if (dispatch_done != Clock::time_point{})
        col->record(
            trace.span("deliver", col->toUs(dispatch_done), now_us));
    col->record(trace.root(col->toUs(pending.admitStart), now_us));
}

void
AsyncServingEngine::deliver(Pending &pending, ExecutionResult result,
                            Clock::time_point dispatch_done)
{
    // Fulfill BEFORE counting: completed_ is what drain() waits on,
    // and once it covers every ticket the corresponding futures and
    // callbacks must already have fired -- counting first would let
    // drain() return while a future is still being set.
    if (pending.hasCallback) {
        try {
            pending.callback(std::move(result), nullptr);
        } catch (...) {
            // A throwing completion callback is a caller bug; eating
            // the exception beats tearing down the dispatcher.
        }
    } else {
        pending.promise.set_value(std::move(result));
    }
    recordCompletionSpans(pending, dispatch_done);
    completed_.fetch_add(1);
    notifyProgress();
}

void
AsyncServingEngine::deliverError(Pending &pending, std::exception_ptr error,
                                 Clock::time_point dispatch_done)
{
    if (pending.hasCallback) {
        try {
            pending.callback(ExecutionResult{}, error);
        } catch (...) {
        }
    } else {
        pending.promise.set_exception(error);
    }
    recordCompletionSpans(pending, dispatch_done);
    failed_.fetch_add(1);
    completed_.fetch_add(1);
    notifyProgress();
}

void
AsyncServingEngine::notifyProgress()
{
    // The empty critical section is load-bearing: it orders this
    // notification after any drain() that already evaluated its
    // predicate and is about to sleep, closing the lost-wakeup window
    // between a waiter's atomic reads and its wait() call. Keep the
    // lock/notify pairing together -- dropping the "pointless" lock
    // reintroduces the race.
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
    }
    progress_.notify_all();
}

void
AsyncServingEngine::recordLatency(double wait_us, double exec_us)
{
    std::lock_guard<std::mutex> lock(latencyMutex_);
    enqueueWaitsUs_.record(wait_us);
    executeUs_.record(exec_us);
}

void
AsyncServingEngine::dispatchLoop()
{
    support::TraceCollector *col = options_.trace;
    // Dispatchers are the hot path: spans batch through a per-thread
    // recorder and hit the collector mutex once per batch. (With
    // tracing off the recorder is a null-check no-op.)
    support::SpanRecorder recorder(col);
    std::vector<support::SpanContext> ctxs;

    std::vector<Pending> group;
    for (;;) {
        group.clear();
        std::size_t n = queue_.popGroup(
            group, static_cast<std::size_t>(options_.fuseMaxK),
            options_.fuseMinDepth);
        if (n == 0)
            return; // closed and drained
        Clock::time_point popped = Clock::now();

        // Deadline shedding, decided the moment the group comes off
        // the queue: a query whose enqueue wait already blew its
        // deadline is delivered a typed DeadlineExceeded instead of
        // burning device time. The check sits BEFORE dispatch (never
        // mid-serve), so a query that starts executing always runs to
        // completion.
        {
            std::size_t kept = 0;
            for (std::size_t i = 0; i < n; ++i) {
                Pending &p = group[i];
                if (p.deadlineUs > 0 &&
                    std::chrono::duration<double, std::micro>(
                        popped - p.enqueued)
                            .count() >
                        static_cast<double>(p.deadlineUs)) {
                    deadlineSheds_.fetch_add(1);
                    deliverError(
                        p,
                        std::make_exception_ptr(DeadlineExceeded(
                            "query shed: enqueue wait exceeded its "
                            "deadline of " +
                            std::to_string(p.deadlineUs) + " us")),
                        popped);
                } else {
                    if (kept != i)
                        group[kept] = std::move(p);
                    ++kept;
                }
            }
            group.resize(kept);
            n = kept;
        }
        if (n == 0)
            continue; // the whole group expired in the queue

        if (col) {
            // One dispatch span per query (every fused member
            // experienced the whole window); the engine's execute
            // span parents under it via the per-query context.
            ctxs.clear();
            ctxs.reserve(n);
            for (const Pending &p : group) {
                ctxs.push_back(p.trace);
                ctxs.back().parentSpanId = col->newSpanId();
            }
            // Self-rooted: the decision belongs to the group, named by
            // its first query.
            support::SpanContext group_ctx = group[0].trace;
            group_ctx.parentSpanId = 0;
            double popped_us = col->toUs(popped);
            recorder.record(group_ctx.span(
                "fuse-decision", popped_us, popped_us, 0,
                n >= 2 ? static_cast<std::int64_t>(n) : 0));
        }

        // Execute first, collect the per-query outcomes, THEN record
        // latency and deliver. Delivery must come last: the moment a
        // completion fires, drain() may observe the engine idle and
        // stats() must already contain this group's samples.
        std::vector<ExecutionResult> results(n);
        std::vector<std::exception_ptr> errors(n);
        bool fused_ok = false;
        if (n >= 2) {
            std::vector<std::vector<rt::BufferPtr>> qargs;
            qargs.reserve(n);
            for (const Pending &p : group)
                qargs.push_back(p.args);
            // Args were validated at admission; the backend's own
            // re-check cannot fail here.
            try {
                FusedBatchResult fused = backend_->serveFusedChunk(
                    qargs, 0, qargs.size(), col ? &ctxs : nullptr);
                for (std::size_t i = 0; i < n; ++i)
                    results[i] = std::move(fused.results[i]);
                fusedWindows_.fetch_add(1);
                fusedQueries_.fetch_add(static_cast<std::int64_t>(n));
                fused_ok = true;
            } catch (...) {
                // The fused window aborted (one query poisoned it)
                // and recorded nothing in the engine stats. Re-serve
                // each query alone so its window-mates still succeed;
                // only the actually-broken ones fail. The group
                // counts as single dispatches -- that is how it was
                // ultimately served.
                singleDispatches_.fetch_add(static_cast<std::int64_t>(n));
                fallbackRetries_.fetch_add(static_cast<std::int64_t>(n));
                for (std::size_t i = 0; i < n; ++i) {
                    try {
                        results[i] = backend_->serve(
                            group[i].args, col ? &ctxs[i] : nullptr);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            }
        } else {
            singleDispatches_.fetch_add(1);
            try {
                results[0] = backend_->serve(group[0].args,
                                            col ? &ctxs[0] : nullptr);
            } catch (...) {
                errors[0] = std::current_exception();
            }
        }

        Clock::time_point done = Clock::now();
        // The execute figure is the dispatch-window wall time: for a
        // fused group every member experienced the whole window (its
        // completion waited for it), so each query records the full
        // window duration, mirroring what a caller would measure.
        double exec_us =
            std::chrono::duration<double, std::micro>(done - popped)
                .count();
        for (const Pending &p : group) {
            double wait_us = std::chrono::duration<double, std::micro>(
                                 popped - p.enqueued)
                                 .count();
            recordLatency(wait_us, exec_us);
        }

        if (col) {
            double popped_us = col->toUs(popped);
            double done_us = col->toUs(done);
            for (std::size_t i = 0; i < n; ++i) {
                const support::SpanContext &trace = group[i].trace;
                recorder.record(trace.span("enqueue-wait",
                                           col->toUs(group[i].enqueued),
                                           popped_us));
                recorder.record(trace.span(
                    "dispatch", popped_us, done_us, ctxs[i].parentSpanId,
                    fused_ok ? static_cast<std::int64_t>(n) : 0));
            }
            // Flush before delivering: once a completion fires (and
            // certainly once drain() returns) this group's spans must
            // be visible in the collector.
            recorder.flush();
        }

        for (std::size_t i = 0; i < n; ++i) {
            if (errors[i])
                deliverError(group[i], errors[i], done);
            else
                deliver(group[i], std::move(results[i]), done);
        }
    }
}

void
AsyncServingEngine::drain()
{
    std::unique_lock<std::mutex> lock(stateMutex_);
    progress_.wait(lock, [this] {
        // Everything ticketed has been resolved one way or another
        // (completed, dropped via displacement -- already counted in
        // completed_ -- or rejected at admission) and nothing is
        // queued or mid-dispatch.
        return queue_.size() == 0 &&
               completed_.load() + rejected_.load() >= submitted_.load();
    });
}

AsyncServingStats
AsyncServingEngine::stats() const
{
    AsyncServingStats stats;
    stats.serving = backend_->stats();
    // Read outcome counters BEFORE the ticket counters: every outcome
    // (completion, rejection, drop) is preceded by its submission
    // ticket, so sampling outcomes first and tickets last guarantees
    // the conservation invariant completed + rejected <= submitted in
    // every snapshot, even one torn across a running storm. The
    // reverse order can observe a completion whose ticket was counted
    // after submitted_ was read.
    stats.failed = failed_.load();
    stats.dropped = dropped_.load();
    stats.completed = completed_.load();
    stats.rejected = rejected_.load();
    stats.fusedWindows = fusedWindows_.load();
    stats.fusedQueries = fusedQueries_.load();
    stats.singleDispatches = singleDispatches_.load();
    stats.deadlineSheds = deadlineSheds_.load();
    stats.fallbackRetries = fallbackRetries_.load();
    // The backend never sees a shed query; mirror the count into the
    // serving view so one ServingStats snapshot carries the full
    // fault-tolerance story (retries/quarantines come from below).
    stats.serving.deadlineSheds = stats.deadlineSheds;
    stats.accepted = accepted_.load();
    stats.submitted = submitted_.load();
    stats.queueDepth = queue_.size();
    stats.queueCapacity = queue_.capacity();
    // accepted_ is bumped by the producer AFTER the push, so a
    // dispatcher can race a whole serve in between and completed_
    // would transiently exceed it. Every completed query was by
    // definition accepted, so clamping keeps the documented
    // accepted >= completed invariant in every snapshot (and stays
    // monotone: both inputs only grow).
    stats.accepted = std::max(stats.accepted, stats.completed);

    std::vector<double> waits;
    std::vector<double> execs;
    {
        std::lock_guard<std::mutex> lock(latencyMutex_);
        waits = enqueueWaitsUs_.sorted();
        execs = executeUs_.sorted();
    }
    stats.p50EnqueueWaitUs = support::percentile(waits, 50.0);
    stats.p95EnqueueWaitUs = support::percentile(waits, 95.0);
    stats.p50ExecuteUs = support::percentile(execs, 50.0);
    stats.p95ExecuteUs = support::percentile(execs, 95.0);
    return stats;
}

} // namespace c4cam::core
