#include "core/ExecutionSession.h"

#include <algorithm>

#include "support/Error.h"

namespace c4cam::core {

namespace {

/**
 * Setup cost of a *non-persistent* fused batch: the summed setup
 * fields of the per-query full re-runs.
 */
sim::PerfReport
nonPersistentSetupTotal(const std::vector<ExecutionResult> &results)
{
    sim::PerfReport setup;
    for (const ExecutionResult &r : results) {
        setup.setupLatencyNs += r.perf.setupLatencyNs;
        setup.setupEnergyPj += r.perf.setupEnergyPj;
        setup.writes += r.perf.writes;
        // High-water marks, not last-run snapshots (same rule as
        // PerfReport::addFullRun): a heterogeneous batch must not let
        // the final run misreport utilization().
        setup.subarraysUsed =
            std::max(setup.subarraysUsed, r.perf.subarraysUsed);
        setup.subarraysAllocated =
            std::max(setup.subarraysAllocated, r.perf.subarraysAllocated);
        setup.banksUsed = std::max(setup.banksUsed, r.perf.banksUsed);
    }
    return setup;
}

} // namespace

FusedBatchResult
synthesizeFusedBatch(std::vector<ExecutionResult> results, bool persistent,
                     const sim::PerfReport &setup)
{
    FusedBatchResult batch;
    batch.results = std::move(results);
    batch.fused.k = static_cast<std::int64_t>(batch.results.size());
    for (const ExecutionResult &r : batch.results)
        batch.fused.addQueryReport(r.perf);
    batch.fusedReport = batch.fused.toReport(
        persistent ? setup : nonPersistentSetupTotal(batch.results));
    return batch;
}

ExecutionSession::ExecutionSession(
    std::shared_ptr<ir::Context> ctx, const ir::Module &module,
    CompilerOptions options, std::string entry,
    const std::vector<rt::BufferPtr> &setup_args,
    std::shared_ptr<const rt::ExecutionPlan> plan)
    : ctx_(std::move(ctx)), options_(std::move(options)),
      entry_(std::move(entry)), plan_(std::move(plan))
{
    ir::Operation *func = module.lookupFunction(entry_);
    C4CAM_CHECK(func, "session kernel has no function '" << entry_ << "'");
    entryBody_ = &func->region(0).front();
    validateKernelArgs(entryBody_, entry_, setup_args);

    if (!plan_)
        plan_ = compilePlan(module, entry_, options_);

    persistent_ = !options_.hostOnly && plan_->hasPhaseMarkers();
    if (!persistent_)
        return; // fall back to full re-execution per query

    device_ = std::make_unique<sim::CamDevice>(options_.spec);
    device_->setFusionModel(options_.fusionModel);
    frame_ = plan_->makeFrame();
    plan_->run(frame_, device_.get(), rt::toRtValues(setup_args),
               rt::ExecutionPlan::ExecPhase::SetupOnly);
    setupReport_ = device_->report();
    aggregate_ = setupReport_;
}

void
ExecutionSession::enableTracing(support::TraceCollector *collector)
{
    trace_ = collector;
    traceId_ = collector ? collector->newTraceId() : 0;
}

ExecutionSession
ExecutionSession::cloneProgrammed() const
{
    ExecutionSession copy;
    copy.ctx_ = ctx_;
    copy.options_ = options_;
    copy.entry_ = entry_;
    copy.entryBody_ = entryBody_;
    if (device_)
        copy.device_ = device_->cloneProgrammed();
    copy.plan_ = plan_;
    // Slot frames fork by plain copy: setup results are immutable once
    // programmed, and device handles stay valid on the cloned device.
    copy.frame_ = frame_;
    copy.persistent_ = persistent_;
    copy.setupReport_ = setupReport_;
    copy.aggregate_ = setupReport_;
    return copy;
}

ExecutionResult
ExecutionSession::runQuery(const std::vector<rt::BufferPtr> &args,
                           const support::SpanContext *parent)
{
    validateKernelArgs(entryBody_, entry_, args);
    ExecutionResult result = execute(args, parent);
    accumulate(result.perf);
    return result;
}

ExecutionResult
ExecutionSession::execute(const std::vector<rt::BufferPtr> &args,
                          const support::SpanContext *parent)
{
    // This query's tracing context: execute and merge parent under
    // ctx.parentSpanId, which is the caller's span or, when the
    // session traces on its own, the root this call records.
    // Tracing is an id handout plus four clock reads per query when a
    // collector is installed, and predictable null checks when not --
    // it never touches the device or the result, so outputs and
    // PerfReports stay bit-identical either way.
    support::SpanContext ctx;
    bool own_root = false;
    if (parent) {
        ctx = *parent;
    } else if (trace_) {
        ctx = support::SpanContext::newRoot(trace_, traceId_);
        own_root = true;
    }
    support::TraceCollector *col = ctx.collector;
    std::uint64_t execSpan = col ? col->newSpanId() : 0;
    double t0 = col ? col->nowUs() : 0.0;

    ExecutionResult result;
    try {
        if (!persistent_) {
            result = runKernelOnce(*plan_, options_, args);
        } else {
            // Reset the query accounting window so this report's query
            // fields cover exactly this call (and match a single-shot
            // run bit-for-bit).
            device_->beginQueryWindow();
            if (col)
                frame_.trace = support::SpanContext{col, ctx.traceId,
                                                    ctx.queryId, execSpan};
            result.outputs =
                plan_->run(frame_, device_.get(), rt::toRtValues(args),
                           rt::ExecutionPlan::ExecPhase::QueryOnly);
            frame_.trace = support::SpanContext{};
        }
    } catch (...) {
        // The frame must not keep pointing at this query's collector:
        // the next replay would record into it, even after tracing was
        // turned off and the collector destroyed.
        frame_.trace = support::SpanContext{};
        if (persistent_) {
            // Close the scopes the unwind left open so the session
            // stays servable (a transient fault is retried on it).
            device_->abortQueryWindow();
        }
        if (col) {
            // The replay's RAII "plan-replay" span already recorded
            // under execSpan during unwinding; record execute (and the
            // root, when owned) so the trace stays parent-resolvable.
            double now = col->nowUs();
            col->record(ctx.span("execute", t0, now, execSpan));
            if (own_root)
                col->record(ctx.root(t0, now));
        }
        throw;
    }
    double e1 = col ? col->nowUs() : 0.0;
    if (persistent_) {
        // Merge stage: render the window into the report.
        result.perf = device_->report();
        result.perf.queriesServed = 1;
    }
    if (col) {
        double m1 = col->nowUs();
        support::TraceEvent exec = ctx.span("execute", t0, e1, execSpan);
        sim::attachWindowBreakdown(exec, result.perf);
        col->record(exec);
        col->record(ctx.span("merge", e1, m1));
        if (own_root)
            col->record(ctx.root(t0, m1));
    }
    return result;
}

void
ExecutionSession::accumulate(const sim::PerfReport &perf)
{
    if (persistent_) {
        aggregate_.addQueryWindow(perf);
    } else {
        // Every non-persistent call pays setup again; surface that in
        // the aggregate so amortization reflects reality.
        aggregate_.addFullRun(perf);
    }
    ++queriesServed_;
}

std::vector<ExecutionResult>
ExecutionSession::runBatch(
    const std::vector<std::vector<rt::BufferPtr>> &batches)
{
    std::vector<ExecutionResult> results;
    results.reserve(batches.size());
    for (const auto &args : batches)
        results.push_back(runQuery(args));
    return results;
}

FusedBatchResult
ExecutionSession::runFusedBatch(
    std::span<const std::vector<rt::BufferPtr>> queries,
    std::span<const support::SpanContext> ctxs,
    std::vector<QueryHostTime> *times)
{
    C4CAM_CHECK(!queries.empty(), "fused batch needs at least one query");
    C4CAM_CHECK(ctxs.empty() || ctxs.size() == queries.size(),
                "fused batch of " << queries.size() << " queries got "
                << ctxs.size() << " span contexts");
    // Validate everything up front: a malformed query must fail before
    // the fused window opens, not leave the device mid-batch.
    for (const auto &args : queries)
        validateKernelArgs(entryBody_, entry_, args);

    using Clock = std::chrono::steady_clock;
    FusedBatchResult batch;
    batch.results.reserve(queries.size());
    // Non-persistent sessions (host-only kernels, or device kernels
    // without phase markers) have no programmed device to open a
    // fused window on.
    if (persistent_)
        device_->beginFusedWindow(static_cast<int>(queries.size()));
    try {
        for (std::size_t i = 0; i < queries.size(); ++i) {
            Clock::time_point start = Clock::now();
            batch.results.push_back(
                execute(queries[i], ctxs.empty() ? nullptr : &ctxs[i]));
            if (times)
                times->push_back({start, Clock::now()});
        }
        if (persistent_)
            batch.fused = device_->endFusedWindow();
    } catch (...) {
        // A failed query leaves the partial fused accounting
        // meaningless; discard it so the session stays servable.
        if (persistent_)
            device_->abortFusedWindow();
        throw;
    }
    if (persistent_)
        batch.fusedReport = batch.fused.toReport(setupReport_);
    else
        batch = synthesizeFusedBatch(std::move(batch.results), false,
                                     setupReport_);
    // Count the batch only now that all of it succeeded: a failed
    // batch hands the caller no results, so a retry must not find its
    // served prefix already counted.
    for (const ExecutionResult &r : batch.results)
        accumulate(r.perf);
    return batch;
}

sim::PerfReport
ExecutionSession::aggregateReport() const
{
    sim::PerfReport report = aggregate_;
    report.queriesServed = queriesServed_;
    return report;
}

} // namespace c4cam::core
