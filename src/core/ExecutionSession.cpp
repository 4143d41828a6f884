#include "core/ExecutionSession.h"

#include <algorithm>

#include "support/Error.h"

namespace c4cam::core {

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

ExecutionResult
ExecutionSession::runQuery(const std::vector<rt::BufferPtr> &args)
{
    validateKernelArgs(entryBody_, entry_, args);

    // Tracing is an id handout plus four clock reads per query when a
    // collector is installed, and three predictable null checks when
    // not -- it never touches the device or the result, so outputs and
    // PerfReports stay bit-identical either way.
    support::TraceCollector *col = trace_;
    std::uint64_t queryId = 0, rootSpan = 0, execSpan = 0;
    double t0 = 0.0;
    if (col) {
        queryId = col->newQueryId();
        rootSpan = col->newSpanId();
        execSpan = col->newSpanId();
        t0 = col->nowUs();
    }

    auto span = [&](const char *name, std::uint64_t id,
                    std::uint64_t parent, double start, double end) {
        support::TraceEvent ev;
        ev.name = name;
        ev.traceId = traceId_;
        ev.queryId = queryId;
        ev.spanId = id;
        ev.parentSpanId = parent;
        ev.startUs = start;
        ev.durUs = end - start;
        return ev;
    };

    ExecutionResult result;
    try {
        if (!persistent_) {
            result = runNonPersistent(args);
        } else {
            // Reset the query accounting window so this report's query
            // fields cover exactly this call (and match a single-shot
            // run bit-for-bit).
            device_->beginQueryWindow();
            if (col)
                frame_.trace =
                    support::SpanContext{col, traceId_, queryId, execSpan};
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
            // stays servable.
            device_->abortQueryWindow();
        }
        if (col) {
            // The replay's RAII "plan-replay" span already recorded
            // under execSpan during unwinding; record execute and its
            // root so the trace stays parent-resolvable.
            double now = col->nowUs();
            col->record(span("execute", execSpan, rootSpan, t0, now));
            col->record(span("query", rootSpan, 0, t0, now));
        }
        throw;
    }
    double e1 = col ? col->nowUs() : 0.0;
    if (persistent_) {
        // Merge stage: render the window into the report and fold it
        // into the session aggregate.
        result.perf = device_->report();
        result.perf.queriesServed = 1;
        accumulate(result.perf);
        ++queriesServed_;
    }
    if (col) {
        double m1 = col->nowUs();
        support::TraceEvent exec = span("execute", execSpan, rootSpan, t0, e1);
        sim::attachWindowBreakdown(exec, result.perf);
        col->record(exec);
        col->record(span("merge", col->newSpanId(), rootSpan, e1, m1));
        col->record(span("query", rootSpan, 0, t0, m1));
    }
    return result;
}

ExecutionResult
ExecutionSession::runNonPersistent(const std::vector<rt::BufferPtr> &args)
{
    ExecutionResult result = runKernelOnce(*plan_, options_, args);
    accumulate(result.perf);
    ++queriesServed_;
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
    const std::vector<std::vector<rt::BufferPtr>> &queries)
{
    C4CAM_CHECK(!queries.empty(), "fused batch needs at least one query");
    // Validate everything up front: a malformed query must fail before
    // the fused window opens, not leave the device mid-batch.
    for (const auto &args : queries)
        validateKernelArgs(entryBody_, entry_, args);

    FusedBatchResult batch;
    batch.results.reserve(queries.size());

    if (!persistent_) {
        // Non-persistent fallback (host-only kernels, or device
        // kernels without phase markers): no programmed device to
        // open a fused window on; synthesize the fused accounting
        // from the per-query reports. Setup was re-paid per query, so
        // the fused report carries the summed setup, not this
        // session's (empty) one-time setup.
        for (const auto &args : queries)
            batch.results.push_back(runQuery(args));
        batch.fused.k = static_cast<std::int64_t>(queries.size());
        for (const auto &r : batch.results)
            batch.fused.addQueryReport(r.perf);
        batch.fusedReport =
            batch.fused.toReport(nonPersistentSetupTotal(batch.results));
        return batch;
    }

    device_->beginFusedWindow(static_cast<int>(queries.size()));
    try {
        for (const auto &args : queries)
            batch.results.push_back(runQuery(args));
    } catch (...) {
        // A failed query leaves the partial fused accounting
        // meaningless; discard it so the session stays servable.
        device_->abortFusedWindow();
        throw;
    }
    batch.fused = device_->endFusedWindow();
    batch.fusedReport = batch.fused.toReport(setupReport_);
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
