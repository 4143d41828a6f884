#ifndef C4CAM_TESTS_TREEWALKORACLE_H
#define C4CAM_TESTS_TREEWALKORACLE_H

/**
 * @file
 * The tree-walk oracle: rt::Interpreter driven over a CamDevice with
 * the accounting rules of the production plan path.
 *
 * Production executes kernels only through the compiled ExecutionPlan.
 * The differential tests and the plan-vs-tree-walk benches compare it
 * against this independent reference, bit for bit:
 *
 *  - treeWalkRun() mirrors CompiledKernel::run(): the Full phase on a
 *    fresh device (host-only kernels run without one);
 *  - TreeWalkSession mirrors ExecutionSession: SetupOnly once, then a
 *    fresh query window + QueryOnly per query. Kernels without phase
 *    markers (host-only) re-run treeWalkRun() per query and re-pay
 *    setup in the aggregate, exactly like the session fallback.
 */

#include <memory>
#include <utility>
#include <vector>

#include "core/Compiler.h"
#include "runtime/Buffer.h"
#include "runtime/Interpreter.h"
#include "sim/CamDevice.h"
#include "sim/Timing.h"

namespace c4cam::oracle {

/** One-shot tree walk of @p kernel: the reference for run(). */
inline core::ExecutionResult
treeWalkRun(const core::CompiledKernel &kernel,
            const core::CompilerOptions &options,
            const std::vector<rt::BufferPtr> &args)
{
    core::ExecutionResult result;
    if (options.hostOnly) {
        rt::Interpreter interpreter(kernel.module());
        result.outputs = interpreter.callFunction(kernel.entryPoint(),
                                                  rt::toRtValues(args));
        return result;
    }
    sim::CamDevice device(options.spec);
    device.setFusionModel(options.fusionModel);
    rt::Interpreter interpreter(kernel.module(), &device);
    result.outputs =
        interpreter.callFunction(kernel.entryPoint(), rt::toRtValues(args));
    result.perf = device.report();
    result.perf.queriesServed = 1;
    return result;
}

/** Persistent tree-walk session: the reference for ExecutionSession. */
class TreeWalkSession
{
  public:
    /** Runs the setup phase with @p setup_args. @p kernel must outlive
     *  the session. */
    TreeWalkSession(const core::CompiledKernel &kernel,
                    core::CompilerOptions options,
                    const std::vector<rt::BufferPtr> &setup_args)
        : kernel_(kernel), options_(std::move(options)),
          interpreter_(kernel.module())
    {
        persistent_ =
            !options_.hostOnly &&
            rt::Interpreter::hasPhaseMarkers(
                kernel.module().lookupFunction(kernel.entryPoint()));
        if (!persistent_)
            return;
        device_ = std::make_unique<sim::CamDevice>(options_.spec);
        device_->setFusionModel(options_.fusionModel);
        state_ = rt::ExecutionState(device_.get());
        interpreter_.callFunction(state_, kernel.entryPoint(),
                                  rt::toRtValues(setup_args),
                                  rt::Interpreter::ExecPhase::SetupOnly);
        aggregate_ = device_->report();
    }

    core::ExecutionResult
    runQuery(const std::vector<rt::BufferPtr> &args)
    {
        core::ExecutionResult result;
        ++queriesServed_;
        if (!persistent_) {
            result = treeWalkRun(kernel_, options_, args);
            aggregate_.addFullRun(result.perf);
            return result;
        }
        device_->beginQueryWindow();
        result.outputs = interpreter_.callFunction(
            state_, kernel_.entryPoint(), rt::toRtValues(args),
            rt::Interpreter::ExecPhase::QueryOnly);
        result.perf = device_->report();
        result.perf.queriesServed = 1;
        aggregate_.addQueryWindow(result.perf);
        return result;
    }

    std::vector<core::ExecutionResult>
    runBatch(const std::vector<std::vector<rt::BufferPtr>> &batches)
    {
        std::vector<core::ExecutionResult> results;
        results.reserve(batches.size());
        for (const auto &args : batches)
            results.push_back(runQuery(args));
        return results;
    }

    /** Setup once + every served query (ExecutionSession's rule). */
    sim::PerfReport
    aggregateReport() const
    {
        sim::PerfReport report = aggregate_;
        report.queriesServed = queriesServed_;
        return report;
    }

  private:
    const core::CompiledKernel &kernel_;
    core::CompilerOptions options_;
    rt::Interpreter interpreter_;
    std::unique_ptr<sim::CamDevice> device_;
    rt::ExecutionState state_;
    bool persistent_ = false;
    sim::PerfReport aggregate_;
    std::int64_t queriesServed_ = 0;
};

} // namespace c4cam::oracle

#endif // C4CAM_TESTS_TREEWALKORACLE_H
