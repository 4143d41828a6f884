#ifndef C4CAM_RUNTIME_PLANOPTIMIZER_H
#define C4CAM_RUNTIME_PLANOPTIMIZER_H

/**
 * @file
 * Superop fusion over ExecutionPlan bytecode.
 *
 * A raw plan is a 1:1 transcription of the lowered IR: every loop
 * iteration replays the full index-arithmetic chain, loop guard,
 * staged yield copies and per-op dispatch that the IR spelled out.
 * Constant folding and dead-op removal already happen on the IR
 * (passes/Canonicalize); the plan optimizer only does what the IR
 * cannot express, once, at compile time, without changing observable
 * behavior -- outputs AND simulated PerfReports stay bit-identical to
 * the unoptimized plan and the tree-walk oracle (device ops, timing
 * scopes and cost-posting ops are never touched, reordered or
 * eliminated). Every production plan runs it (core::compilePlan).
 *
 * Superop fusion: adjacent hot pairs collapse into one dispatch --
 * compare+branch (every loop guard), add+jump (every back-edge),
 * slice+search (the device inner loop), int/float arithmetic pairs
 * (index chains) and staged copy pairs (loop yields). A chain-collapse
 * step then forwards op1's result to op2 in a register and, when no
 * other instruction in the whole plan reads it, drops the intermediate
 * slot write (r = -1) -- single-use index temporaries stop touching
 * the frame at all.
 *
 * optimize() returns a NEW plan; the input is never mutated, so a raw
 * rt::ExecutionPlan::compile() result stays available for differential
 * testing (DifferentialFuzzTest runs optimized vs raw vs the tree-walk
 * oracle).
 */

#include <memory>
#include <string>

namespace c4cam::rt {

class ExecutionPlan;

/** What the optimizer did, for tests and benches. */
struct PlanOptReport
{
    int fusedSuperops = 0;   ///< instruction pairs collapsed
    int collapsedWrites = 0; ///< chain-internal result writes dropped
};

class PlanOptimizer
{
  public:
    /** Fuse superops in a copy of @p plan. */
    static std::shared_ptr<const ExecutionPlan>
    optimize(const ExecutionPlan &plan, PlanOptReport *report = nullptr);

    /** Human-readable listing of all three phase programs, the frame
     *  layout and the decoded aux tables (c4cam-run --dump-plan). */
    static std::string disassemble(const ExecutionPlan &plan);

  private:
    /** Fuses @p plan in place, counting into @p report. */
    static void runSuperopFusion(ExecutionPlan &plan, PlanOptReport &report);
};

} // namespace c4cam::rt

#endif // C4CAM_RUNTIME_PLANOPTIMIZER_H
