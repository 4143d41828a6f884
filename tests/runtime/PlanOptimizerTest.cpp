/**
 * @file
 * Per-pass golden tests for rt::PlanOptimizer: each pass runs on a
 * minimal hand-written kernel with exact expected rewrite counts, and
 * the whole pipeline is locked bit-identical (outputs AND PerfReports)
 * against unoptimized plans on the tier-1 device kernels.
 */

#include <gtest/gtest.h>

#include <utility>

#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "dialects/AllDialects.h"
#include "ir/Parser.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/PlanOptimizer.h"
#include "support/Error.h"
#include "support/Rng.h"

using namespace c4cam;
using c4cam::arch::ArchSpec;
using c4cam::arch::OptTarget;

namespace {

/** Parse a hand-written module and compile its 'f' into a raw plan.
 *  Plans hold no pointers into the IR, so the module can be local. */
std::shared_ptr<const rt::ExecutionPlan>
compileText(const std::string &text)
{
    ir::Context ctx;
    dialects::loadAllDialects(ctx);
    ir::Module module = ir::parseModule(ctx, text);
    return rt::ExecutionPlan::compile(module, "f");
}

std::vector<std::vector<float>>
randomRows(std::int64_t n, std::int64_t d, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<float>> rows(
        static_cast<std::size_t>(n),
        std::vector<float>(static_cast<std::size_t>(d)));
    for (auto &row : rows)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : 0.0f;
    return rows;
}

void
expectOutputsEqual(const std::vector<rt::RtValue> &a,
                   const std::vector<rt::RtValue> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].isBuffer(), b[i].isBuffer());
        if (a[i].isBuffer()) {
            EXPECT_EQ(a[i].asBuffer()->shape(), b[i].asBuffer()->shape());
            EXPECT_EQ(a[i].asBuffer()->toVector(),
                      b[i].asBuffer()->toVector());
        }
    }
}

// A pure constant index-arithmetic chain: muli + addi + cmpi all fold,
// then the feeding constants (and the folded cmp) are dead.
const char *kConstChain =
    "\"builtin.module\"() ({\n"
    "  \"func.func\"() ({\n"
    "  ^bb0:\n"
    "    %c2 = \"arith.constant\"() {value = 2} : () -> index\n"
    "    %c3 = \"arith.constant\"() {value = 3} : () -> index\n"
    "    %c4 = \"arith.constant\"() {value = 4} : () -> index\n"
    "    %m = \"arith.muli\"(%c2, %c3) : (index, index) -> index\n"
    "    %a = \"arith.addi\"(%m, %c4) : (index, index) -> index\n"
    "    %cond = \"arith.cmpi\"(%m, %a) {predicate = \"slt\"}"
    " : (index, index) -> i1\n"
    "    \"func.return\"(%a) : (index) -> ()\n"
    "  }) {sym_name = \"f\"} : () -> ()\n"
    "}) : () -> ()\n";

// Sums one fixed row of the argument: the fully-static subview is
// loop-invariant (its only operand is the unmodified function arg).
const char *kInvariantSubviewLoop =
    "\"builtin.module\"() ({\n"
    "  \"func.func\"() ({\n"
    "  ^bb0(%buf: memref<4x8xf32>):\n"
    "    %lb = \"arith.constant\"() {value = 0} : () -> index\n"
    "    %ub = \"arith.constant\"() {value = 4} : () -> index\n"
    "    %st = \"arith.constant\"() {value = 1} : () -> index\n"
    "    %c0 = \"arith.constant\"() {value = 0} : () -> index\n"
    "    %zero = \"arith.constant\"() {value = 0.0} : () -> f32\n"
    "    %sum = \"scf.for\"(%lb, %ub, %st, %zero) ({\n"
    "    ^bb0(%iv: index, %acc: f32):\n"
    "      %row = \"memref.subview\"(%buf)"
    " {static_offsets = [1, 0], static_sizes = [1, 8]}"
    " : (memref<4x8xf32>) -> memref<1x8xf32>\n"
    "      %v = \"memref.load\"(%row, %c0, %iv)"
    " : (memref<1x8xf32>, index, index) -> f32\n"
    "      %nx = \"arith.addf\"(%acc, %v) : (f32, f32) -> f32\n"
    "      \"scf.yield\"(%nx) : (f32) -> ()\n"
    "    }) : (index, index, index, f32) -> f32\n"
    "    \"func.return\"(%sum) : (f32) -> ()\n"
    "  }) {sym_name = \"f\"} : () -> ()\n"
    "}) : () -> ()\n";

// Same loop, but the subview offset depends on the induction variable:
// hoisting it would change which row every iteration reads.
const char *kIvDependentSubviewLoop =
    "\"builtin.module\"() ({\n"
    "  \"func.func\"() ({\n"
    "  ^bb0(%buf: memref<4x8xf32>):\n"
    "    %lb = \"arith.constant\"() {value = 0} : () -> index\n"
    "    %ub = \"arith.constant\"() {value = 4} : () -> index\n"
    "    %st = \"arith.constant\"() {value = 1} : () -> index\n"
    "    %c0 = \"arith.constant\"() {value = 0} : () -> index\n"
    "    %zero = \"arith.constant\"() {value = 0.0} : () -> f32\n"
    "    %sum = \"scf.for\"(%lb, %ub, %st, %zero) ({\n"
    "    ^bb0(%iv: index, %acc: f32):\n"
    "      %row = \"memref.subview\"(%buf, %iv)"
    " {static_offsets = [-1, 0], static_sizes = [1, 8]}"
    " : (memref<4x8xf32>, index) -> memref<1x8xf32>\n"
    "      %v = \"memref.load\"(%row, %c0, %c0)"
    " : (memref<1x8xf32>, index, index) -> f32\n"
    "      %nx = \"arith.addf\"(%acc, %v) : (f32, f32) -> f32\n"
    "      \"scf.yield\"(%nx) : (f32) -> ()\n"
    "    }) : (index, index, index, f32) -> f32\n"
    "    \"func.return\"(%sum) : (f32) -> ()\n"
    "  }) {sym_name = \"f\"} : () -> ()\n"
    "}) : () -> ()\n";

// An index chain over an unknown argument: nothing folds, but the two
// adjacent (addi, muli) and (subi, addi) pairs fuse.
const char *kFusableChain =
    "\"builtin.module\"() ({\n"
    "  \"func.func\"() ({\n"
    "  ^bb0(%x: index):\n"
    "    %c1 = \"arith.constant\"() {value = 1} : () -> index\n"
    "    %c2 = \"arith.constant\"() {value = 2} : () -> index\n"
    "    %c3 = \"arith.constant\"() {value = 3} : () -> index\n"
    "    %c5 = \"arith.constant\"() {value = 5} : () -> index\n"
    "    %a = \"arith.addi\"(%x, %c1) : (index, index) -> index\n"
    "    %b = \"arith.muli\"(%a, %c2) : (index, index) -> index\n"
    "    %c = \"arith.subi\"(%b, %c3) : (index, index) -> index\n"
    "    %d = \"arith.addi\"(%c, %c5) : (index, index) -> index\n"
    "    \"func.return\"(%d) : (index) -> ()\n"
    "  }) {sym_name = \"f\"} : () -> ()\n"
    "}) : () -> ()\n";

// %a feeds both %b and the trailing subi: the (addi, muli) pair may
// chain %a into op2 but must keep storing it for the later reader.
const char *kMultiUseChain =
    "\"builtin.module\"() ({\n"
    "  \"func.func\"() ({\n"
    "  ^bb0(%x: index):\n"
    "    %c1 = \"arith.constant\"() {value = 1} : () -> index\n"
    "    %c2 = \"arith.constant\"() {value = 2} : () -> index\n"
    "    %a = \"arith.addi\"(%x, %c1) : (index, index) -> index\n"
    "    %b = \"arith.muli\"(%a, %c2) : (index, index) -> index\n"
    "    %c = \"arith.subi\"(%b, %a) : (index, index) -> index\n"
    "    \"func.return\"(%c) : (index) -> ()\n"
    "  }) {sym_name = \"f\"} : () -> ()\n"
    "}) : () -> ()\n";

rt::PlanOptOptions
onlyPass(bool fold, bool hoist, bool fuse, bool dse)
{
    rt::PlanOptOptions options;
    options.constantFolding = fold;
    options.subviewHoisting = hoist;
    options.superopFusion = fuse;
    options.deadSlotElimination = dse;
    return options;
}

} // namespace

TEST(PlanOptimizer, ConstantFoldingFoldsIndexChain)
{
    auto raw = compileText(kConstChain);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(
        *raw, onlyPass(true, false, false, false), &report);
    // muli, addi and cmpi all have constant operands.
    EXPECT_EQ(report.foldedInstructions, 3);

    rt::PlanFrame rf = raw->makeFrame();
    rt::PlanFrame of = opt->makeFrame();
    auto rout = raw->run(rf, nullptr, {});
    auto oout = opt->run(of, nullptr, {});
    ASSERT_EQ(rout.size(), 1u);
    ASSERT_EQ(oout.size(), 1u);
    EXPECT_EQ(rout[0].asInt(), 10);
    EXPECT_EQ(oout[0].asInt(), 10);
}

TEST(PlanOptimizer, DeadSlotEliminationCompactsFrame)
{
    auto raw = compileText(kConstChain);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(*raw, rt::PlanOptOptions{},
                                           &report);
    // After folding, the three feeding constants and the folded cmp
    // result are never read.
    EXPECT_GE(report.removedInstructions, 4);
    EXPECT_LT(report.slotsAfter, report.slotsBefore);
    EXPECT_LT(opt->numInstructions(rt::ExecutionPlan::ExecPhase::Full),
              raw->numInstructions(rt::ExecutionPlan::ExecPhase::Full));
    EXPECT_EQ(opt->numSlots(), report.slotsAfter);

    rt::PlanFrame of = opt->makeFrame();
    auto oout = opt->run(of, nullptr, {});
    ASSERT_EQ(oout.size(), 1u);
    EXPECT_EQ(oout[0].asInt(), 10);
}

TEST(PlanOptimizer, HoistsLoopInvariantSubview)
{
    auto raw = compileText(kInvariantSubviewLoop);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(
        *raw, onlyPass(false, true, false, false), &report);
    EXPECT_EQ(report.hoistedSubviews, 1);
    // Hoisting moves an instruction; it never adds or removes one.
    EXPECT_EQ(opt->numInstructions(rt::ExecutionPlan::ExecPhase::Full),
              raw->numInstructions(rt::ExecutionPlan::ExecPhase::Full));

    auto buf = rt::Buffer::fromMatrix(randomRows(4, 8, 7));
    auto args = rt::toRtValues({buf});
    rt::PlanFrame rf = raw->makeFrame();
    rt::PlanFrame of = opt->makeFrame();
    auto rout = raw->run(rf, nullptr, args);
    auto oout = opt->run(of, nullptr, args);
    ASSERT_EQ(rout.size(), 1u);
    ASSERT_EQ(oout.size(), 1u);
    EXPECT_EQ(rout[0].asFloat(), oout[0].asFloat());
}

TEST(PlanOptimizer, DoesNotHoistIvDependentSubview)
{
    auto raw = compileText(kIvDependentSubviewLoop);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(
        *raw, onlyPass(false, true, false, false), &report);
    EXPECT_EQ(report.hoistedSubviews, 0);

    auto buf = rt::Buffer::fromMatrix(randomRows(4, 8, 9));
    auto args = rt::toRtValues({buf});
    rt::PlanFrame rf = raw->makeFrame();
    rt::PlanFrame of = opt->makeFrame();
    expectOutputsEqual(raw->run(rf, nullptr, args),
                       opt->run(of, nullptr, args));
}

TEST(PlanOptimizer, FusesAdjacentArithPairs)
{
    auto raw = compileText(kFusableChain);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(
        *raw, onlyPass(false, false, true, false), &report);
    EXPECT_EQ(report.fusedSuperops, 2);
    EXPECT_EQ(opt->numInstructions(rt::ExecutionPlan::ExecPhase::Full) +
                  2,
              raw->numInstructions(rt::ExecutionPlan::ExecPhase::Full));

    std::vector<rt::RtValue> args = {rt::RtValue(std::int64_t(5))};
    rt::PlanFrame rf = raw->makeFrame();
    rt::PlanFrame of = opt->makeFrame();
    auto rout = raw->run(rf, nullptr, args);
    auto oout = opt->run(of, nullptr, args);
    ASSERT_EQ(rout.size(), 1u);
    ASSERT_EQ(oout.size(), 1u);
    // ((5 + 1) * 2 - 3) + 5
    EXPECT_EQ(rout[0].asInt(), 14);
    EXPECT_EQ(oout[0].asInt(), 14);
}

TEST(PlanOptimizer, ChainCollapseDropsSingleUseIntermediates)
{
    auto raw = compileText(kFusableChain);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(
        *raw, onlyPass(false, false, true, false), &report);
    // %a and %c are single-use: both fused pairs forward op1's result
    // to op2 in a register and skip the intermediate slot store.
    EXPECT_EQ(report.fusedSuperops, 2);
    EXPECT_EQ(report.collapsedWrites, 2);
    std::string dump = rt::PlanOptimizer::disassemble(*opt);
    EXPECT_NE(dump.find("chain=x"), std::string::npos);

    std::vector<rt::RtValue> args = {rt::RtValue(std::int64_t(5))};
    rt::PlanFrame of = opt->makeFrame();
    auto oout = opt->run(of, nullptr, args);
    ASSERT_EQ(oout.size(), 1u);
    EXPECT_EQ(oout[0].asInt(), 14);
}

TEST(PlanOptimizer, ChainCollapseKeepsMultiUseResultsStored)
{
    auto raw = compileText(kMultiUseChain);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(
        *raw, onlyPass(false, false, true, false), &report);
    EXPECT_EQ(report.fusedSuperops, 1);
    EXPECT_EQ(report.collapsedWrites, 0);

    std::vector<rt::RtValue> args = {rt::RtValue(std::int64_t(5))};
    rt::PlanFrame rf = raw->makeFrame();
    rt::PlanFrame of = opt->makeFrame();
    auto rout = raw->run(rf, nullptr, args);
    auto oout = opt->run(of, nullptr, args);
    ASSERT_EQ(oout.size(), 1u);
    // (5 + 1) * 2 - (5 + 1)
    EXPECT_EQ(rout[0].asInt(), 6);
    EXPECT_EQ(oout[0].asInt(), 6);
}

TEST(PlanOptimizer, DeviceKernelGrowsFusedSuperops)
{
    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.spec.camType = arch::CamDeviceType::Mcam;
    options.spec.bitsPerCell = 2;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::knnEuclideanSource(1, 16, 32, 2));
    std::shared_ptr<const rt::ExecutionPlan> raw =
        rt::ExecutionPlan::compile(std::as_const(kernel).module(),
                                   kernel.entryPoint());

    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(*raw, rt::PlanOptOptions{},
                                           &report);
    EXPECT_GT(report.fusedSuperops, 0);
    EXPECT_GT(report.foldedInstructions, 0);
    std::string dump = rt::PlanOptimizer::disassemble(*opt);
    // Every loop guard and back-edge should have fused, and the device
    // inner loop should expose the slice+search superop.
    EXPECT_NE(dump.find("FusedCmpBranch"), std::string::npos);
    EXPECT_NE(dump.find("FusedAddJump"), std::string::npos);
    EXPECT_NE(dump.find("FusedSubviewSearch"), std::string::npos);
}

TEST(PlanOptimizer, DisassembleListsPhasesAndSpecs)
{
    auto plan = compileText(kInvariantSubviewLoop);
    std::string dump = rt::PlanOptimizer::disassemble(*plan);
    EXPECT_NE(dump.find("phase full"), std::string::npos);
    EXPECT_NE(dump.find("phase setup"), std::string::npos);
    EXPECT_NE(dump.find("phase query"), std::string::npos);
    EXPECT_NE(dump.find("Subview"), std::string::npos);
    EXPECT_NE(dump.find("slices (1)"), std::string::npos);
    EXPECT_NE(dump.find("arg slots"), std::string::npos);
}

TEST(PlanOptimizer, CollectDumpsRecordsEveryPass)
{
    auto raw = compileText(kConstChain);
    rt::PlanOptOptions options;
    options.collectDumps = true;
    rt::PlanOptReport report;
    rt::PlanOptimizer::optimize(*raw, options, &report);
    ASSERT_EQ(report.passDumps.size(), 5u);
    EXPECT_EQ(report.passDumps[0].first, "input");
    EXPECT_EQ(report.passDumps[1].first, "constant-folding");
    EXPECT_EQ(report.passDumps[4].first, "dead-slot-elimination");
}

TEST(PlanOptimizer, OptimizedDeviceKernelBitIdenticalToUnoptimized)
{
    auto stored = randomRows(16, 32, 11);
    auto query = randomRows(1, 32, 13);
    std::vector<rt::BufferPtr> args = {rt::Buffer::fromMatrix(query),
                                       rt::Buffer::fromMatrix(stored)};

    core::CompilerOptions options;
    options.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    options.spec.camType = arch::CamDeviceType::Mcam;
    options.spec.bitsPerCell = 2;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(
        apps::knnEuclideanSource(1, 16, 32, 2));
    auto raw = rt::ExecutionPlan::compile(std::as_const(kernel).module(),
                                          kernel.entryPoint());

    auto oresult = kernel.run(args);
    auto rresult = core::runKernelOnce(*raw, options, args);
    expectOutputsEqual(oresult.outputs, rresult.outputs);
    EXPECT_EQ(oresult.perf.toJson().dump(2),
              rresult.perf.toJson().dump(2));
}
