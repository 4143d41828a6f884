/**
 * @file
 * Golden tests for rt::PlanOptimizer: superop fusion and chain
 * collapse run on minimal hand-written kernels with exact expected
 * rewrite counts, and the optimized plan is locked bit-identical
 * (outputs AND PerfReports) against the unoptimized plan on a tier-1
 * device kernel.
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

// Sums one fixed row of the argument through a fully-static subview.
const char *kSubviewLoop =
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

// An index chain over an unknown argument: the two adjacent
// (addi, muli) and (subi, addi) pairs fuse.
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

} // namespace

TEST(PlanOptimizer, FusesAdjacentArithPairs)
{
    auto raw = compileText(kFusableChain);
    rt::PlanOptReport report;
    auto opt = rt::PlanOptimizer::optimize(*raw, &report);
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
    auto opt = rt::PlanOptimizer::optimize(*raw, &report);
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
    auto opt = rt::PlanOptimizer::optimize(*raw, &report);
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
    core::CompilerOptions mcam;
    mcam.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    mcam.spec.camType = arch::CamDeviceType::Mcam;
    mcam.spec.bitsPerCell = 2;
    core::CompilerOptions tcam;
    tcam.spec = ArchSpec::dseSetup(32, OptTarget::Base);
    // The 2-bit kNN kernel and the HDC dot top-1 kernel that the
    // hdc-batch benchmark serves.
    const std::pair<core::CompilerOptions, std::string> kernels[] = {
        {mcam, apps::knnEuclideanSource(1, 16, 32, 2)},
        {tcam, apps::dotSimilaritySource(1, 128, 1024, 1)},
    };
    for (const auto &[options, source] : kernels) {
        core::Compiler compiler(options);
        core::CompiledKernel kernel = compiler.compileTorchScript(source);
        std::shared_ptr<const rt::ExecutionPlan> raw =
            rt::ExecutionPlan::compile(std::as_const(kernel).module(),
                                       kernel.entryPoint());

        rt::PlanOptReport report;
        auto opt = rt::PlanOptimizer::optimize(*raw, &report);
        EXPECT_GT(report.fusedSuperops, 0);
        std::string dump = rt::PlanOptimizer::disassemble(*opt);
        // Every loop guard and back-edge should have fused, and the
        // device inner loop should expose the slice+search superop.
        EXPECT_NE(dump.find("FusedCmpBranch"), std::string::npos);
        EXPECT_NE(dump.find("FusedAddJump"), std::string::npos);
        EXPECT_NE(dump.find("FusedSubviewSearch"), std::string::npos);
    }
}

TEST(PlanOptimizer, DisassembleListsPhasesAndSpecs)
{
    auto plan = compileText(kSubviewLoop);
    std::string dump = rt::PlanOptimizer::disassemble(*plan);
    EXPECT_NE(dump.find("phase full"), std::string::npos);
    EXPECT_NE(dump.find("phase setup"), std::string::npos);
    EXPECT_NE(dump.find("phase query"), std::string::npos);
    EXPECT_NE(dump.find("Subview"), std::string::npos);
    EXPECT_NE(dump.find("slices (1)"), std::string::npos);
    EXPECT_NE(dump.find("arg slots"), std::string::npos);
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
