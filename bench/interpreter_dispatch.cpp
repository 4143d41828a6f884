/**
 * @file
 * Host-dispatch microbench: tree-walk oracle vs execution-plan replay,
 * raw vs optimized plan.
 *
 * Two legs:
 *
 *  1. A fixed kNN kernel (64 x 512, euclidean, k=1) compared across
 *     the tree-walk oracle (tests/common/TreeWalkOracle.h), raw plan
 *     replay (rt::ExecutionPlan::compile) and optimized plan replay.
 *     This leg shows the plan-vs-tree-walk win in a real kernel, but
 *     its wall clock is dominated by the simulated CAM device, so the
 *     optimizer's host-side effect is mostly hidden here -- it is
 *     reported, not gated.
 *
 *  2. A dispatch-dominated index-arithmetic loop (the single-use
 *     temporary chains that address computations lower to), built as
 *     IR text and run through the same ExecutionPlan::compile +
 *     rt::PlanOptimizer pipeline, replayed host-only. No device, no
 *     buffers: pure interpreter overhead, which is exactly what the
 *     optimizer targets (superop fusion + chain collapse). --opt-gate X
 *     applies to THIS leg's optimized-vs-raw replay speedup: exit 1
 *     when it falls below X.
 *
 * Both legs measure interleaved (alternating back ends per repetition,
 * min across repetitions) so CPU warm-up and frequency drift cannot
 * masquerade as a back-end difference. The kNN ns/op columns divide by
 * the RAW plan's executed-instruction count: the optimizer shrinks the
 * instruction stream, so a per-own-instruction figure would hide
 * exactly the effect being measured.
 *
 *   bench_interpreter_dispatch [--queries N] [--opt-gate X]
 *                              [--json-out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "BenchUtils.h"
#include "TreeWalkOracle.h"
#include "apps/Workloads.h"
#include "core/Compiler.h"
#include "core/ExecutionSession.h"
#include "dialects/AllDialects.h"
#include "ir/Parser.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/PlanOptimizer.h"
#include "support/Rng.h"

using namespace c4cam;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The dispatch leg: a loop of single-use index-arithmetic temporaries
 *  feeding an accumulator -- the shape address computations lower to,
 *  and the best case for superop fusion + chain collapse. */
const char *const kDispatchLoopIr =
    "\"builtin.module\"() ({\n"
    "  \"func.func\"() ({\n"
    "  ^bb0:\n"
    "    %lb = \"arith.constant\"() {value = 0} : () -> index\n"
    "    %ub = \"arith.constant\"() {value = 40000} : () -> index\n"
    "    %st = \"arith.constant\"() {value = 1} : () -> index\n"
    "    %c3 = \"arith.constant\"() {value = 3} : () -> index\n"
    "    %c7 = \"arith.constant\"() {value = 7} : () -> index\n"
    "    %acc0 = \"arith.constant\"() {value = 0} : () -> index\n"
    "    %r = \"scf.for\"(%lb, %ub, %st, %acc0) ({\n"
    "    ^bb0(%iv: index, %acc: index):\n"
    "      %t1 = \"arith.muli\"(%iv, %c3) : (index, index) -> index\n"
    "      %t2 = \"arith.addi\"(%t1, %c7) : (index, index) -> index\n"
    "      %t3 = \"arith.muli\"(%t2, %c3) : (index, index) -> index\n"
    "      %t4 = \"arith.subi\"(%t3, %c7) : (index, index) -> index\n"
    "      %t5 = \"arith.addi\"(%t4, %c7) : (index, index) -> index\n"
    "      %t6 = \"arith.muli\"(%t5, %c3) : (index, index) -> index\n"
    "      %t7 = \"arith.maxsi\"(%t6, %c3) : (index, index) -> index\n"
    "      %t8 = \"arith.minsi\"(%t7, %c7) : (index, index) -> index\n"
    "      %t9 = \"arith.addi\"(%t8, %iv) : (index, index) -> index\n"
    "      %na = \"arith.addi\"(%acc, %t9) : (index, index) -> index\n"
    "      \"scf.yield\"(%na) : (index) -> ()\n"
    "    }) : (index, index, index, index) -> index\n"
    "    \"func.return\"(%r) : (index) -> ()\n"
    "  }) {sym_name = \"f\"} : () -> ()\n"
    "}) : () -> ()\n";

} // namespace

int
main(int argc, char **argv)
{
    long num_queries = 256;
    double opt_gate = 0.0; // 0 = report only, no gate
    bench::JsonOut jout;
    for (int i = 1; i < argc; ++i) {
        if (jout.tryParseArg(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
            char *end = nullptr;
            num_queries = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || num_queries < 1) {
                std::fprintf(stderr, "--queries: not a valid count: %s\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--opt-gate") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            opt_gate = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || opt_gate <= 0.0) {
                std::fprintf(stderr,
                             "--opt-gate: not a valid ratio: %s\n",
                             argv[i]);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: bench_interpreter_dispatch "
                         "[--queries N] [--opt-gate X] [--json-out FILE]\n");
            return 2;
        }
    }

    //
    // Leg 1: the kNN kernel across all three back ends.
    //
    const std::int64_t rows = 64;
    const std::int64_t dims = 512;
    arch::ArchSpec spec = arch::ArchSpec::dseSetup(16, arch::OptTarget::Base);
    spec.camType = arch::CamDeviceType::Mcam;
    spec.bitsPerCell = 2;

    Rng rng(7);
    std::vector<std::vector<float>> stored(
        static_cast<std::size_t>(rows),
        std::vector<float>(static_cast<std::size_t>(dims)));
    for (auto &row : stored)
        for (auto &v : row)
            v = rng.nextBool() ? 1.0f : 0.0f;
    rt::BufferPtr stored_buf = rt::Buffer::fromMatrix(stored);
    rt::BufferPtr query = rt::Buffer::fromMatrix({stored[3]});

    const std::string source = apps::knnEuclideanSource(1, rows, dims, 1);

    core::CompilerOptions options;
    options.spec = spec;
    core::Compiler compiler(options);
    core::CompiledKernel kernel = compiler.compileTorchScript(source);
    const ir::Module &module = std::as_const(kernel).module();

    // The raw plan: the unoptimized transcription of the module the
    // kernel replays optimized.
    std::shared_ptr<const rt::ExecutionPlan> raw_plan =
        rt::ExecutionPlan::compile(module, kernel.entryPoint());

    core::ExecutionSession opt_session =
        kernel.createSession({query, stored_buf});
    core::ExecutionSession raw_session(nullptr, module, options,
                                       kernel.entryPoint(),
                                       {query, stored_buf}, raw_plan);
    oracle::TreeWalkSession walk_session(kernel, options,
                                         {query, stored_buf});

    // Executed-instruction count of one RAW query replay: the shared
    // ns/op denominator (see the file comment). The timed loop replays
    // the QueryOnly program, so count QueryOnly instructions -- a Full
    // replay would also count the setup prologue.
    std::uint64_t ops_per_query = 0;
    {
        rt::PlanFrame probe = raw_plan->makeFrame();
        sim::CamDevice device(spec);
        std::vector<rt::RtValue> probe_args =
            rt::toRtValues({query, stored_buf});
        raw_plan->run(probe, &device, probe_args,
                      rt::ExecutionPlan::ExecPhase::SetupOnly);
        device.beginQueryWindow();
        raw_plan->run(probe, &device, probe_args,
                      rt::ExecutionPlan::ExecPhase::QueryOnly,
                      &ops_per_query);
    }

    // Warm all sessions once (first-touch allocations), then measure
    // interleaved: rotate back ends each repetition, keep the minimum
    // per-query time per back end.
    core::ExecutionResult opt_first =
        opt_session.runQuery({query, stored_buf});
    core::ExecutionResult raw_first =
        raw_session.runQuery({query, stored_buf});
    core::ExecutionResult walk_first =
        walk_session.runQuery({query, stored_buf});

    const int reps = 8;
    const long chunk = std::max(1L, num_queries / reps);
    double opt_s = 1e30;
    double raw_s = 1e30;
    double walk_s = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        Clock::time_point start = Clock::now();
        for (long q = 0; q < chunk; ++q)
            opt_session.runQuery({query, stored_buf});
        opt_s = std::min(opt_s, secondsSince(start));
        start = Clock::now();
        for (long q = 0; q < chunk; ++q)
            raw_session.runQuery({query, stored_buf});
        raw_s = std::min(raw_s, secondsSince(start));
        start = Clock::now();
        for (long q = 0; q < chunk; ++q)
            walk_session.runQuery({query, stored_buf});
        walk_s = std::min(walk_s, secondsSince(start));
    }

    double n = static_cast<double>(chunk);
    double ops = static_cast<double>(ops_per_query);
    double opt_ns_per_query = opt_s * 1e9 / n;
    double raw_ns_per_query = raw_s * 1e9 / n;
    double walk_ns_per_query = walk_s * 1e9 / n;
    double opt_ns_per_op = opt_ns_per_query / ops;
    double raw_ns_per_op = raw_ns_per_query / ops;
    double walk_ns_per_op = walk_ns_per_query / ops;
    double plan_speedup = raw_s > 0.0 ? walk_s / raw_s : 0.0;
    double knn_opt_speedup = opt_s > 0.0 ? raw_s / opt_s : 0.0;

    std::printf("Interpreter dispatch: kNN %lld x %lld, %ld queries, "
                "%llu executed raw ops/query\n",
                static_cast<long long>(rows), static_cast<long long>(dims),
                num_queries,
                static_cast<unsigned long long>(ops_per_query));
    bench::rule();
    std::printf("%-18s %14s %14s %14s\n", "", "tree-walk", "raw plan",
                "optimized plan");
    std::printf("%-18s %14.1f %14.1f %14.1f\n", "us/query",
                walk_ns_per_query * 1e-3, raw_ns_per_query * 1e-3,
                opt_ns_per_query * 1e-3);
    std::printf("%-18s %14.1f %14.1f %14.1f\n", "ns/op", walk_ns_per_op,
                raw_ns_per_op, opt_ns_per_op);
    bench::rule();
    std::printf("plan replay speedup (raw vs tree-walk): %.2fx\n",
                plan_speedup);
    std::printf("kNN optimizer speedup (device-bound):   %.2fx\n",
                knn_opt_speedup);

    // The back ends must agree exactly -- this bench is only a fair
    // comparison if the simulated work is identical.
    auto diverges = [&](const core::ExecutionResult &a,
                        const core::ExecutionResult &b) {
        return a.outputs[1].asBuffer()->toVector() !=
                   b.outputs[1].asBuffer()->toVector() ||
               a.perf.queryLatencyNs != b.perf.queryLatencyNs ||
               a.perf.queryEnergyPj != b.perf.queryEnergyPj ||
               a.perf.searches != b.perf.searches;
    };
    if (diverges(raw_first, walk_first) || diverges(opt_first, raw_first)) {
        std::fprintf(stderr,
                     "FAIL: plan replay diverges across back ends\n");
        return 1;
    }

    //
    // Leg 2: the dispatch-dominated loop, raw vs optimized replay.
    //
    ir::Context ctx;
    dialects::loadAllDialects(ctx);
    ir::Module loop_module = ir::parseModule(ctx, kDispatchLoopIr);
    std::shared_ptr<const rt::ExecutionPlan> loop_raw =
        rt::ExecutionPlan::compile(loop_module, "f");
    rt::PlanOptReport loop_report;
    std::shared_ptr<const rt::ExecutionPlan> loop_opt =
        rt::PlanOptimizer::optimize(*loop_raw, &loop_report);

    std::vector<rt::RtValue> no_args;
    std::uint64_t loop_raw_ops = 0;
    std::uint64_t loop_opt_ops = 0;
    std::int64_t loop_raw_result = 0;
    std::int64_t loop_opt_result = 0;
    {
        rt::PlanFrame f = loop_raw->makeFrame();
        loop_raw_result = loop_raw
                              ->run(f, nullptr, no_args,
                                    rt::ExecutionPlan::ExecPhase::Full,
                                    &loop_raw_ops)[0]
                              .asInt();
    }
    {
        rt::PlanFrame f = loop_opt->makeFrame();
        loop_opt_result = loop_opt
                              ->run(f, nullptr, no_args,
                                    rt::ExecutionPlan::ExecPhase::Full,
                                    &loop_opt_ops)[0]
                              .asInt();
    }
    if (loop_raw_result != loop_opt_result) {
        std::fprintf(stderr,
                     "FAIL: optimized loop replay diverges "
                     "(%lld vs %lld)\n",
                     static_cast<long long>(loop_opt_result),
                     static_cast<long long>(loop_raw_result));
        return 1;
    }

    double loop_raw_s = 1e30;
    double loop_opt_s = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        Clock::time_point start = Clock::now();
        {
            rt::PlanFrame f = loop_raw->makeFrame();
            loop_raw->run(f, nullptr, no_args);
        }
        loop_raw_s = std::min(loop_raw_s, secondsSince(start));
        start = Clock::now();
        {
            rt::PlanFrame f = loop_opt->makeFrame();
            loop_opt->run(f, nullptr, no_args);
        }
        loop_opt_s = std::min(loop_opt_s, secondsSince(start));
    }
    double loop_raw_ns_per_op =
        loop_raw_s * 1e9 / static_cast<double>(loop_raw_ops);
    double loop_opt_ns_per_op =
        loop_opt_s * 1e9 / static_cast<double>(loop_raw_ops);
    double opt_speedup = loop_opt_s > 0.0 ? loop_raw_s / loop_opt_s : 0.0;

    std::printf("\nDispatch loop: %llu raw ops -> %llu optimized "
                "(fused %d, collapsed %d)\n",
                static_cast<unsigned long long>(loop_raw_ops),
                static_cast<unsigned long long>(loop_opt_ops),
                loop_report.fusedSuperops, loop_report.collapsedWrites);
    bench::rule();
    std::printf("%-18s %14s %14s\n", "", "raw plan", "optimized plan");
    std::printf("%-18s %14.2f %14.2f\n", "ms/replay", loop_raw_s * 1e3,
                loop_opt_s * 1e3);
    std::printf("%-18s %14.1f %14.1f\n", "ns/op", loop_raw_ns_per_op,
                loop_opt_ns_per_op);
    bench::rule();
    std::printf("optimizer replay speedup (gated):       %.2fx\n",
                opt_speedup);

    jout.set("bench", std::string("interpreter_dispatch"));
    jout.set("queries", static_cast<double>(num_queries));
    jout.set("executed_ops_per_query", ops);
    jout.set("tree_walk_ns_per_op", walk_ns_per_op);
    jout.set("raw_plan_ns_per_op", raw_ns_per_op);
    jout.set("plan_ns_per_op", opt_ns_per_op);
    jout.set("tree_walk_us_per_query", walk_ns_per_query * 1e-3);
    jout.set("raw_plan_us_per_query", raw_ns_per_query * 1e-3);
    jout.set("plan_us_per_query", opt_ns_per_query * 1e-3);
    jout.set("speedup", plan_speedup);
    jout.set("knn_opt_speedup", knn_opt_speedup);
    jout.set("dispatch_raw_ops", static_cast<double>(loop_raw_ops));
    jout.set("dispatch_plan_ops", static_cast<double>(loop_opt_ops));
    jout.set("dispatch_raw_ns_per_op", loop_raw_ns_per_op);
    jout.set("dispatch_plan_ns_per_op", loop_opt_ns_per_op);
    jout.set("opt_speedup", opt_speedup);
    jout.set("opt_gate", opt_gate);
    if (!jout.write())
        return 1;

    if (opt_gate > 0.0 && opt_speedup < opt_gate) {
        std::fprintf(stderr,
                     "FAIL: optimizer replay speedup %.2fx below the "
                     "--opt-gate threshold %.2fx\n",
                     opt_speedup, opt_gate);
        return 1;
    }
    return 0;
}
