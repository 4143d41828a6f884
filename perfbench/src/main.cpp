/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--source-id ID]
 *
 * Workloads: hdc-batch, knn-dispatch, bursty-open, dse-sweep (see
 * perfbench/METRICS.md). With --trace 0 the run measures the
 * end-to-end metrics; with --trace 1 it measures the per-layer metrics
 * and writes a c4cam-trace-v1 span document to --trace-out. Human
 * readable report lines come first; the last line of standard output
 * is one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Exit code 0 on a completed run (correct or not), 1 on an error, 2 on
 * bad usage.
 */

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "Bench.h"
#include "core/DseExplorer.h"
#include "support/CliParse.h"

using namespace c4cam;
using namespace c4cam::perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "hdc-batch|knn-dispatch|bursty-open|dse-sweep --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--source-id ID]\n");
    return 2;
}

bool
parseOptions(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        long long n = 0;
        double d = 0.0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            if (!support::parseInt(value, n) || n < 0)
                return false;
            options.seed = static_cast<std::uint64_t>(n);
        } else if (arg == "--seconds") {
            if (!support::parseDouble(value, d) || !(d > 0.0))
                return false;
            options.seconds = d;
        } else if (arg == "--trace") {
            if (!support::parseInt(value, n) || (n != 0 && n != 1))
                return false;
            options.trace = n == 1;
        } else if (arg == "--trace-out") {
            options.traceOut = value;
        } else if (arg == "--source-id") {
            options.sourceId = value;
        } else {
            return false;
        }
    }
    return !options.workload.empty();
}

/** The final JSON line; numbers keep every digit. */
void
printResult(const Result &result)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                result.correct && result.failed == 0 ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseOptions(argc, argv, options))
        return usage();

    const std::string &w = options.workload;
    const arch::OptTarget base = arch::OptTarget::Base;
    Dataset data;
    std::vector<arch::ArchSpec> specs;
    if (w == "hdc-batch" || w == "bursty-open") {
        data = makeHdc(options.seed, 128, 1024, 64,
                       arch::ArchSpec::dseSetup(32, base));
    } else if (w == "knn-dispatch") {
        data = makeKnn(options.seed, 96, 768, 64,
                       arch::ArchSpec::dseSetup(16, base));
    } else if (w == "dse-sweep") {
        specs = core::DseExplorer::standardCandidates();
        data = makeHdc(options.seed, 10, 8192, 64, specs.front());
    } else {
        return usage();
    }
    if (specs.empty())
        specs.push_back(data.spec);

    std::printf("perfbench %s (seed %llu, %.3g s, trace %d)\n", w.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("  stamp: source %s, build %s, compiler %s, nproc %u, "
                "seed %llu\n",
                options.sourceId.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(options.seed));
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        std::printf("  WARNING: non-Release build; host timings are not "
                    "comparable\n");
    std::fflush(stdout);

    try {
        Result result;
        if (options.trace)
            result = runLayers(w, data, specs, options);
        else if (w == "hdc-batch" || w == "knn-dispatch")
            result = runClosedLoop(data, options);
        else if (w == "bursty-open")
            result = runBurstyOpen(data, options);
        else
            result = runDseSweep(data, options);
        printResult(result);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
    return 0;
}
