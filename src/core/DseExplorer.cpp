#include "core/DseExplorer.h"

#include <algorithm>
#include <future>
#include <sstream>

#include "support/Error.h"
#include "support/ThreadPool.h"

namespace c4cam::core {

std::vector<DsePoint>
DseResult::frontier() const
{
    std::vector<DsePoint> out;
    for (const DsePoint &p : points)
        if (p.paretoOptimal)
            out.push_back(p);
    std::sort(out.begin(), out.end(),
              [](const DsePoint &a, const DsePoint &b) {
                  return a.latencyNs() < b.latencyNs();
              });
    return out;
}

const DsePoint &
DseResult::bestLatency() const
{
    C4CAM_CHECK(!points.empty(), "empty DSE result");
    return *std::min_element(points.begin(), points.end(),
                             [](const DsePoint &a, const DsePoint &b) {
                                 return a.latencyNs() < b.latencyNs();
                             });
}

const DsePoint &
DseResult::bestPower() const
{
    C4CAM_CHECK(!points.empty(), "empty DSE result");
    return *std::min_element(points.begin(), points.end(),
                             [](const DsePoint &a, const DsePoint &b) {
                                 return a.powerMw() < b.powerMw();
                             });
}

const DsePoint &
DseResult::bestEdp() const
{
    C4CAM_CHECK(!points.empty(), "empty DSE result");
    return *std::min_element(
        points.begin(), points.end(),
        [](const DsePoint &a, const DsePoint &b) {
            return a.perf.edpNanoJouleSeconds() <
                   b.perf.edpNanoJouleSeconds();
        });
}

std::string
DseResult::table() const
{
    std::ostringstream oss;
    char line[160];
    std::snprintf(line, sizeof(line), "%-8s %-16s %12s %12s %12s %8s\n",
                  "size", "target", "latency(ns)", "power(mW)",
                  "energy(pJ)", "pareto");
    oss << line;
    for (const DsePoint &p : points) {
        std::snprintf(line, sizeof(line),
                      "%3dx%-4d %-16s %12.2f %12.3f %12.1f %8s\n",
                      p.spec.rows, p.spec.cols,
                      arch::toString(p.spec.target), p.latencyNs(),
                      p.powerMw(), p.energyPj(),
                      p.paretoOptimal ? "*" : "");
        oss << line;
    }
    return oss.str();
}

std::vector<arch::ArchSpec>
DseExplorer::standardCandidates()
{
    std::vector<arch::ArchSpec> specs;
    for (int n : {16, 32, 64, 128, 256})
        for (arch::OptTarget target :
             {arch::OptTarget::Base, arch::OptTarget::Density,
              arch::OptTarget::Power, arch::OptTarget::PowerDensity})
            specs.push_back(arch::ArchSpec::dseSetup(n, target));
    return specs;
}

namespace {

/**
 * Compile + execute one candidate on fresh, task-local state. The
 * kernel's execution plan is compiled alongside it (through the
 * process-wide PlanCache) and run() replays it.
 */
DsePoint
evaluateCandidate(const std::string &source, const arch::ArchSpec &spec,
                  const std::vector<rt::BufferPtr> &args)
{
    CompilerOptions options;
    options.spec = spec;
    Compiler compiler(options);
    CompiledKernel kernel = compiler.compileTorchScript(source);
    ExecutionResult run = kernel.run(args);
    DsePoint point;
    point.spec = spec;
    point.perf = run.perf;
    return point;
}

} // namespace

DseResult
DseExplorer::explore(const std::string &source,
                     const std::vector<arch::ArchSpec> &candidates,
                     const std::vector<rt::BufferPtr> &args,
                     int threads) const
{
    C4CAM_CHECK(!candidates.empty(), "DSE sweep needs candidates");
    C4CAM_CHECK(threads >= 0, "DSE thread count must be >= 0");
    DseResult result;
    result.points.resize(candidates.size());
    if (threads == 1) {
        for (std::size_t i = 0; i < candidates.size(); ++i)
            result.points[i] =
                evaluateCandidate(source, candidates[i], args);
    } else {
        // One candidate per pool task; every task owns its context,
        // module and device, so the only shared data (source, args) is
        // read-only. Futures land by index: same order as serial.
        support::ThreadPool pool(static_cast<std::size_t>(threads));
        std::vector<std::future<DsePoint>> futures;
        futures.reserve(candidates.size());
        for (const arch::ArchSpec &spec : candidates)
            futures.push_back(pool.submit([&source, &spec, &args] {
                return evaluateCandidate(source, spec, args);
            }));
        for (std::size_t i = 0; i < futures.size(); ++i)
            result.points[i] = futures[i].get();
    }

    // Latency/power Pareto labeling: a point is dominated when some
    // other point is at least as good on both axes and better on one.
    for (DsePoint &p : result.points) {
        bool dominated = false;
        for (const DsePoint &q : result.points) {
            if (&p == &q)
                continue;
            bool no_worse = q.latencyNs() <= p.latencyNs() &&
                            q.powerMw() <= p.powerMw();
            bool better = q.latencyNs() < p.latencyNs() ||
                          q.powerMw() < p.powerMw();
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        p.paretoOptimal = !dominated;
    }
    return result;
}

} // namespace c4cam::core
