#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>

#include "Bench.h"
#include "core/AsyncServingEngine.h"
#include "support/Rng.h"

namespace c4cam::perfbench {

core::AsyncServingOptions
burstyServingOptions()
{
    core::AsyncServingOptions options;
    // Block policy, fused windows of up to 8 once 2 queries wait (the
    // engine defaults); the queue holds a whole 100-arrival burst.
    options.queueCapacity = 256;
    options.policy = support::OverflowPolicy::Block;
    options.fuseMaxK = 8;
    options.fuseMinDepth = 2;
    return options;
}

std::vector<Arrival>
burstSchedule(std::uint64_t seed, int bursts, std::size_t pool)
{
    Rng rng(seed * 0xbf58476d1ce4e5b9ull + 3);
    std::vector<Arrival> schedule;
    for (int b = 0; b < bursts; ++b) {
        double t = b * 100000.0 + 2000.0 * rng.nextDouble();
        for (int k = 0; k < 100; ++k) {
            schedule.push_back({t, rng.nextBelow(pool), b});
            t += 100.0 + 200.0 * rng.nextDouble();
        }
    }
    return schedule;
}

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double rate, double seconds,
                std::size_t pool, int group)
{
    Rng rng(seed * 0x94d049bb133111ebull + 5);
    std::vector<Arrival> schedule;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.nextDouble()) / rate * 1e6;
        if (t >= seconds * 1e6)
            break;
        schedule.push_back({t, rng.nextBelow(pool), group});
    }
    return schedule;
}

std::int64_t
OpenLoopRun::failed() const
{
    std::int64_t n = 0;
    for (char served : ok)
        n += served ? 0 : 1;
    return n;
}

double
OpenLoopRun::latencyMs(std::size_t i) const
{
    return (doneUs[i] - dueUs[i]) / 1000.0;
}

std::vector<double>
OpenLoopRun::lateMs() const
{
    std::vector<double> late;
    for (std::size_t i = 0; i < dueUs.size(); ++i)
        late.push_back((sentUs[i] - dueUs[i]) / 1000.0);
    return late;
}

std::vector<Burst>
splitBursts(const std::vector<Arrival> &schedule, const OpenLoopRun &run)
{
    std::vector<Burst> bursts;
    for (std::size_t i = 0; i < schedule.size();) {
        Burst burst;
        double last_done = run.dueUs[i];
        std::size_t j = i;
        for (; j < schedule.size() && schedule[j].group == schedule[i].group;
             ++j) {
            if (!run.ok[j])
                continue;
            last_done = std::max(last_done, run.doneUs[j]);
            burst.latencyMs.push_back(run.latencyMs(j));
        }
        burst.busySeconds = (last_done - run.dueUs[i]) * 1e-6;
        bursts.push_back(std::move(burst));
        i = j;
    }
    return bursts;
}

OpenLoopRun
serveOpenLoop(core::AsyncServingEngine &engine, const Dataset &data,
              const std::vector<Arrival> &schedule,
              const std::vector<sim::PerfReport> &serial_reports)
{
    const std::size_t n = schedule.size();
    OpenLoopRun run;
    run.dueUs.resize(n);
    run.sentUs.resize(n);
    run.doneUs.assign(n, std::numeric_limits<double>::quiet_NaN());
    run.ok.assign(n, 0);

    // Each completion writes only its own slot; drain() orders those
    // writes before the reads below.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
        const Arrival &arrival = schedule[i];
        run.dueUs[i] = arrival.dueUs;
        Clock::time_point due =
            start + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(arrival.dueUs * 1000.0));
        // Sleep, never spin: a spinning injector competes with the
        // replicas for the cores and the scheduler then preempts it for
        // whole time slices.
        std::this_thread::sleep_until(due);
        run.sentUs[i] = usBetween(start, Clock::now());

        std::size_t q = arrival.query;
        engine.trySubmit(
            data.args(q),
            [&run, &data, &serial_reports, start, i,
             q](core::ExecutionResult result, std::exception_ptr error) {
                run.doneUs[i] = usBetween(start, Clock::now());
                if (error)
                    return;
                try {
                    run.ok[i] =
                        top1Of(result.outputs) == data.answer(q) &&
                        sameReport(result.perf,
                                   serial_reports[q % serial_reports.size()]);
                } catch (const std::exception &) {
                    run.ok[i] = 0;
                }
            });
    }
    engine.drain();
    return run;
}

} // namespace c4cam::perfbench
