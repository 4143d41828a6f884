#include "core/QueryBackend.h"

namespace c4cam::core {

void
ServingRecorder::record(const sim::PerfReport &perf, Clock::time_point start,
                        Clock::time_point done)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (persistent_)
        aggregate_.addQueryWindow(perf);
    else
        aggregate_.addFullRun(perf);
    ++served_;
    latenciesUs_.record(
        std::chrono::duration<double, std::micro>(done - start).count());
    if (!anyServed_ || start < firstSubmit_)
        firstSubmit_ = start;
    if (!anyServed_ || done > lastDone_)
        lastDone_ = done;
    anyServed_ = true;
}

std::int64_t
ServingRecorder::served() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
}

ServingStats
ServingRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServingStats stats;
    stats.queriesServed = served_;
    stats.aggregate = aggregate_;
    stats.aggregate.queriesServed = served_;
    if (anyServed_) {
        stats.wallSeconds =
            std::chrono::duration<double>(lastDone_ - firstSubmit_).count();
        if (stats.wallSeconds > 0.0)
            stats.qps = static_cast<double>(served_) / stats.wallSeconds;
    }
    std::vector<double> sorted = latenciesUs_.sorted();
    stats.p50LatencyUs = support::percentile(sorted, 50.0);
    stats.p95LatencyUs = support::percentile(sorted, 95.0);
    stats.planCache = PlanCache::instance().stats();
    return stats;
}

} // namespace c4cam::core
