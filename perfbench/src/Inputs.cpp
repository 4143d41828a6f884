#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include <sys/resource.h>

#include "Bench.h"
#include "apps/Workloads.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "support/Stats.h"

namespace c4cam::perfbench {

namespace {

/** Stream-separated generator: the same seed never shares draws
 *  between the stored data and the queries. */
Rng
streamRng(std::uint64_t seed, std::uint64_t stream)
{
    return Rng(seed * 0x9e3779b97f4a7c15ull + stream);
}

/**
 * Fill @p data: stored rows from @p value(rng), then @p pool queries,
 * each a random stored row with a seeded share (5%..35%) of its
 * elements replaced by @p flip(old value).
 */
template <typename ValueFn, typename FlipFn>
void
fillRowsAndQueries(Dataset &data, std::uint64_t seed, int rows, int dims,
                   int pool, ValueFn value, FlipFn flip)
{
    Rng rng = streamRng(seed, 1);
    data.stored.assign(rows, std::vector<float>(dims));
    for (auto &row : data.stored)
        for (float &v : row)
            v = value(rng);

    Rng qrng = streamRng(seed, 2);
    for (int q = 0; q < pool; ++q) {
        std::vector<float> query =
            data.stored[qrng.nextBelow(static_cast<std::uint64_t>(rows))];
        double share = 0.05 + 0.30 * qrng.nextDouble();
        for (float &v : query)
            if (qrng.nextBool(share))
                v = flip(v);
        data.queries.push_back(std::move(query));
    }

    data.storedBuf = rt::Buffer::fromMatrix(data.stored);
    for (const auto &query : data.queries) {
        data.queryBufs.push_back(rt::Buffer::fromMatrix({query}));
        data.expected.push_back(
            referenceTop1(data.stored, query, data.euclidean));
    }
}

} // namespace

Dataset
makeHdc(std::uint64_t seed, int rows, int dims, int pool,
        const arch::ArchSpec &spec)
{
    Dataset data;
    data.source = apps::dotSimilaritySource(1, rows, dims, 1);
    data.spec = spec;
    data.euclidean = false;
    fillRowsAndQueries(
        data, seed, rows, dims, pool,
        [](Rng &rng) { return rng.nextBool() ? 1.0f : -1.0f; },
        [](float v) { return -v; });
    return data;
}

Dataset
makeKnn(std::uint64_t seed, int rows, int dims, int pool,
        const arch::ArchSpec &spec)
{
    Dataset data;
    data.source = apps::knnEuclideanSource(1, rows, dims, 1);
    data.spec = spec;
    data.euclidean = true;
    fillRowsAndQueries(
        data, seed, rows, dims, pool,
        [](Rng &rng) { return rng.nextBool() ? 1.0f : 0.0f; },
        [](float v) { return 1.0f - v; });
    return data;
}

std::int64_t
referenceTop1(const std::vector<std::vector<float>> &stored,
              const std::vector<float> &query, bool euclidean)
{
    std::int64_t best = -1;
    double best_score = 0.0;
    for (std::size_t r = 0; r < stored.size(); ++r) {
        double score = 0.0;
        for (std::size_t c = 0; c < query.size(); ++c) {
            double a = stored[r][c];
            double b = query[c];
            score += euclidean ? (a - b) * (a - b) : a * b;
        }
        // Strict comparison: on a tie the lower index stays.
        bool better = euclidean ? score < best_score : score > best_score;
        if (best < 0 || better) {
            best = static_cast<std::int64_t>(r);
            best_score = score;
        }
    }
    return best;
}

double
percentileOf(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return support::percentile(values, p);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::int64_t
top1Of(const std::vector<rt::RtValue> &outputs)
{
    C4CAM_CHECK(outputs.size() == 2, "kernel returned " << outputs.size()
                                         << " outputs, want 2");
    return outputs[1].asBuffer()->atInt({0, 0});
}

bool
sameReport(const sim::PerfReport &a, const sim::PerfReport &b)
{
    return a.setupLatencyNs == b.setupLatencyNs &&
           a.setupEnergyPj == b.setupEnergyPj &&
           a.queryLatencyNs == b.queryLatencyNs &&
           a.queryEnergyPj == b.queryEnergyPj &&
           a.cellEnergyPj == b.cellEnergyPj &&
           a.senseEnergyPj == b.senseEnergyPj &&
           a.driveEnergyPj == b.driveEnergyPj &&
           a.mergeEnergyPj == b.mergeEnergyPj && a.searches == b.searches &&
           a.writes == b.writes && a.subarraysUsed == b.subarraysUsed &&
           a.banksUsed == b.banksUsed &&
           a.subarraysAllocated == b.subarraysAllocated &&
           a.queriesServed == b.queriesServed &&
           a.coverage == b.coverage && a.fusedBatchK == b.fusedBatchK;
}

int
servingReplicas()
{
    int cores = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, cores - 1);
}

} // namespace c4cam::perfbench
