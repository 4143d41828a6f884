/**
 * @file
 * Differential tests: the bit-packed sim::CamSubarray against the AoS
 * reference model (tests/common/CamReferenceModel.h), bit for bit.
 *
 * Every search compares values (as bit patterns, so signed zeros count;
 * any NaN equals any NaN, see sameValue()), indices and matchedRows
 * over TCAM, 2-bit MCAM and ACAM (programmed through write() and
 * writeRanges()), both metrics, all three match kinds, wildcard data
 * cells, NaN / negative / out-of-range query elements, queries
 * narrower than the subarray, writes at row offsets and row windows
 * over unwritten rows.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "CamReferenceModel.h"
#include "sim/CamSubarray.h"
#include "support/Rng.h"

using namespace c4cam;
using c4cam::arch::CamDeviceType;
using c4cam::arch::SearchKind;
using c4cam::oracle::CamReferenceModel;
using c4cam::sim::CamCell;
using c4cam::sim::CamSubarray;
using c4cam::sim::SearchResult;

namespace {

enum class Programming { Values, Ranges };

struct CellConfig
{
    const char *name;
    CamDeviceType type;
    int bits;
    Programming programming;
};

const CellConfig kConfigs[] = {
    {"tcam", CamDeviceType::Tcam, 1, Programming::Values},
    {"mcam2", CamDeviceType::Mcam, 2, Programming::Values},
    {"acam-values", CamDeviceType::Acam, 2, Programming::Values},
    {"acam-ranges", CamDeviceType::Acam, 2, Programming::Ranges},
};

const int kColumnCounts[] = {1, 63, 64, 65, 130};

const float kNaN = std::numeric_limits<float>::quiet_NaN();

/** Values around every rounding threshold and clamp bound, plus the
 *  non-finite and signed-zero cases. */
const float kSpecialValues[] = {
    -std::numeric_limits<float>::infinity(),
    -7.25f,
    -1.0f,
    -0.5f,
    -0.3f,
    -0.0f,
    0.0f,
    0.49999997f,
    0.5f,
    0.50000006f,
    1.0f,
    1.4999999f,
    1.5f,
    2.0f,
    2.4999998f,
    2.5f,
    3.0f,
    3.5f,
    9.0f,
    1e30f,
    std::numeric_limits<float>::infinity(),
};

std::uint32_t
bitsOf(float v)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** A data or query element: mostly valid levels / analog values, with
 *  NaN, special and out-of-range values mixed in. */
float
randomElement(Rng &rng, const CellConfig &config, double nan_rate)
{
    if (rng.nextBool(nan_rate))
        return rng.nextBool() ? kNaN : -kNaN;
    if (rng.nextBool(0.15))
        return kSpecialValues[rng.nextBelow(std::size(kSpecialValues))];
    if (config.type == CamDeviceType::Acam) {
        // Few distinct values so exact/range matches and ties happen.
        return static_cast<float>(rng.nextBelow(9)) * 0.25f - 0.5f;
    }
    const int levels = 1 << config.bits;
    if (rng.nextBool(0.8))
        return static_cast<float>(rng.nextBelow(levels));
    return static_cast<float>(rng.nextDouble() * (levels + 3) - 2.0);
}

std::vector<std::vector<float>>
randomRows(Rng &rng, const CellConfig &config, int count, int cols)
{
    std::vector<std::vector<float>> rows(static_cast<std::size_t>(count));
    for (std::vector<float> &row : rows) {
        // Some rows cover only a prefix: the remaining columns keep
        // what an earlier write left there.
        int width = rng.nextBool(0.7)
                        ? cols
                        : static_cast<int>(rng.nextBelow(cols + 1));
        for (int c = 0; c < width; ++c)
            row.push_back(randomElement(rng, config, 0.1));
    }
    return rows;
}

std::vector<std::vector<CamCell>>
randomRanges(Rng &rng, int count, int cols)
{
    std::vector<std::vector<CamCell>> rows(static_cast<std::size_t>(count));
    for (std::vector<CamCell> &row : rows) {
        int width = rng.nextBool(0.7)
                        ? cols
                        : static_cast<int>(rng.nextBelow(cols + 1));
        for (int c = 0; c < width; ++c) {
            CamCell cell;
            cell.lo = static_cast<float>(rng.nextBelow(9)) * 0.25f - 0.5f;
            cell.hi = cell.lo + static_cast<float>(rng.nextBelow(4)) * 0.25f;
            if (rng.nextBool(0.05))
                std::swap(cell.lo, cell.hi); // empty range
            if (rng.nextBool(0.03))
                cell.lo = kNaN;
            cell.wildcard = rng.nextBool(0.1);
            row.push_back(cell);
        }
    }
    return rows;
}

/** Program the same random rows into both models. */
void
programBoth(Rng &rng, const CellConfig &config, CamSubarray &sub,
            CamReferenceModel &ref)
{
    const int rows = sub.rows();
    int offset = static_cast<int>(rng.nextBelow(rows));
    int count = 1 + static_cast<int>(rng.nextBelow(rows - offset));
    if (config.programming == Programming::Ranges) {
        auto cells = randomRanges(rng, count, sub.cols());
        sub.writeRanges(cells, offset);
        ref.writeRanges(cells, offset);
    } else {
        auto data = randomRows(rng, config, count, sub.cols());
        sub.write(data, offset);
        ref.write(data, offset);
    }
}

std::string
describe(const CellConfig &config, int cols, std::uint64_t seed,
         const std::vector<float> &query, SearchKind kind, bool euclidean,
         int row_begin, int row_end, double threshold)
{
    std::ostringstream os;
    os << config.name << " cols=" << cols << " seed=" << seed
       << " kind=" << static_cast<int>(kind)
       << (euclidean ? " euclidean" : " hamming") << " rows=[" << row_begin
       << ", " << row_end << ") threshold=" << threshold
       << " query.size=" << query.size();
    return os.str();
}

/**
 * Bit-identical floats. NaNs form one class: when a sum meets two NaNs
 * (say a -NaN query element and an inf - inf cell term), x86 returns
 * the first operand, and the compiler may commute an addition, so the
 * surviving sign/payload is a property of the build, not of the model.
 */
bool
sameValue(float a, float b)
{
    return bitsOf(a) == bitsOf(b) || (std::isnan(a) && std::isnan(b));
}

/** Values (see sameValue()), indices and matched rows exactly. */
::testing::AssertionResult
sameResult(const SearchResult &got, const SearchResult &want)
{
    if (got.values.size() != want.values.size())
        return ::testing::AssertionFailure()
               << "values.size " << got.values.size() << " vs "
               << want.values.size();
    for (std::size_t i = 0; i < got.values.size(); ++i)
        if (!sameValue(got.values[i], want.values[i]))
            return ::testing::AssertionFailure()
                   << "values[" << i << "] " << got.values[i] << " vs "
                   << want.values[i];
    if (got.indices != want.indices)
        return ::testing::AssertionFailure() << "indices differ";
    if (got.matchedRows != want.matchedRows)
        return ::testing::AssertionFailure() << "matchedRows differ";
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(CamSubarrayDifferential, SeededSweepMatchesReferenceBitForBit)
{
    const SearchKind kinds[] = {SearchKind::Exact, SearchKind::Best,
                                SearchKind::Range};
    std::size_t searches = 0;
    for (const CellConfig &config : kConfigs) {
        for (int cols : kColumnCounts) {
            for (std::uint64_t seed = 1; seed <= 12; ++seed) {
                Rng rng(seed * 7919 + static_cast<std::uint64_t>(cols));
                const int rows = 1 + static_cast<int>(rng.nextBelow(10));
                CamSubarray sub(rows, cols, config.type, config.bits);
                CamReferenceModel ref(rows, cols, config.type, config.bits);
                SearchResult reused; // searchInto target across queries
                for (int round = 0; round < 3; ++round) {
                    programBoth(rng, config, sub, ref);
                    for (int q = 0; q < 12; ++q) {
                        int width = rng.nextBool(0.6)
                                        ? cols
                                        : static_cast<int>(
                                              rng.nextBelow(cols + 1));
                        double nan_rate = rng.nextBool(0.25) ? 0.05 : 0.0;
                        std::vector<float> query;
                        for (int c = 0; c < width; ++c)
                            query.push_back(
                                randomElement(rng, config, nan_rate));
                        SearchKind kind = kinds[rng.nextBelow(3)];
                        bool euclidean = rng.nextBool();
                        int row_begin =
                            static_cast<int>(rng.nextBelow(rows + 1));
                        int row_end =
                            row_begin + static_cast<int>(rng.nextBelow(
                                            rows - row_begin + 1));
                        if (rng.nextBool(0.4)) {
                            row_begin = 0;
                            row_end = rows;
                        }
                        double threshold =
                            static_cast<double>(rng.nextBelow(4 * cols)) *
                            0.5;
                        SCOPED_TRACE(describe(config, cols, seed, query,
                                              kind, euclidean, row_begin,
                                              row_end, threshold));
                        SearchResult want =
                            ref.search(query, kind, euclidean, row_begin,
                                       row_end, threshold);
                        ASSERT_TRUE(sameResult(
                            sub.search(query, kind, euclidean, row_begin,
                                       row_end, threshold),
                            want));
                        sub.searchInto(query, kind, euclidean, row_begin,
                                       row_end, threshold, reused);
                        ASSERT_TRUE(sameResult(reused, want));
                        ++searches;
                    }
                }
            }
        }
    }
    EXPECT_EQ(searches, std::size(kConfigs) * std::size(kColumnCounts) *
                            12u * 3u * 12u);
}

TEST(CamSubarrayDifferential, QuantizationBoundariesMatchReference)
{
    // Every stored level against every special query value, alone and
    // next to a NaN element (which takes the scalar path).
    for (const CellConfig &config : kConfigs) {
        if (config.programming == Programming::Ranges)
            continue;
        const int cols = 2;
        const int rows = static_cast<int>(std::size(kSpecialValues));
        CamSubarray sub(rows, cols, config.type, config.bits);
        CamReferenceModel ref(rows, cols, config.type, config.bits);
        std::vector<std::vector<float>> data;
        for (float v : kSpecialValues)
            data.push_back({v, v});
        sub.write(data, 0);
        ref.write(data, 0);
        for (float v : kSpecialValues) {
            for (float second : {v, kNaN}) {
                std::vector<float> query = {v, second};
                for (bool euclidean : {false, true}) {
                    for (SearchKind kind :
                         {SearchKind::Exact, SearchKind::Best}) {
                        SCOPED_TRACE(describe(config, cols, 0, query, kind,
                                              euclidean, 0, rows, 0.0));
                        EXPECT_TRUE(sameResult(
                            sub.search(query, kind, euclidean, 0, rows),
                            ref.search(query, kind, euclidean, 0, rows)));
                    }
                }
            }
        }
    }
}

TEST(CamSubarrayDifferential, RewritesReplaceCellsLikeTheReference)
{
    // Overwrite cells with values, wildcards and shorter rows; the
    // packed planes must track every transition.
    const CellConfig &config = kConfigs[1]; // 2-bit MCAM
    CamSubarray sub(3, 65, config.type, config.bits);
    CamReferenceModel ref(3, 65, config.type, config.bits);
    Rng rng(42);
    for (int round = 0; round < 40; ++round) {
        auto data = randomRows(rng, config, 3, 65);
        sub.write(data, 0);
        ref.write(data, 0);
        std::vector<float> query;
        for (int c = 0; c < 65; ++c)
            query.push_back(randomElement(rng, config, 0.0));
        for (bool euclidean : {false, true})
            ASSERT_TRUE(sameResult(
                sub.search(query, SearchKind::Best, euclidean, 0, 3),
                ref.search(query, SearchKind::Best, euclidean, 0, 3)))
                << "round " << round;
    }
}
