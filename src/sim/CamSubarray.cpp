#include "sim/CamSubarray.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/Error.h"

namespace c4cam::sim {

namespace {

constexpr int kWordBits = 64;

/** Per-thread search scratch, so concurrent replicas never share it
 *  and steady-state searches allocate nothing. */
struct SearchScratch
{
    /** Quantized query (digital scalar path). */
    std::vector<float> quantized;
    /** [column mask, query level bit][word] (1-bit cells only). */
    std::vector<std::uint64_t> queryPlanes;
};

SearchScratch &
searchScratch()
{
    thread_local SearchScratch scratch;
    return scratch;
}

inline std::uint64_t
bitOf(int c)
{
    return std::uint64_t{1} << (c % kWordBits);
}

/** Population count as an inline SWAR sum. The x86-64 baseline ISA
 *  has no popcount instruction, so std::popcount becomes an
 *  out-of-line libgcc call that costs about 3x this. */
inline int
popcount64(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

} // namespace

CamSubarray::CamSubarray(int rows, int cols, arch::CamDeviceType type,
                         int bits_per_cell)
    : rows_(rows), cols_(cols), type_(type), bits_(bits_per_cell),
      words_((cols + kWordBits - 1) / kWordBits),
      rowStride_(static_cast<std::size_t>(words_) *
                 static_cast<std::size_t>(analog() ? 1 : 1 + bits_))
{
    C4CAM_CHECK(rows > 0 && cols > 0, "subarray dims must be positive");
    C4CAM_CHECK(analog() || bits_ == 1 || bits_ == 2,
                "digital CAM cells store 1 or 2 bits, got " << bits_);
}

float
CamSubarray::quantize(float v) const
{
    if (analog())
        return v; // analog cells store continuous levels
    int levels = 1 << bits_;
    float q = std::round(v);
    q = std::clamp(q, 0.0f, float(levels - 1));
    return q;
}

void
CamSubarray::growRows(int rows)
{
    if (rows <= writtenRows_)
        return;
    writtenRows_ = rows;
    planes_.resize(static_cast<std::size_t>(rows) * rowStride_, 0);
    if (analog()) {
        std::size_t cells = static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(cols_);
        lo_.resize(cells, 0.0f);
        hi_.resize(cells, 0.0f);
    }
}

int
CamSubarray::levelOf(float v) const
{
    int level = 0;
    for (int t = 1; t < (1 << bits_); ++t)
        level += v >= static_cast<float>(t) - 0.5f;
    return level;
}

void
CamSubarray::setRange(int r, int c, bool care, float lo, float hi)
{
    std::uint64_t &word = rowPlanes(r)[c / kWordBits];
    word = care ? word | bitOf(c) : word & ~bitOf(c);
    std::size_t at = static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(c);
    lo_[at] = lo;
    hi_[at] = hi;
}

void
CamSubarray::write(const std::vector<std::vector<float>> &data,
                   int row_offset)
{
    C4CAM_CHECK(row_offset >= 0 &&
                    row_offset + static_cast<int>(data.size()) <= rows_,
                "write exceeds subarray rows: offset " << row_offset
                << " + " << data.size() << " > " << rows_);
    for (const std::vector<float> &row : data)
        C4CAM_CHECK(static_cast<int>(row.size()) <= cols_,
                    "write exceeds subarray columns: " << row.size()
                    << " > " << cols_);
    growRows(row_offset + static_cast<int>(data.size()));
    for (std::size_t r = 0; r < data.size(); ++r) {
        const int row = row_offset + static_cast<int>(r);
        const std::vector<float> &values = data[r];
        const int width = static_cast<int>(values.size());
        if (analog()) {
            for (int c = 0; c < width; ++c) {
                float v = values[static_cast<std::size_t>(c)];
                setRange(row, c, !std::isnan(v), v, v);
            }
            continue;
        }
        // Digital: assemble each word's care and level bits, then
        // splice them over the columns this row covers. Level bits
        // stay zero under a wildcard.
        std::uint64_t *planes = rowPlanes(row);
        for (int w = 0; w * kWordBits < width; ++w) {
            std::uint64_t covered = 0;
            std::uint64_t bits[3] = {0, 0, 0}; // care, level bit 0, 1
            for (int c = w * kWordBits;
                 c < std::min(width, (w + 1) * kWordBits); ++c) {
                covered |= bitOf(c);
                float v = values[static_cast<std::size_t>(c)];
                if (std::isnan(v))
                    continue;
                const int level = levelOf(v);
                bits[0] |= bitOf(c);
                for (int b = 0; b < bits_; ++b)
                    if ((level >> b) & 1)
                        bits[1 + b] |= bitOf(c);
            }
            for (int p = 0; p <= bits_; ++p) {
                std::uint64_t &word = planes[p * words_ + w];
                word = (word & ~covered) | bits[p];
            }
        }
    }
}

void
CamSubarray::writeRanges(const std::vector<std::vector<CamCell>> &cells,
                         int row_offset)
{
    C4CAM_CHECK(analog(), "range programming requires an ACAM device");
    C4CAM_CHECK(row_offset >= 0 &&
                    row_offset + static_cast<int>(cells.size()) <= rows_,
                "writeRanges exceeds subarray rows");
    for (const std::vector<CamCell> &row : cells)
        C4CAM_CHECK(static_cast<int>(row.size()) <= cols_,
                    "write exceeds subarray columns: " << row.size()
                    << " > " << cols_);
    growRows(row_offset + static_cast<int>(cells.size()));
    for (std::size_t r = 0; r < cells.size(); ++r)
        for (std::size_t c = 0; c < cells[r].size(); ++c) {
            const CamCell &cell = cells[r][c];
            setRange(row_offset + static_cast<int>(r), static_cast<int>(c),
                     !cell.wildcard, cell.lo, cell.hi);
        }
}

double
CamSubarray::scalarDistance(int r, const float *quantized, std::size_t n,
                            bool euclidean) const
{
    // Wildcards add exactly +0.0 to a sum that is never -0.0, so
    // skipping them leaves every bit of the sum unchanged.
    double dist = 0.0;
    // The CamCell expressions for a programmed cell. The Hamming miss
    // !(q >= lo && q <= hi) is written so that both comparisons are
    // evaluated without a branch, which random data would mispredict.
    auto add = [&](std::size_t c, float lo, float hi) {
        const float q = quantized[c];
        if (euclidean) {
            double d = 0.5 * (lo + hi) - q;
            dist += d * d;
        } else {
            const int miss = !(q >= lo) | !(q <= hi);
            dist += miss;
        }
    };
    const std::uint64_t *care = rowPlanes(r);
    if (analog()) {
        const std::size_t row_base =
            static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
        for (std::size_t c = 0; c < n; ++c)
            if ((care[c / kWordBits] >> (c % kWordBits)) & 1)
                add(c, lo_[row_base + c], hi_[row_base + c]);
        return dist;
    }
    // A digital cell is the range [level, level].
    for (std::size_t w = 0; w * kWordBits < n; ++w) {
        const std::uint64_t bit0 = care[words_ + w];
        const std::uint64_t bit1 = bits_ == 2 ? care[2 * words_ + w] : 0;
        const std::size_t end = std::min(n, (w + 1) * kWordBits);
        for (std::size_t c = w * kWordBits; c < end; ++c) {
            const unsigned b = c % kWordBits;
            if (!((care[w] >> b) & 1))
                continue;
            const float level = static_cast<float>(static_cast<int>(
                ((bit0 >> b) & 1) | (((bit1 >> b) & 1) << 1)));
            add(c, level, level);
        }
    }
    return dist;
}

SearchResult
CamSubarray::search(const std::vector<float> &query, arch::SearchKind kind,
                    bool euclidean, int row_begin, int row_end,
                    double threshold) const
{
    SearchResult result;
    searchInto(query, kind, euclidean, row_begin, row_end, threshold,
               result);
    return result;
}

void
CamSubarray::searchInto(const std::vector<float> &query,
                        arch::SearchKind kind, bool euclidean,
                        int row_begin, int row_end, double threshold,
                        SearchResult &out) const
{
    C4CAM_CHECK(row_begin >= 0 && row_end <= rows_ && row_begin <= row_end,
                "search row window [" << row_begin << ", " << row_end
                << ") outside subarray with " << rows_ << " rows");
    C4CAM_CHECK(static_cast<int>(query.size()) <= cols_,
                "query wider than subarray: " << query.size() << " > "
                << cols_);

    const std::size_t n = query.size();
    const int stored_end =
        std::max(row_begin, std::min(row_end, writtenRows_));
    out.values.resize(static_cast<std::size_t>(row_end - row_begin));
    out.indices.resize(out.values.size());
    out.matchedRows.clear();
    double best = std::numeric_limits<double>::infinity();
    auto record = [&](int r, double dist) {
        const std::size_t i = static_cast<std::size_t>(r - row_begin);
        out.values[i] = static_cast<float>(dist);
        out.indices[i] = r;
        best = std::min(best, dist);
    };

    // 1-bit digital queries: the column mask and the quantized level of
    // every element as query bit planes (a NaN element selects the
    // scalar path instead).
    SearchScratch &scratch = searchScratch();
    bool popcount = !analog() && bits_ == 1;
    std::vector<std::uint64_t> &qp = scratch.queryPlanes;
    if (popcount) {
        qp.assign(rowStride_, 0);
        for (std::size_t c = 0; c < n && popcount; ++c) {
            popcount = !std::isnan(query[c]);
            const int col = static_cast<int>(c);
            qp[col / kWordBits] |= bitOf(col);
            if (levelOf(query[c]))
                qp[words_ + col / kWordBits] |= bitOf(col);
        }
    }

    if (popcount) {
        // 1-bit cells: (l - q)^2 == (l != q) for either metric.
        const int used_words =
            static_cast<int>((n + kWordBits - 1) / kWordBits);
        const std::uint64_t *mask = qp.data();
        const std::uint64_t *q0 = mask + words_;
        for (int r = row_begin; r < stored_end; ++r) {
            const std::uint64_t *care = rowPlanes(r);
            const std::uint64_t *level = care + words_;
            std::int64_t count = 0;
            for (int w = 0; w < used_words; ++w)
                count += popcount64(care[w] & mask[w] & (level[w] ^ q0[w]));
            record(r, static_cast<double>(count));
        }
    } else {
        // ACAM cells store the query as is (quantize() is the
        // identity there).
        const float *quantized = query.data();
        if (!analog()) {
            scratch.quantized.resize(n);
            for (std::size_t c = 0; c < n; ++c)
                scratch.quantized[c] = quantize(query[c]);
            quantized = scratch.quantized.data();
        }
        for (int r = row_begin; r < stored_end; ++r)
            record(r, scalarDistance(r, quantized, n, euclidean));
    }
    // Rows past the stored ones hold no programmed cell.
    for (int r = stored_end; r < row_end; ++r)
        record(r, 0.0);

    for (std::size_t i = 0; i < out.values.size(); ++i) {
        double d = out.values[i];
        bool matched = false;
        switch (kind) {
          case arch::SearchKind::Exact:
            matched = d == 0.0;
            break;
          case arch::SearchKind::Range:
            matched = d <= threshold;
            break;
          case arch::SearchKind::Best:
            matched = d == best;
            break;
        }
        if (matched)
            out.matchedRows.push_back(out.indices[i]);
    }
}

} // namespace c4cam::sim
