#ifndef C4CAM_SIM_CAMSUBARRAY_H
#define C4CAM_SIM_CAMSUBARRAY_H

/**
 * @file
 * Functional model of one CAM subarray.
 *
 * Stores ternary / multi-bit / analog cells and evaluates exact, best
 * and range (threshold) matches under Hamming or Euclidean metrics
 * (paper §II-B). Selective row search [27] restricts the active row
 * window so multiple data batches can share one subarray.
 *
 * Layout. Cells live in bit-packed planes, one 64-bit word per 64
 * columns: per stored row a care plane (bit set = programmed cell,
 * clear = wildcard) followed, for digital cells (TCAM/MCAM,
 * bitsPerCell 1 or 2), by one plane per level bit; level bits are kept
 * zero under a clear care bit. ACAM cells add row-major float lo/hi
 * planes. This is the value/care bit-vector encoding CAMA uses for
 * state matching.
 *
 * Memory. Nothing is stored until the first write, and storage only
 * grows to the highest written row; rows past it are wildcards, just
 * like unwritten cells. A 256-row subarray holding 10 written rows of
 * 256 TCAM columns costs 10 * 2 * 4 words = 640 bytes. No midpoint or
 * other derived plane is stored.
 *
 * Exactness. search() returns exactly what the scalar model did: the
 * double sum over columns [0, query.size()) of (0.5 * (lo + hi) - q)^2
 * (Euclidean) or of "q outside [lo, hi]" (Hamming), wildcards adding
 * 0, rounded to float.
 *  - A 1-bit (TCAM) query whose elements are all non-NaN takes the
 *    popcount path. Its level for element v is 1 when v >= 0.5, which
 *    equals clamp(round(v), 0, 1) for every non-NaN v. A 1-bit term
 *    (l - q)^2 equals (l != q), so under either metric the distance is
 *    an integer count and popcount(care & qmask & (level xor q))
 *    equals the double sum exactly.
 *  - 2-bit MCAM and ACAM searches, and queries with a NaN element,
 *    keep the scalar column-order loop and the CamCell expressions.
 *    (Which NaN survives a sum that meets two NaNs depends on how the
 *    compiler orders the addition, in the old model as here.)
 *  - Columns at or past query.size() never count.
 */

#include <cstdint>
#include <limits>
#include <vector>

#include "arch/ArchSpec.h"
#include "arch/TechModel.h"

namespace c4cam::sim {

/** One CAM cell: a [lo, hi] acceptance range or a wildcard. */
struct CamCell
{
    float lo = 0.0f;
    float hi = 0.0f;
    bool wildcard = true; ///< unwritten cells match everything

    /** @return true when @p q falls inside the acceptance range. */
    bool
    matches(float q) const
    {
        return wildcard || (q >= lo && q <= hi);
    }

    /** Distance contribution of this cell for @p q. */
    double
    distanceTo(float q) const
    {
        if (wildcard)
            return 0.0;
        // Distance to the stored level (midpoint for ACAM ranges).
        return 0.5 * (lo + hi) - q;
    }
};

/** Result of reading back one search: per-row values and row indices. */
struct SearchResult
{
    /** Distance (hamming/eucl) per considered row; matches have the
     *  semantics of the issued search kind. */
    std::vector<float> values;
    /** Global row index per entry of @p values. */
    std::vector<std::int32_t> indices;
    /** Rows flagged as matching (exact: dist == 0; range: dist <= thr;
     *  best: rows achieving the minimum distance). */
    std::vector<std::int32_t> matchedRows;
};

/**
 * Functional CAM subarray with R x C cells.
 *
 * Searches are const and touch no shared mutable state (per-search
 * scratch is thread-local), so replicas may search concurrently.
 */
class CamSubarray
{
  public:
    CamSubarray(int rows, int cols, arch::CamDeviceType type,
                int bits_per_cell);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    /**
     * Program @p data (row-major, data[r][c]) starting at @p row_offset.
     * Values are quantized to the cell's level count (2^bits levels for
     * TCAM/MCAM); NaN values encode don't-care (wildcard) cells.
     * Columns a row does not cover keep their contents. The whole
     * input is validated before any cell changes.
     */
    void write(const std::vector<std::vector<float>> &data, int row_offset);

    /**
     * Program analog acceptance ranges (ACAM): lo/hi per cell. Rows
     * wider than cols() are rejected like in write().
     */
    void writeRanges(const std::vector<std::vector<CamCell>> &cells,
                     int row_offset);

    /**
     * Search @p query against rows [row_begin, row_end).
     * @param kind exact / best / range matching
     * @param metric hamming or euclidean distance
     * @param threshold range-match threshold (ignored otherwise)
     */
    SearchResult search(const std::vector<float> &query,
                        arch::SearchKind kind, bool euclidean,
                        int row_begin, int row_end,
                        double threshold = 0.0) const;

    /** Search the full row window. */
    SearchResult
    search(const std::vector<float> &query, arch::SearchKind kind,
           bool euclidean) const
    {
        return search(query, kind, euclidean, 0, rows_);
    }

    /**
     * search() into @p out, reusing its vectors' capacity: no heap
     * allocation once @p out has held a result of this window size.
     * @p out is untouched when the arguments are rejected.
     */
    void searchInto(const std::vector<float> &query, arch::SearchKind kind,
                    bool euclidean, int row_begin, int row_end,
                    double threshold, SearchResult &out) const;

    /** Number of rows that contain written (non-wildcard) data. */
    int writtenRows() const { return writtenRows_; }

    /** Quantize @p v to the representable cell levels. */
    float quantize(float v) const;

  private:
    bool analog() const { return type_ == arch::CamDeviceType::Acam; }
    /** Grow storage (and writtenRows_) to cover rows [0, @p rows). */
    void growRows(int rows);
    /** The care plane of stored row @p r; level planes follow it. */
    std::uint64_t *rowPlanes(int r)
    {
        return planes_.data() + static_cast<std::size_t>(r) * rowStride_;
    }
    const std::uint64_t *rowPlanes(int r) const
    {
        return planes_.data() + static_cast<std::size_t>(r) * rowStride_;
    }
    /** Digital level of non-NaN @p v: the number of thresholds t - 0.5
     *  (t = 1 .. 2^bits - 1) it reaches, == quantize(v). */
    int levelOf(float v) const;
    /** Store one ACAM range, or a wildcard. */
    void setRange(int r, int c, bool care, float lo, float hi);
    /** Scalar column-order distance of stored row @p r (2-bit MCAM,
     *  ACAM and NaN-query path). */
    double scalarDistance(int r, const float *quantized, std::size_t n,
                          bool euclidean) const;

    int rows_;
    int cols_;
    arch::CamDeviceType type_;
    int bits_;
    int writtenRows_ = 0;
    int words_;             ///< 64-bit words per plane row
    std::size_t rowStride_; ///< words per stored row (all planes)
    /** [row][care, level bit 0, level bit 1][word] for the first
     *  writtenRows_ rows. */
    std::vector<std::uint64_t> planes_;
    /** ACAM only: [row][col] acceptance range bounds. */
    std::vector<float> lo_, hi_;
};

} // namespace c4cam::sim

#endif // C4CAM_SIM_CAMSUBARRAY_H
