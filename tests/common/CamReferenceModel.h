#ifndef C4CAM_TESTS_CAMREFERENCEMODEL_H
#define C4CAM_TESTS_CAMREFERENCEMODEL_H

/**
 * @file
 * The reference CAM subarray: one AoS sim::CamCell per cell and a
 * scalar column-order search loop.
 *
 * This is the functional model sim::CamSubarray replaced with
 * bit-packed planes. It keeps the straightforward semantics in one
 * place so the differential tests can compare the packed simulator
 * against it bit for bit: every distance is the double sum of
 * CamCell::distanceTo()^2 (Euclidean) or of !CamCell::matches()
 * (Hamming) over columns [0, query.size()), rounded to float, and the
 * match flags are taken from those float values.
 *
 * Inputs must be valid (row window inside the subarray, no row or
 * query wider than cols): the reference does not re-implement the
 * simulator's diagnostics.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/ArchSpec.h"
#include "sim/CamSubarray.h"

namespace c4cam::oracle {

class CamReferenceModel
{
  public:
    CamReferenceModel(int rows, int cols, arch::CamDeviceType type,
                      int bits_per_cell)
        : rows_(rows), type_(type), bits_(bits_per_cell),
          cells_(static_cast<std::size_t>(rows),
                 std::vector<sim::CamCell>(static_cast<std::size_t>(cols)))
    {
    }

    float
    quantize(float v) const
    {
        if (type_ == arch::CamDeviceType::Acam)
            return v;
        int levels = 1 << bits_;
        float q = std::round(v);
        return std::clamp(q, 0.0f, float(levels - 1));
    }

    void
    write(const std::vector<std::vector<float>> &data, int row_offset)
    {
        for (std::size_t r = 0; r < data.size(); ++r) {
            for (std::size_t c = 0; c < data[r].size(); ++c) {
                sim::CamCell &cell = cells_[row_offset + r][c];
                float v = data[r][c];
                if (std::isnan(v)) {
                    cell = sim::CamCell{};
                } else {
                    float q = quantize(v);
                    cell.lo = q;
                    cell.hi = q;
                    cell.wildcard = false;
                }
            }
        }
    }

    void
    writeRanges(const std::vector<std::vector<sim::CamCell>> &cells,
                int row_offset)
    {
        for (std::size_t r = 0; r < cells.size(); ++r)
            for (std::size_t c = 0; c < cells[r].size(); ++c)
                cells_[row_offset + r][c] = cells[r][c];
    }

    sim::SearchResult
    search(const std::vector<float> &query, arch::SearchKind kind,
           bool euclidean, int row_begin, int row_end,
           double threshold = 0.0) const
    {
        std::vector<float> quantized(query.size());
        for (std::size_t c = 0; c < query.size(); ++c)
            quantized[c] = quantize(query[c]);

        sim::SearchResult result;
        double best = std::numeric_limits<double>::infinity();
        for (int r = row_begin; r < row_end; ++r) {
            double dist = 0.0;
            const std::vector<sim::CamCell> &row =
                cells_[static_cast<std::size_t>(r)];
            for (std::size_t c = 0; c < query.size(); ++c) {
                const sim::CamCell &cell = row[c];
                float q = quantized[c];
                if (euclidean) {
                    double d = cell.distanceTo(q);
                    dist += d * d;
                } else {
                    dist += cell.matches(q) ? 0.0 : 1.0;
                }
            }
            result.values.push_back(static_cast<float>(dist));
            result.indices.push_back(r);
            best = std::min(best, dist);
        }

        for (std::size_t i = 0; i < result.values.size(); ++i) {
            double d = result.values[i];
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
                result.matchedRows.push_back(result.indices[i]);
        }
        return result;
    }

    int rows() const { return rows_; }

  private:
    int rows_;
    arch::CamDeviceType type_;
    int bits_;
    std::vector<std::vector<sim::CamCell>> cells_; ///< [row][col]
};

} // namespace c4cam::oracle

#endif // C4CAM_TESTS_CAMREFERENCEMODEL_H
