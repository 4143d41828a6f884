#include "runtime/Buffer.h"

#include <functional>
#include <sstream>
#include <utility>

namespace c4cam::rt {

std::shared_ptr<Buffer>
Buffer::create()
{
    return std::make_shared<Buffer>(Private{});
}

std::shared_ptr<Buffer>
Buffer::alloc(DType dtype, std::vector<std::int64_t> shape)
{
    auto buf = create();
    buf->dtype_ = dtype;
    buf->shape_ = std::move(shape);
    buf->strides_.assign(buf->shape_.size(), 1);
    for (int i = static_cast<int>(buf->shape_.size()) - 2; i >= 0; --i)
        buf->strides_[i] = buf->strides_[i + 1] * buf->shape_[i + 1];
    buf->storage_ = std::make_shared<std::vector<double>>(
        static_cast<std::size_t>(buf->numElements()), 0.0);
    return buf;
}

std::shared_ptr<Buffer>
Buffer::reuseOrAlloc(const std::shared_ptr<Buffer> &buf, DType dtype,
                     const std::vector<std::int64_t> &shape)
{
    if (buf && buf.use_count() == 1 && buf->storage_.use_count() == 1 &&
        buf->dtype_ == dtype && buf->shape_ == shape &&
        buf->offset_ == 0 &&
        buf->storage_->size() ==
            static_cast<std::size_t>(buf->numElements()) &&
        buf->isContiguous())
        return buf;
    return alloc(dtype, shape);
}

std::shared_ptr<Buffer>
Buffer::fromMatrix(const std::vector<std::vector<float>> &rows)
{
    C4CAM_CHECK(!rows.empty(), "fromMatrix: empty data");
    auto buf = alloc(DType::F32,
                     {static_cast<std::int64_t>(rows.size()),
                      static_cast<std::int64_t>(rows[0].size())});
    for (std::size_t r = 0; r < rows.size(); ++r) {
        C4CAM_CHECK(rows[r].size() == rows[0].size(),
                    "fromMatrix: ragged rows");
        for (std::size_t c = 0; c < rows[r].size(); ++c)
            buf->set({static_cast<std::int64_t>(r),
                      static_cast<std::int64_t>(c)},
                     rows[r][c]);
    }
    return buf;
}

std::int64_t
Buffer::linearIndex(const std::vector<std::int64_t> &index) const
{
    C4CAM_ASSERT(index.size() == shape_.size(),
                 "index rank " << index.size() << " != buffer rank "
                 << shape_.size());
    std::int64_t linear = offset_;
    for (std::size_t i = 0; i < index.size(); ++i) {
        C4CAM_ASSERT(index[i] >= 0 && index[i] < shape_[i],
                     "index " << index[i] << " out of bounds for dim " << i
                     << " with extent " << shape_[i]);
        linear += index[i] * strides_[i];
    }
    return linear;
}

double
Buffer::at(const std::vector<std::int64_t> &index) const
{
    return (*storage_)[static_cast<std::size_t>(linearIndex(index))];
}

void
Buffer::set(const std::vector<std::int64_t> &index, double value)
{
    (*storage_)[static_cast<std::size_t>(linearIndex(index))] = value;
}

std::int64_t
Buffer::atInt(const std::vector<std::int64_t> &index) const
{
    return static_cast<std::int64_t>(at(index));
}

void
Buffer::setInt(const std::vector<std::int64_t> &index, std::int64_t value)
{
    set(index, static_cast<double>(value));
}

std::int64_t
Buffer::windowOffset(const std::vector<std::int64_t> &offsets,
                     const std::vector<std::int64_t> &sizes) const
{
    C4CAM_ASSERT(offsets.size() == shape_.size() &&
                     sizes.size() == shape_.size(),
                 "subview rank mismatch");
    std::int64_t linear = offset_;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        C4CAM_ASSERT(offsets[i] >= 0 && sizes[i] >= 0 &&
                         offsets[i] + sizes[i] <= shape_[i],
                     "subview window [" << offsets[i] << ", "
                     << offsets[i] + sizes[i] << ") outside dim " << i
                     << " extent " << shape_[i]);
        linear += offsets[i] * strides_[i];
    }
    return linear;
}

std::shared_ptr<Buffer>
Buffer::subview(const std::vector<std::int64_t> &offsets,
                const std::vector<std::int64_t> &sizes) const
{
    auto view = create();
    view->dtype_ = dtype_;
    view->shape_ = sizes;
    view->strides_ = strides_;
    view->offset_ = windowOffset(offsets, sizes);
    view->storage_ = storage_;
    return view;
}

namespace {

/**
 * True when a view with @p shape and @p strides is dense in row-major
 * order, modulo extent-1 dims (their stride is never stepped, so it
 * cannot break contiguity).
 */
bool
denseRowMajor(const std::vector<std::int64_t> &shape,
              const std::vector<std::int64_t> &strides)
{
    std::int64_t expected = 1;
    for (int i = static_cast<int>(shape.size()) - 1; i >= 0; --i) {
        if (shape[static_cast<std::size_t>(i)] == 1)
            continue;
        if (strides[static_cast<std::size_t>(i)] != expected)
            return false;
        expected *= shape[static_cast<std::size_t>(i)];
    }
    return true;
}

/**
 * Row-major visit of the storage slot of every element of the view
 * (@p shape, @p strides, first element at @p offset).
 */
template <typename Fn>
void
walkLinear(const std::vector<std::int64_t> &shape,
           const std::vector<std::int64_t> &strides, std::int64_t offset,
           Fn &&fn)
{
    std::size_t n = 1;
    for (auto d : shape)
        n *= static_cast<std::size_t>(d);
    if (n == 0)
        return;
    if (denseRowMajor(shape, strides)) {
        for (std::size_t e = 0; e < n; ++e)
            fn(static_cast<std::size_t>(offset) + e);
        return;
    }
    std::vector<std::int64_t> index(shape.size(), 0);
    std::int64_t linear = offset;
    for (std::size_t e = 0; e < n; ++e) {
        fn(static_cast<std::size_t>(linear));
        for (int dim = static_cast<int>(shape.size()) - 1; dim >= 0;
             --dim) {
            auto d = static_cast<std::size_t>(dim);
            linear += strides[d];
            if (++index[d] < shape[d])
                break;
            linear -= shape[d] * strides[d];
            index[d] = 0;
        }
    }
}

} // namespace

bool
Buffer::isContiguous() const
{
    return denseRowMajor(shape_, strides_);
}

template <typename Fn>
void
Buffer::forEachLinear(Fn &&fn) const
{
    walkLinear(shape_, strides_, offset_, std::forward<Fn>(fn));
}

void
Buffer::copyFromFlat(const std::vector<double> &flat)
{
    C4CAM_ASSERT(flat.size() == static_cast<std::size_t>(numElements()),
                 "copyFromFlat element count mismatch: " << flat.size()
                 << " vs " << numElements());
    std::size_t i = 0;
    forEachLinear([&](std::size_t linear) {
        (*storage_)[linear] = flat[i++];
    });
}

void
Buffer::addFromFlat(const std::vector<double> &flat)
{
    C4CAM_ASSERT(flat.size() == static_cast<std::size_t>(numElements()),
                 "addFromFlat element count mismatch: " << flat.size()
                 << " vs " << numElements());
    std::size_t i = 0;
    forEachLinear([&](std::size_t linear) {
        (*storage_)[linear] += flat[i++];
    });
}

void
Buffer::readInto(std::vector<double> &out) const
{
    out.clear();
    std::size_t n = static_cast<std::size_t>(numElements());
    if (n == 0)
        return;
    if (isContiguous()) {
        // Dense view: one block copy instead of an index walk.
        auto begin = storage_->begin() +
                     static_cast<std::ptrdiff_t>(offset_);
        out.assign(begin, begin + static_cast<std::ptrdiff_t>(n));
        return;
    }
    out.reserve(n);
    // Strided view: odometer walk with an incrementally maintained
    // linear index (no per-element stride recomputation).
    forEachLinear([&](std::size_t linear) {
        out.push_back((*storage_)[linear]);
    });
}

void
Buffer::readWindowInto(const std::vector<std::int64_t> &offsets,
                       const std::vector<std::int64_t> &sizes,
                       std::vector<float> &out) const
{
    const std::int64_t first = windowOffset(offsets, sizes);
    out.clear();
    walkLinear(sizes, strides_, first, [&](std::size_t linear) {
        out.push_back(static_cast<float>((*storage_)[linear]));
    });
}

std::vector<double>
Buffer::toVector() const
{
    std::vector<double> out;
    readInto(out);
    return out;
}

std::vector<std::vector<float>>
Buffer::toMatrix() const
{
    C4CAM_ASSERT(rank() == 2, "toMatrix requires a rank-2 buffer, got rank "
                 << rank());
    std::vector<std::vector<float>> out(
        static_cast<std::size_t>(shape_[0]),
        std::vector<float>(static_cast<std::size_t>(shape_[1])));
    for (std::int64_t r = 0; r < shape_[0]; ++r) {
        std::int64_t row_base = offset_ + r * strides_[0];
        for (std::int64_t c = 0; c < shape_[1]; ++c)
            out[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
                static_cast<float>((*storage_)[static_cast<std::size_t>(
                    row_base + c * strides_[1])]);
    }
    return out;
}

std::string
Buffer::str() const
{
    std::ostringstream oss;
    oss << (dtype_ == DType::F32 ? "f32" : "i64") << "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i)
            oss << "x";
        oss << shape_[i];
    }
    oss << "]{";
    auto flat = toVector();
    for (std::size_t i = 0; i < flat.size() && i < 8; ++i) {
        if (i)
            oss << ", ";
        oss << flat[i];
    }
    if (flat.size() > 8)
        oss << ", ...";
    oss << "}";
    return oss.str();
}

std::vector<RtValue>
toRtValues(const std::vector<BufferPtr> &args)
{
    std::vector<RtValue> rt_args;
    rt_args.reserve(args.size());
    for (const BufferPtr &arg : args)
        rt_args.emplace_back(arg);
    return rt_args;
}

} // namespace c4cam::rt
