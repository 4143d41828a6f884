/** @file Runtime buffer/view tests. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "runtime/Buffer.h"
#include "support/Error.h"

using namespace c4cam;
using namespace c4cam::rt;

TEST(Buffer, AllocZeroInitialized)
{
    auto buf = Buffer::alloc(DType::F32, {2, 3});
    EXPECT_EQ(buf->numElements(), 6);
    EXPECT_EQ(buf->rank(), 2u);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(buf->at({i, j}), 0.0);
}

TEST(Buffer, SetGetRoundTrip)
{
    auto buf = Buffer::alloc(DType::F32, {4, 4});
    buf->set({2, 3}, 7.5);
    EXPECT_DOUBLE_EQ(buf->at({2, 3}), 7.5);
    buf->setInt({0, 0}, 42);
    EXPECT_EQ(buf->atInt({0, 0}), 42);
}

TEST(Buffer, FromMatrix)
{
    auto buf = Buffer::fromMatrix({{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(buf->at({0, 1}), 2.0);
    EXPECT_DOUBLE_EQ(buf->at({1, 0}), 3.0);
    EXPECT_THROW(Buffer::fromMatrix({{1, 2}, {3}}), CompilerError);
    EXPECT_THROW(Buffer::fromMatrix({}), CompilerError);
}

TEST(Buffer, SubviewAliasesStorage)
{
    auto buf = Buffer::alloc(DType::F32, {4, 8});
    buf->set({2, 5}, 9.0);
    auto view = buf->subview({2, 4}, {2, 4});
    EXPECT_EQ(view->shape(), (std::vector<std::int64_t>{2, 4}));
    EXPECT_DOUBLE_EQ(view->at({0, 1}), 9.0);
    // Writing through the view is visible in the parent.
    view->set({1, 3}, 4.0);
    EXPECT_DOUBLE_EQ(buf->at({3, 7}), 4.0);
}

TEST(Buffer, NestedSubviews)
{
    auto buf = Buffer::alloc(DType::F32, {8, 8});
    buf->set({5, 6}, 1.5);
    auto outer = buf->subview({4, 4}, {4, 4});
    auto inner = outer->subview({1, 2}, {2, 2});
    EXPECT_DOUBLE_EQ(inner->at({0, 0}), 1.5);
}

TEST(Buffer, SubviewBoundsChecked)
{
    auto buf = Buffer::alloc(DType::F32, {4, 4});
    EXPECT_THROW(buf->subview({2, 2}, {3, 1}), InternalError);
    EXPECT_THROW(buf->subview({0}, {1}), InternalError);
}

TEST(Buffer, FillAndToVector)
{
    auto buf = Buffer::alloc(DType::F32, {2, 2});
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 2; ++j)
            buf->set({i, j}, 3.0);
    auto flat = buf->toVector();
    ASSERT_EQ(flat.size(), 4u);
    for (double v : flat)
        EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Buffer, ToVectorFollowsViewLayout)
{
    auto buf = Buffer::fromMatrix({{1, 2, 3}, {4, 5, 6}});
    auto col = buf->subview({0, 1}, {2, 1});
    auto flat = col->toVector();
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_DOUBLE_EQ(flat[0], 2.0);
    EXPECT_DOUBLE_EQ(flat[1], 5.0);
}

TEST(Buffer, ReadWindowMatchesSubview)
{
    auto buf =
        Buffer::fromMatrix({{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}});
    std::vector<float> out{99.0f};
    // Dense row window, strided column window, nested view, empty.
    for (auto [offsets, sizes] :
         std::vector<std::pair<std::vector<std::int64_t>,
                               std::vector<std::int64_t>>>{
             {{1, 0}, {1, 4}},
             {{0, 1}, {3, 2}},
             {{1, 1}, {2, 3}},
             {{2, 2}, {0, 2}}}) {
        buf->readWindowInto(offsets, sizes, out);
        std::vector<double> expected =
            buf->subview(offsets, sizes)->toVector();
        ASSERT_EQ(out.size(), expected.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<float>(expected[i]));
    }
    auto view = buf->subview({1, 1}, {2, 3});
    view->readWindowInto({1, 0}, {1, 2}, out);
    EXPECT_EQ(out, (std::vector<float>{10.0f, 11.0f}));
    EXPECT_THROW(buf->readWindowInto({2, 2}, {2, 1}, out), InternalError);
}

TEST(Buffer, ReuseOrAllocOnlyReusesUnsharedBuffers)
{
    auto buf = Buffer::alloc(DType::F32, {4});
    Buffer *raw = buf.get();
    EXPECT_EQ(Buffer::reuseOrAlloc(buf, DType::F32, {4}).get(), raw);
    // Another handle, a view on the storage, another dtype or shape,
    // or a view itself: a fresh zero-filled buffer.
    auto copy = buf;
    EXPECT_NE(Buffer::reuseOrAlloc(buf, DType::F32, {4}).get(), raw);
    copy.reset();
    auto view = buf->subview({1}, {2});
    EXPECT_NE(Buffer::reuseOrAlloc(buf, DType::F32, {4}).get(), raw);
    EXPECT_NE(Buffer::reuseOrAlloc(view, DType::F32, {2}).get(), view.get());
    view.reset();
    EXPECT_NE(Buffer::reuseOrAlloc(buf, DType::I64, {4}).get(), raw);
    EXPECT_NE(Buffer::reuseOrAlloc(buf, DType::F32, {2, 2}).get(), raw);
    EXPECT_NE(Buffer::reuseOrAlloc(nullptr, DType::F32, {4}), nullptr);
    EXPECT_EQ(Buffer::reuseOrAlloc(buf, DType::F32, {4}).get(), raw);
}

TEST(Buffer, ToMatrixRequiresRank2)
{
    auto buf = Buffer::alloc(DType::F32, {4});
    EXPECT_THROW(buf->toMatrix(), InternalError);
    auto mat = Buffer::fromMatrix({{1, 2}})->toMatrix();
    ASSERT_EQ(mat.size(), 1u);
    EXPECT_FLOAT_EQ(mat[0][1], 2.0f);
}

TEST(Buffer, IndexBoundsChecked)
{
    auto buf = Buffer::alloc(DType::F32, {2, 2});
    EXPECT_THROW(buf->at({2, 0}), InternalError);
    EXPECT_THROW(buf->at({0}), InternalError);
}

TEST(Buffer, RankZero)
{
    auto buf = Buffer::alloc(DType::F32, {});
    EXPECT_EQ(buf->numElements(), 1);
    buf->set({}, 5.0);
    EXPECT_DOUBLE_EQ(buf->at({}), 5.0);
}

TEST(RtValue, Variants)
{
    RtValue i(std::int64_t(4));
    EXPECT_TRUE(i.isInt());
    EXPECT_EQ(i.asInt(), 4);
    EXPECT_DOUBLE_EQ(i.asFloat(), 4.0); // int widens to float

    RtValue f(2.5);
    EXPECT_TRUE(f.isFloat());
    EXPECT_THROW(f.asInt(), InternalError);

    RtValue b(Buffer::alloc(DType::F32, {1}));
    EXPECT_TRUE(b.isBuffer());
    EXPECT_THROW(b.asInt(), InternalError);
    EXPECT_THROW(i.asBuffer(), InternalError);
}

TEST(Buffer, StrIsInformative)
{
    auto buf = Buffer::fromMatrix({{1, 2}});
    std::string s = buf->str();
    EXPECT_NE(s.find("f32"), std::string::npos);
    EXPECT_NE(s.find("1x2"), std::string::npos);
}
