/**
 * @file
 * Steady-state CAM searches allocate nothing on the heap.
 *
 * This binary replaces the global (unaligned) operator new/delete with
 * malloc/free wrappers that count allocations made by the calling
 * thread, so a test can assert that a region of code did not allocate.
 */

#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sim/CamDevice.h"

using namespace c4cam;
using namespace c4cam::sim;
using c4cam::arch::ArchSpec;
using c4cam::arch::CamDeviceType;
using c4cam::arch::SearchKind;

namespace {

thread_local std::size_t allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms pair with the plain operator delete below, so they
// must come from the same malloc/free family (sanitizers check it).
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++allocations;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

/** One programmed device, its subarrays, and a plain query plus one
 *  with a NaN element (the scalar path). */
struct Fixture
{
    explicit Fixture(CamDeviceType type, int bits)
    {
        ArchSpec spec;
        spec.rows = 16;
        spec.cols = 65; // two words per plane row
        spec.camType = type;
        spec.bitsPerCell = bits;
        device = std::make_unique<CamDevice>(spec);
        Handle array = device->allocArray(
            device->allocMat(device->allocBank(spec.rows, spec.cols)));
        for (int i = 0; i < 2; ++i) {
            Handle sub = device->allocSubarray(array);
            std::vector<std::vector<float>> rows(
                10, std::vector<float>(static_cast<std::size_t>(spec.cols)));
            for (std::size_t r = 0; r < rows.size(); ++r)
                for (std::size_t c = 0; c < rows[r].size(); ++c)
                    rows[r][c] = static_cast<float>((r * 7 + c * 3 + i) % 4);
            device->writeValue(sub, rows);
            handles.push_back(sub);
        }
        query.assign(static_cast<std::size_t>(spec.cols), 1.0f);
        nanQuery = query;
        nanQuery[5] = std::nanf("");
    }

    /** One query window: every search kind and metric on every
     *  subarray, each result read back. */
    void
    serveWindow()
    {
        device->beginQueryWindow();
        for (Handle h : handles) {
            for (const std::vector<float> *q : {&query, &nanQuery}) {
                device->search(h, *q, SearchKind::Best, false);
                device->search(h, *q, SearchKind::Exact, true, 2, 12);
                device->search(h, *q, SearchKind::Range, true, 0, 16, 4.0,
                               true);
                checksum += device->read(h).values.size();
            }
        }
    }

    std::unique_ptr<CamDevice> device;
    std::vector<Handle> handles;
    std::vector<float> query, nanQuery;
    std::size_t checksum = 0;
};

} // namespace

TEST(CamDeviceAllocation, SteadyStateQueryWindowsAllocateNothing)
{
    const struct
    {
        CamDeviceType type;
        int bits;
    } configs[] = {{CamDeviceType::Tcam, 1},
                   {CamDeviceType::Mcam, 2},
                   {CamDeviceType::Acam, 2}};
    for (const auto &config : configs) {
        Fixture fixture(config.type, config.bits);
        fixture.serveWindow(); // sizes result slots and search scratch
        const std::size_t before = allocations;
        for (int window = 0; window < 3; ++window)
            fixture.serveWindow();
        EXPECT_EQ(allocations - before, 0u)
            << "camType " << static_cast<int>(config.type);
        // 4 windows x 2 subarrays x 2 queries, 16 rows read each.
        EXPECT_EQ(fixture.checksum, 4u * 2u * 2u * 16u);
    }
}
