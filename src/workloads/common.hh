/**
 * @file
 * Shared helpers for the workload libraries: the registering buffer type
 * every workload allocates its inputs, outputs and scratch from,
 * deterministic input generation (the paper generates random inputs sized
 * per Section 4.1) and output comparison utilities used by
 * Workload::verify().
 */

#ifndef SWAN_WORKLOADS_COMMON_HH
#define SWAN_WORKLOADS_COMMON_HH

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/kernel.hh"
#include "core/options.hh"
#include "core/registry.hh"
#include "simd/simd.hh"
#include "trace/canon.hh"

namespace swan::workloads
{

/**
 * The one allocation helper of the workload heap: every allocation is
 * registered as a region of the canonical trace address space
 * (trace/canon.hh), so a capture records the same addresses wherever
 * the host heap put the buffer.
 */
template <typename T>
struct RegionAllocator
{
    using value_type = T;

    RegionAllocator() = default;
    template <typename U>
    RegionAllocator(const RegionAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        T *p = std::allocator<T>().allocate(n);
        trace::registerRegion(p, n * sizeof(T));
        return p;
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        trace::unregisterRegion(p);
        std::allocator<T>().deallocate(p, n);
    }

    template <typename U>
    bool
    operator==(const RegionAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A workload buffer: std::vector on the registering allocator. */
template <typename T>
using Buf = std::vector<T, RegionAllocator<T>>;

/** SplitMix64-based deterministic RNG for input generation. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint32_t u32() { return uint32_t(next()); }
    uint8_t u8() { return uint8_t(next()); }

    /** Uniform in [lo, hi]. */
    int
    range(int lo, int hi)
    {
        return lo + int(next() % uint64_t(hi - lo + 1));
    }

    /** Uniform float in [lo, hi). */
    float
    f32(float lo = -1.0f, float hi = 1.0f)
    {
        const double u = double(next() >> 11) / double(1ull << 53);
        return lo + float(u) * (hi - lo);
    }

  private:
    uint64_t state_;
};

/** Fill a byte/int vector with random data. */
template <typename T>
Buf<T>
randomInts(Rng &rng, size_t n)
{
    Buf<T> v(n);
    for (auto &x : v)
        x = T(rng.next());
    return v;
}

/** Fill a float vector with uniform values. */
inline Buf<float>
randomFloats(Rng &rng, size_t n, float lo = -1.0f, float hi = 1.0f)
{
    Buf<float> v(n);
    for (auto &x : v)
        x = rng.f32(lo, hi);
    return v;
}

/** Exact comparison of integer outputs. */
template <typename T>
bool
equalOutputs(const Buf<T> &a, const Buf<T> &b)
{
    return a == b;
}

/** Relative/absolute tolerance comparison for float outputs. */
inline bool
approxOutputs(const Buf<float> &a, const Buf<float> &b,
              float tol = 1e-4f)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const float diff = std::fabs(a[i] - b[i]);
        const float mag = std::max(std::fabs(a[i]), std::fabs(b[i]));
        if (diff > tol * std::max(1.0f, mag))
            return false;
    }
    return true;
}

} // namespace swan::workloads

#endif // SWAN_WORKLOADS_COMMON_HH
