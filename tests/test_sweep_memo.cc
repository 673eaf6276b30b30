/**
 * @file
 * Tests of the sweep's packed-trace tier (sweep/cache.hh): the
 * SWAN_TRACE_MEMO_BYTES parser (the T0 pinned-trace budget) and the
 * on-disk trace tier serving captures to later sweeps.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "sweep/cache.hh"
#include "sweep/scheduler.hh"

using namespace swan;

namespace
{

sweep::SweepSpec
memoGrid()
{
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32", "ZL/crc32", "OR/memcpy"};
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    spec.workingSets = {"tiny"};
    return spec;
}

std::string
tempDir(const char *tag)
{
    const auto d = std::filesystem::temp_directory_path() /
                   (std::string("swan_sweep_memo_") + tag + "_" +
                    std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    return d.string();
}

} // namespace

TEST(TraceMemo, EnvBudgetParsing)
{
    ::unsetenv("SWAN_TRACE_MEMO_BYTES");
    EXPECT_EQ(sweep::ResultCache::envTraceMemoBytes(), 0u);
    ::setenv("SWAN_TRACE_MEMO_BYTES", "1048576", 1);
    EXPECT_EQ(sweep::ResultCache::envTraceMemoBytes(), 1048576u);
    ::setenv("SWAN_TRACE_MEMO_BYTES", "not-a-number", 1);
    EXPECT_EQ(sweep::ResultCache::envTraceMemoBytes(), 0u);
    ::unsetenv("SWAN_TRACE_MEMO_BYTES");
}

TEST(TraceTier, ServesCapturesAcrossSweeps)
{
    const auto dir = tempDir("tier");
    std::string err;

    // Sweep 1: prime only — captures stored to the trace tier.
    sweep::SweepSpec first = memoGrid();
    first.configs = {"prime"};
    auto firstPoints = sweep::expand(first, &err);
    ASSERT_FALSE(firstPoints.empty()) << err;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(firstPoints, sc);
        const auto stats = cache.stats();
        EXPECT_EQ(stats.traceHits, 0u);
        EXPECT_EQ(stats.traceMisses, 6u); // one per (kernel, impl)
        EXPECT_EQ(stats.traceStores, 6u);
    }

    // Sweep 2, fresh process-side caches: silver only. Every result is
    // a result-cache miss, but every capture comes off the trace tier.
    sweep::SweepSpec second = memoGrid();
    second.configs = {"silver"};
    auto secondPoints = sweep::expand(second, &err);
    ASSERT_FALSE(secondPoints.empty()) << err;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        auto results = sweep::runSweep(secondPoints, sc);
        const auto stats = cache.stats();
        EXPECT_EQ(stats.misses, secondPoints.size());
        EXPECT_EQ(stats.traceHits, 6u);
        EXPECT_EQ(stats.traceMisses, 0u);
        for (const auto &r : results) {
            EXPECT_GT(r.run.sim.cycles, 0u);
            EXPECT_GT(r.run.mix.total(), 0u);
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceTier, CorruptEntryDegradesToCapture)
{
    const auto dir = tempDir("corrupt");
    std::string err;
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 1u) << err;

    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points, sc);
        EXPECT_EQ(cache.stats().traceStores, 1u);
    }

    // Truncate the stored trace: the next sweep must fall back to a
    // fresh capture (trace miss), not fail or mis-simulate. Sweep a
    // different core config so the result cache misses and the trace
    // tier is actually consulted.
    const auto key = sweep::traceKeyFor(points[0]);
    const auto path = std::filesystem::path(dir) / (key.hex() + ".swtp");
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "SWTPgarbage";
    }
    spec.configs = {"silver"};
    auto silverPoints = sweep::expand(spec, &err);
    ASSERT_EQ(silverPoints.size(), 1u) << err;
    sweep::ResultCache cache(dir);
    sweep::SchedulerConfig sc;
    sc.cache = &cache;
    auto results = sweep::runSweep(silverPoints, sc);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].run.sim.cycles, 0u);
    EXPECT_EQ(cache.stats().traceHits, 0u);
    EXPECT_EQ(cache.stats().traceMisses, 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceTier, TraceKeyIdentity)
{
    std::string err;
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 1u) << err;

    const auto k1 = sweep::traceKeyFor(points[0]);
    const auto k2 = sweep::traceKeyFor(points[0]);
    EXPECT_TRUE(k1 == k2);
    EXPECT_EQ(k1.hash(), k2.hash());
    EXPECT_EQ(k1.hex().size(), 16u);

    auto other = k1;
    other.vecBits = 256;
    EXPECT_FALSE(k1 == other);
    EXPECT_NE(k1.hash(), other.hash());
    // Trace keys and result keys must never collide on disk.
    EXPECT_NE(k1.hex(), sweep::keyFor(points[0], 1).hex());
}
