/**
 * @file
 * Tests for the cache model and memory hierarchy: hit/miss behavior,
 * LRU replacement, write-back traffic, hierarchy fill, MSHR-bounded
 * overlap and DRAM bandwidth queueing.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "sim/configs.hh"

using namespace swan::sim;

namespace
{

CacheConfig
tinyCache(int size, int ways)
{
    return {size, ways, 64, 4, false};
}

} // namespace

TEST(Cache, FirstAccessMissesThenHits)
{
    Cache c(tinyCache(1024, 2));
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit); // same 64B line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 1 KiB, 2-way, 64B lines -> 8 sets; same set = addresses 512 apart.
    Cache c(tinyCache(1024, 2));
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0000, false);  // touch A so B is LRU
    c.access(0x0400, false);  // evicts B
    EXPECT_TRUE(c.access(0x0000, false).hit);
    EXPECT_FALSE(c.access(0x0200, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(tinyCache(1024, 1)); // direct-mapped, 16 sets
    c.access(0x0000, true);      // dirty
    auto r = c.access(0x0000 + 1024, false); // same set, evicts
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.wbLineAddr, 0x0000u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(tinyCache(1024, 2));
    EXPECT_FALSE(c.probe(0x2000));
    c.access(0x2000, false);
    const uint64_t misses = c.misses();
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_EQ(c.misses(), misses);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(tinyCache(1024, 2));
    c.access(0x0, false);
    c.reset();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_FALSE(c.probe(0x0));
}

TEST(Cache, RejectsNonPositiveWaysOrLineSize)
{
    // The set count divides by lineBytes * ways, so these must be
    // rejected before the division (a zero divisor raises SIGFPE).
    for (const CacheConfig &bad :
         {CacheConfig{1024, 0, 64, 4, false},
          CacheConfig{1024, 2, 0, 4, false},
          CacheConfig{1024, -2, 64, 4, false}})
        EXPECT_THROW(Cache{bad}, std::invalid_argument);
}

TEST(MemHierarchy, LatencyGrowsDownTheHierarchy)
{
    auto cfg = primeConfig();
    cfg.l1d.nextLinePrefetch = false;
    cfg.l2.nextLinePrefetch = false;
    MemHierarchy mem(cfg);

    auto first = mem.load(0x10000, 4, 0);
    EXPECT_EQ(first.level, MemHierarchy::Level::Dram);
    EXPECT_GT(first.latency, uint64_t(cfg.llc.latency));

    auto hit = mem.load(0x10000, 4, 1000);
    EXPECT_EQ(hit.level, MemHierarchy::Level::L1);
    EXPECT_EQ(hit.latency, uint64_t(cfg.l1d.latency));
}

TEST(MemHierarchy, L2HitAfterL1Eviction)
{
    auto cfg = primeConfig();
    cfg.l1d = {1024, 1, 64, 4, false};
    cfg.l2 = {64 * 1024, 8, 64, 9, false};
    MemHierarchy mem(cfg);
    mem.load(0x0000, 4, 0);
    // Conflict in L1 (direct-mapped 1 KiB) but fits easily in L2.
    mem.load(0x0000 + 1024, 4, 100);
    auto r = mem.load(0x0000, 4, 200);
    EXPECT_EQ(r.level, MemHierarchy::Level::L2);
    EXPECT_EQ(r.latency, uint64_t(cfg.l2.latency));
}

TEST(MemHierarchy, MshrsBoundOverlap)
{
    auto cfg = primeConfig();
    cfg.mshrs = 1;
    cfg.l1d.nextLinePrefetch = false;
    MemHierarchy one(cfg);
    cfg.mshrs = 16;
    MemHierarchy many(cfg);

    // Two concurrent misses at cycle 0: with one MSHR the second must
    // wait for the first to complete.
    uint64_t lat_one =
        std::max(one.load(0x0000, 4, 0).latency,
                 one.load(0x4000, 4, 0).latency);
    uint64_t lat_many =
        std::max(many.load(0x0000, 4, 0).latency,
                 many.load(0x4000, 4, 0).latency);
    EXPECT_GT(lat_one, lat_many);
}

TEST(MemHierarchy, RejectsCoresWithoutMshrs)
{
    // With no MSHR a miss would take its slot through the end()
    // iterator of an empty MSHR table.
    for (int mshrs : {0, -1}) {
        auto cfg = primeConfig();
        cfg.mshrs = mshrs;
        EXPECT_THROW(MemHierarchy{cfg}, std::invalid_argument) << mshrs;
    }
}

TEST(MemHierarchy, StoreTrafficCountsDramWrites)
{
    auto cfg = primeConfig();
    cfg.l1d = {1024, 1, 64, 4, false};
    cfg.l2 = {2048, 1, 64, 9, false};
    cfg.llc = {4096, 1, 64, 31, false};
    MemHierarchy mem(cfg);
    // Write a long stream: dirty lines must eventually reach DRAM.
    for (uint64_t a = 0; a < 64 * 1024; a += 64)
        mem.store(a, 4, a);
    EXPECT_GT(mem.dramWrites(), 0u);
    EXPECT_GT(mem.dramReads(), 0u); // write-allocate fills
}

TEST(MemHierarchy, SpanningAccessTouchesBothLines)
{
    auto cfg = primeConfig();
    cfg.l1d.nextLinePrefetch = false;
    MemHierarchy mem(cfg);
    mem.load(0x1000 - 8, 16, 0); // spans two lines
    EXPECT_EQ(mem.l1().misses(), 2u);
}

TEST(Dram, BandwidthQueueDelaysBursts)
{
    Dram d(100, 10.0);
    uint64_t t0 = d.access(0);
    uint64_t t1 = d.access(0);
    uint64_t t2 = d.access(0);
    EXPECT_EQ(t0, 100u);
    EXPECT_EQ(t1, 110u);
    EXPECT_EQ(t2, 120u);
    // After the queue drains, latency returns to the idle value.
    EXPECT_EQ(d.access(10000), 10100u);
}

TEST(Configs, Table3Baseline)
{
    auto c = primeConfig();
    EXPECT_EQ(c.robSize, 128);
    EXPECT_EQ(c.decodeWidth, 4);
    EXPECT_EQ(c.vunits(), 2);
    EXPECT_EQ(c.vecBits, 128);
    EXPECT_EQ(c.l1d.sizeBytes, 64 * 1024);
    EXPECT_EQ(c.l2.sizeBytes, 512 * 1024);
    EXPECT_EQ(c.llc.sizeBytes, 2 * 1024 * 1024);
    EXPECT_EQ(c.l1d.latency, 4);
    EXPECT_EQ(c.l2.latency, 9);
    EXPECT_EQ(c.llc.latency, 31);
    EXPECT_DOUBLE_EQ(c.freqGHz, 2.8);
}

TEST(Configs, ScalabilityFactory)
{
    auto c = scalabilityConfig(8, 8);
    EXPECT_EQ(c.decodeWidth, 8);
    EXPECT_EQ(c.vunits(), 8);
    EXPECT_EQ(c.name, "8W-8V");
    auto base = scalabilityConfig(4, 2);
    EXPECT_EQ(base.decodeWidth, primeConfig().decodeWidth);
    EXPECT_EQ(base.vunits(), primeConfig().vunits());
}

TEST(Configs, SilverIsInOrder)
{
    auto c = silverConfig();
    EXPECT_FALSE(c.outOfOrder);
    EXPECT_EQ(c.vunits(), 1);
    EXPECT_LT(c.freqGHz, goldConfig().freqGHz);
}
