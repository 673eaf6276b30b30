/**
 * @file
 * Tests for the cache model and memory system (a CacheHierarchy timed
 * by a MemTiming): hit/miss behavior, LRU replacement, write-back
 * traffic, hierarchy fill, MSHR-bounded overlap and DRAM bandwidth
 * queueing.
 */

#include <algorithm>
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

/**
 * The memory system as sim::CoreModel composes it: each access walks
 * the functional CacheHierarchy, then its MemTiming times the line
 * outcomes the walk left.
 */
struct MemSystem
{
    explicit MemSystem(const CoreConfig &cfg) : caches(cfg), timing(cfg) {}

    struct Load
    {
        uint64_t latency;  //!< load-to-use latency in cycles
        MemLevel level;    //!< slowest level any line came from
    };

    /** A load at @p cycle of at most two lines. */
    Load
    load(uint64_t addr, uint32_t size, uint64_t cycle)
    {
        uint8_t o[2];
        const size_t n = caches.load(addr, size, o);
        uint8_t level = uint8_t(MemLevel::L1);
        for (size_t i = 0; i < n; ++i)
            level = std::max(level, uint8_t(o[i] & LineOutcome::kLevel));
        return {timing.load(o, n, cycle), MemLevel(level)};
    }

    /** A store at @p cycle of at most two lines. */
    void
    store(uint64_t addr, uint32_t size, uint64_t cycle)
    {
        uint8_t o[2];
        timing.store(o, caches.store(addr, size, o), cycle);
    }

    CacheHierarchy caches;
    MemTiming timing;
};

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

TEST(MemSystem, LatencyGrowsDownTheHierarchy)
{
    auto cfg = primeConfig();
    cfg.l1d.nextLinePrefetch = false;
    cfg.l2.nextLinePrefetch = false;
    MemSystem mem(cfg);

    auto first = mem.load(0x10000, 4, 0);
    EXPECT_EQ(first.level, MemLevel::Dram);
    EXPECT_GT(first.latency, uint64_t(cfg.llc.latency));

    auto hit = mem.load(0x10000, 4, 1000);
    EXPECT_EQ(hit.level, MemLevel::L1);
    EXPECT_EQ(hit.latency, uint64_t(cfg.l1d.latency));
}

TEST(MemSystem, L2HitAfterL1Eviction)
{
    auto cfg = primeConfig();
    cfg.l1d = {1024, 1, 64, 4, false};
    cfg.l2 = {64 * 1024, 8, 64, 9, false};
    MemSystem mem(cfg);
    mem.load(0x0000, 4, 0);
    // Conflict in L1 (direct-mapped 1 KiB) but fits easily in L2.
    mem.load(0x0000 + 1024, 4, 100);
    auto r = mem.load(0x0000, 4, 200);
    EXPECT_EQ(r.level, MemLevel::L2);
    EXPECT_EQ(r.latency, uint64_t(cfg.l2.latency));
}

TEST(MemSystem, MshrsBoundOverlap)
{
    auto cfg = primeConfig();
    cfg.mshrs = 1;
    cfg.l1d.nextLinePrefetch = false;
    MemSystem one(cfg);
    cfg.mshrs = 16;
    MemSystem many(cfg);

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

TEST(MemTiming, RejectsCoresWithoutMshrs)
{
    // With no MSHR a miss would take its slot through the end()
    // iterator of an empty MSHR table.
    for (int mshrs : {0, -1}) {
        auto cfg = primeConfig();
        cfg.mshrs = mshrs;
        EXPECT_THROW(MemTiming{cfg}, std::invalid_argument) << mshrs;
    }
}

TEST(MemSystem, StoreTrafficCountsDramWrites)
{
    auto cfg = primeConfig();
    cfg.l1d = {1024, 1, 64, 4, false};
    cfg.l2 = {2048, 1, 64, 9, false};
    cfg.llc = {4096, 1, 64, 31, false};
    MemSystem mem(cfg);
    // Write a long stream: dirty lines must eventually reach DRAM.
    for (uint64_t a = 0; a < 64 * 1024; a += 64)
        mem.store(a, 4, a);
    EXPECT_GT(mem.caches.dramWrites(), 0u);
    EXPECT_GT(mem.caches.dramReads(), 0u); // write-allocate fills
}

TEST(MemSystem, SpanningAccessTouchesBothLines)
{
    auto cfg = primeConfig();
    cfg.l1d.nextLinePrefetch = false;
    MemSystem mem(cfg);
    mem.load(0x1000 - 8, 16, 0); // spans two lines
    EXPECT_EQ(mem.caches.l1().misses(), 2u);
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
