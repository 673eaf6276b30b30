/**
 * @file
 * Tests of the three-tier cache hierarchy (sweep/cache.hh): far-tier
 * write-through of results and traces, promotion, deterministic
 * cold-first pruning (stable even for entries written in the same
 * second — mtimes never enter the decision), RAM pinning of hot packed
 * traces, and the determinism matrix: one grid replayed across jobs x
 * memo-budget x far on/off must emit byte-identical results and leave
 * identical durable placement.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"
#include "trace/stats.hh"

using namespace swan;

namespace
{

std::string
tempDir(const char *tag)
{
    const auto d = std::filesystem::temp_directory_path() /
                   (std::string("swan_cache_tiers_") + tag + "_" +
                    std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    return d.string();
}

sweep::SweepSpec
adlerSpec()
{
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    return spec;
}

core::KernelRun
runWithCycles(uint64_t cycles)
{
    core::KernelRun r;
    r.sim.cycles = cycles;
    r.sim.instrs = 100;
    return r;
}

sweep::CacheKey
keyNamed(const std::string &kernel)
{
    sweep::CacheKey k;
    k.kernel = kernel;
    k.configFp = 0x1234;
    k.optionsFp = 0x5678;
    return k;
}

} // namespace

TEST(CacheTiers, StoreWritesThroughToFarTier)
{
    namespace fs = std::filesystem;
    const auto local = tempDir("wt_local");
    const auto far = tempDir("wt_far");
    const auto key = keyNamed("K/wt");

    sweep::ResultCache cache(local, 0, far);
    core::KernelRun got;
    EXPECT_FALSE(cache.lookup(key, &got));
    cache.store(key, runWithCycles(7));

    EXPECT_TRUE(fs::exists(fs::path(local) / (key.hex() + ".swr")));
    EXPECT_TRUE(fs::exists(fs::path(far) / (key.hex() + ".swr")));
    EXPECT_EQ(cache.stats().farStores, 1u);
    // The miss probed T2 before giving up.
    EXPECT_EQ(cache.stats().farMisses, 1u);

    // A trace store writes through the same way, so another host's
    // cold local tier is served from T2.
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    trace::MixStats mix;
    mix.addTrace(instrs);
    sweep::TraceKey tkey;
    tkey.kernel = "K/wt";
    cache.storeTrace(tkey, trace::PackedTrace::pack(instrs), mix);
    EXPECT_TRUE(fs::exists(fs::path(local) / (tkey.hex() + ".swtp")));
    EXPECT_TRUE(fs::exists(fs::path(far) / (tkey.hex() + ".swtp")));
    EXPECT_EQ(cache.stats().traceStores, 1u);
    EXPECT_EQ(cache.stats().farStores, 2u);

    const auto other = tempDir("wt_other");
    sweep::ResultCache remote(other, 0, far);
    trace::PackedTrace gotTrace;
    trace::MixStats gotMix;
    ASSERT_TRUE(remote.lookupTrace(tkey, &gotTrace, &gotMix));
    EXPECT_EQ(remote.stats().farHits, 1u);
    EXPECT_EQ(gotMix.total(), mix.total());

    fs::remove_all(local);
    fs::remove_all(far);
    fs::remove_all(other);
}

TEST(CacheTiers, FarHitIsPromotedIntoLocalDisk)
{
    namespace fs = std::filesystem;
    const auto seedDir = tempDir("promo_seed");
    const auto far = tempDir("promo_far");
    const auto local = tempDir("promo_local");
    const auto key = keyNamed("K/promo");

    {
        sweep::ResultCache seeder(seedDir, 0, far);
        seeder.store(key, runWithCycles(42));
    }
    fs::remove_all(seedDir);

    // A host with a cold local tier: the far hit must serve the result
    // AND leave a local copy (write-through promotion), so the next
    // process on this host never pays the far round-trip again.
    sweep::ResultCache cache(local, 0, far);
    core::KernelRun got;
    ASSERT_TRUE(cache.lookup(key, &got));
    EXPECT_EQ(got.sim.cycles, 42u);
    EXPECT_EQ(cache.stats().farHits, 1u);
    EXPECT_EQ(cache.stats().farPromotions, 1u);
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_TRUE(fs::exists(fs::path(local) / (key.hex() + ".swr")));

    sweep::ResultCache next(local, 0, far);
    ASSERT_TRUE(next.lookup(key, &got));
    EXPECT_EQ(next.stats().diskHits, 1u);
    EXPECT_EQ(next.stats().farHits, 0u);

    fs::remove_all(local);
    fs::remove_all(far);
}

TEST(CacheTiers, SameSecondEntriesEvictInStableOrder)
{
    namespace fs = std::filesystem;

    // Two entries written within one mtime granule (enforced with an
    // explicit identical timestamp) plus a cap that forces one out:
    // the victim must be the same on every run of the same sequence —
    // the old mtime-LRU tie was filesystem roulette here.
    const auto runOnce = [](const std::string &dir, uint64_t cap) {
        sweep::ResultCache cache(dir, cap);
        cache.store(keyNamed("K/tie-a"), runWithCycles(1));
        cache.store(keyNamed("K/tie-b"), runWithCycles(2));
        const auto stamp = fs::last_write_time(
            fs::path(dir) / (keyNamed("K/tie-a").hex() + ".swr"));
        fs::last_write_time(
            fs::path(dir) / (keyNamed("K/tie-b").hex() + ".swr"), stamp);
        core::KernelRun got;
        EXPECT_FALSE(cache.lookup(keyNamed("K/tie-c"), &got));
        cache.store(keyNamed("K/tie-c"), runWithCycles(3));
        EXPECT_EQ(cache.stats().evictions, 1u);
        std::vector<std::string> left;
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".swr")
                left.push_back(e.path().filename().string());
        std::sort(left.begin(), left.end());
        return left;
    };

    uint64_t entryBytes = 0;
    const auto probeDir = tempDir("tie_probe");
    {
        sweep::ResultCache probe(probeDir);
        probe.store(keyNamed("K/probe"), runWithCycles(1));
        entryBytes = probe.diskBytes();
        ASSERT_GT(entryBytes, 0u);
    }
    fs::remove_all(probeDir);
    const uint64_t cap = 2 * entryBytes + entryBytes / 2;

    const auto dirA = tempDir("tie_a");
    const auto dirB = tempDir("tie_b");
    const auto first = runOnce(dirA, cap);
    const auto second = runOnce(dirB, cap);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first, second);
    // Neither tied entry has lookup history, so the name tiebreak
    // picks the victim; K/tie-c was looked up and must survive.
    EXPECT_NE(std::find(first.begin(), first.end(),
                        keyNamed("K/tie-c").hex() + ".swr"),
              first.end());
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}

TEST(CacheTiers, HotTraceIsPinnedIntoRamAndServedFromIt)
{
    const auto dir = tempDir("pin");
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());
    const auto packed = trace::PackedTrace::pack(instrs);
    trace::MixStats mix;
    mix.addTrace(instrs);

    sweep::TraceKey key;
    key.kernel = "ZL/adler32";

    sweep::ResultCache cache(dir);
    cache.setRamTraceBudget(64ull << 20);
    cache.storeTrace(key, packed, mix);
    EXPECT_EQ(cache.stats().traceStores, 1u);

    trace::PackedTrace got;
    trace::MixStats gotMix;
    // First hit: disk, below the pin threshold (kPinHits = 2).
    ASSERT_TRUE(cache.lookupTrace(key, &got, &gotMix));
    EXPECT_EQ(cache.stats().traceHits, 1u);
    EXPECT_EQ(cache.stats().ramPromotions, 0u);
    // Second hit earns the pin.
    ASSERT_TRUE(cache.lookupTrace(key, &got, &gotMix));
    EXPECT_EQ(cache.stats().ramPromotions, 1u);
    EXPECT_EQ(cache.stats().traceRamHits, 0u);
    // Third hit is served from T0: same bytes, no disk read.
    ASSERT_TRUE(cache.lookupTrace(key, &got, &gotMix));
    EXPECT_EQ(cache.stats().traceRamHits, 1u);
    EXPECT_EQ(cache.stats().traceHits, 2u);
    EXPECT_EQ(got.byteSize(), packed.byteSize());
    EXPECT_EQ(gotMix.total(), mix.total());

    std::filesystem::remove_all(dir);
}

TEST(CacheTiers, UndersizedTraceBudgetNeverPins)
{
    const auto dir = tempDir("nopin");
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    const auto packed = trace::PackedTrace::pack(instrs);
    trace::MixStats mix;
    mix.addTrace(instrs);

    sweep::TraceKey key;
    key.kernel = "ZL/adler32";

    sweep::ResultCache cache(dir);
    cache.setRamTraceBudget(1); // smaller than any real trace
    cache.storeTrace(key, packed, mix);
    trace::PackedTrace got;
    trace::MixStats gotMix;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(cache.lookupTrace(key, &got, &gotMix));
    EXPECT_EQ(cache.stats().ramPromotions, 0u);
    EXPECT_EQ(cache.stats().traceRamHits, 0u);
    EXPECT_EQ(cache.stats().traceHits, 4u);
    std::filesystem::remove_all(dir);
}

TEST(CacheTiers, DeterminismMatrixEmitsIdenticalBytesAndPlacement)
{
    namespace fs = std::filesystem;
    std::string err;
    sweep::SweepSpec spec = adlerSpec();
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 4u) << err;

    struct Leg
    {
        uint64_t budget;
        int jobs;
        bool far;
    };
    const Leg legs[] = {
        {0, 1, true},        // uncapped T0 budget, serial
        {0, 8, true},        // uncapped T0 budget, eight threads
        {1, 1, true},        // tiny T0 budget: nothing pins
        {1u << 16, 8, true}, // mid T0 budget, eight threads
        {0, 1, false},       // no far tier at all
    };

    // One sweep of the grid through a fresh cache on the leg's
    // directories; @p placement / @p misses report that cache.
    const auto sweepOnce = [&](const Leg &leg, const std::string &local,
                               const std::string &far,
                               std::string *placement, uint64_t *misses) {
        sweep::ResultCache cache(local, 0, leg.far ? far : std::string());
        cache.setRamTraceBudget(leg.budget);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sc.jobs = leg.jobs;
        std::ostringstream os;
        sweep::emitResults(os, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
        *placement = cache.placementMap();
        *misses = cache.stats().misses;
        return os.str();
    };

    std::string coldRef, warmRef, placementRef;
    int tag = 0;
    for (const Leg &leg : legs) {
        ++tag;
        const auto local = tempDir(("mx_l" + std::to_string(tag)).c_str());
        const auto far = tempDir(("mx_f" + std::to_string(tag)).c_str());
        std::string placement;
        uint64_t misses = 0;
        const std::string cold =
            sweepOnce(leg, local, far, &placement, &misses);
        // A fresh cache on the same directories: the warm run must be
        // served entirely from the durable tiers.
        const std::string warm =
            sweepOnce(leg, local, far, &placement, &misses);
        EXPECT_EQ(misses, 0u) << "leg " << tag << " recomputed a warm point";

        EXPECT_EQ(cold, warm) << "leg " << tag;
        if (coldRef.empty()) {
            coldRef = cold;
            warmRef = warm;
        } else {
            EXPECT_EQ(cold, coldRef) << "leg " << tag;
            EXPECT_EQ(warm, warmRef) << "leg " << tag;
        }
        if (leg.far) {
            if (placementRef.empty())
                placementRef = placement;
            else
                EXPECT_EQ(placement, placementRef) << "leg " << tag;
        }

        fs::remove_all(local);
        fs::remove_all(far);
    }
    ASSERT_FALSE(coldRef.empty());
    EXPECT_EQ(coldRef, warmRef);
    ASSERT_FALSE(placementRef.empty());
    // Every entry of the far-enabled placement lives in both durable
    // tiers after the cold run published it.
    std::istringstream lines(placementRef);
    std::string line;
    size_t entries = 0;
    while (std::getline(lines, line)) {
        ++entries;
        EXPECT_NE(line.find(" disk=1"), std::string::npos) << line;
        EXPECT_NE(line.find(" far=1"), std::string::npos) << line;
    }
    // 4 results + 2 captured traces (Scalar and Neon share per-impl
    // traces across the two core configs).
    EXPECT_EQ(entries, 6u) << placementRef;
}
