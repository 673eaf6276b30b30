/**
 * @file
 * Tests of the swan::Session façade (swan/session.hh): option
 * precedence (explicit > environment > built-in default), environment
 * parsing robustness, the scheduler configuration a session implies,
 * and the on-disk cache size cap (least recently used entries first,
 * on the cache's own logical clock) the session plumbs through to
 * sweep::ResultCache.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "swan/swan.hh"
#include "trace/packed.hh"
#include "trace/stats.hh"

using namespace swan;

namespace
{

/** Scoped environment override; restores the prior value on exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

std::string
tempDir(const char *tag)
{
    const auto d = std::filesystem::temp_directory_path() /
                   (std::string("swan_api_session_") + tag + "_" +
                    std::to_string(::getpid()));
    std::filesystem::remove_all(d);
    return d.string();
}

/** A distinguishable result for cache round-trips. */
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

TEST(ApiSession, BuiltinDefaultsIgnoreEnvironment)
{
    EnvGuard jobs("SWAN_JOBS", "7");
    EnvGuard dir("SWAN_SWEEP_CACHE_DIR", "/tmp/swan-should-not-be-used");
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "123456");

    Session s; // default ctor: library defaults, no environment
    EXPECT_EQ(s.options().jobs, 1);
    EXPECT_EQ(s.options().warmupPasses, 1);
    EXPECT_TRUE(s.options().cacheDir.empty());
    EXPECT_EQ(s.options().cacheMaxBytes, 0u);
}

TEST(ApiSession, EnvDefaultsReadTheEnvironment)
{
    const auto dir = tempDir("env");
    EnvGuard jobs("SWAN_JOBS", "7");
    EnvGuard dirg("SWAN_SWEEP_CACHE_DIR", dir.c_str());
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "123456");

    const SessionOptions o = Session::envDefaults();
    EXPECT_EQ(o.jobs, 7);
    EXPECT_EQ(o.cacheDir, dir);
    EXPECT_EQ(o.cacheMaxBytes, 123456u);

    std::filesystem::remove_all(dir);
}

TEST(ApiSession, ExplicitOverridesBeatEnvironment)
{
    EnvGuard jobs("SWAN_JOBS", "7");
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "4096");

    // The fromEnv() pattern: environment as defaults, explicit wins.
    const SessionOptions o =
        Session::envDefaults().withJobs(3).withCacheMaxBytes(64);
    EXPECT_EQ(o.jobs, 3);
    EXPECT_EQ(o.cacheMaxBytes, 64u);

    Session s(o);
    EXPECT_EQ(s.options().jobs, 3);
    EXPECT_EQ(s.cache().maxDiskBytes(), 64u);
}

TEST(ApiSession, UnparsableEnvironmentFallsBackToDefaults)
{
    EnvGuard jobs("SWAN_JOBS", "abc");
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "-5x");

    const SessionOptions o = Session::envDefaults();
    EXPECT_EQ(o.jobs, 1);
    EXPECT_EQ(o.cacheMaxBytes, 0u);

    // Plain decimal digits only, within int: 2^32 must not wrap to 0
    // (all cores), and a sign or a leading blank is not a count.
    for (const char *v : {"-4", "4294967296", "+7", " 7", "7 "}) {
        EnvGuard bad("SWAN_JOBS", v);
        EXPECT_EQ(Session::envDefaults().jobs, 1) << v;
    }
    // strtoull would skip the blank and wrap "-1" to 2^64 - 1.
    EnvGuard negCap("SWAN_SWEEP_CACHE_MAX_BYTES", " -1");
    EXPECT_EQ(Session::envDefaults().cacheMaxBytes, 0u);
}

TEST(ApiSession, SchedulerConfigReflectsOptions)
{
    Session s(SessionOptions{}.withJobs(5).withWarmupPasses(2));
    const sweep::SchedulerConfig sc = s.schedulerConfig();
    EXPECT_EQ(sc.jobs, 5);
    EXPECT_EQ(sc.warmupPasses, 2);
    EXPECT_EQ(sc.cache, &s.cache());
}

TEST(ApiSession, CacheDirAndCapArePlumbedThrough)
{
    const auto dir = tempDir("plumb");
    Session s(SessionOptions{}.withCacheDir(dir).withCacheMaxBytes(4096));
    EXPECT_EQ(s.cache().diskDir(), dir);
    EXPECT_EQ(s.cache().maxDiskBytes(), 4096u);
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    std::filesystem::remove_all(dir);
}

TEST(ApiSession, DiskCapPrunesColdestEntriesFirst)
{
    namespace fs = std::filesystem;
    const auto dir = tempDir("prune");

    // Learn one entry's on-disk size, then cap the tier at two entries.
    uint64_t entryBytes = 0;
    {
        sweep::ResultCache probe(dir);
        probe.store(keyNamed("K/probe"), runWithCycles(1));
        entryBytes = probe.diskBytes();
        ASSERT_GT(entryBytes, 0u);
    }
    fs::remove_all(dir);

    const uint64_t cap = 2 * entryBytes + entryBytes / 2;
    sweep::ResultCache cache(dir, cap);
    core::KernelRun got;
    // The scheduler's shape: every point is looked up before its store.
    // Every lookup and store stamps its key with the cache's next
    // logical-clock value; K/a's second lookup (a memory hit) stamps it
    // after K/b's store, so K/b is the least recently used.
    EXPECT_FALSE(cache.lookup(keyNamed("K/a"), &got));
    EXPECT_FALSE(cache.lookup(keyNamed("K/b"), &got));
    cache.store(keyNamed("K/a"), runWithCycles(11));
    cache.store(keyNamed("K/b"), runWithCycles(22));
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.lookup(keyNamed("K/a"), &got));

    EXPECT_FALSE(cache.lookup(keyNamed("K/c"), &got));
    cache.store(keyNamed("K/c"), runWithCycles(33));

    // Least recently used first: K/b goes. Mtimes never enter the
    // decision — the timestamps a copy or a slow filesystem clock would
    // assign cannot reorder eviction.
    EXPECT_LE(cache.diskBytes(), cap);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(
        fs::exists(fs::path(dir) / (keyNamed("K/a").hex() + ".swr")));
    EXPECT_FALSE(
        fs::exists(fs::path(dir) / (keyNamed("K/b").hex() + ".swr")));
    EXPECT_TRUE(
        fs::exists(fs::path(dir) / (keyNamed("K/c").hex() + ".swr")));
    std::filesystem::remove_all(dir);
}

TEST(ApiSession, DiskHitHeatsEntryAgainstEviction)
{
    namespace fs = std::filesystem;
    const auto dir = tempDir("lru");

    uint64_t entryBytes = 0;
    {
        sweep::ResultCache probe(dir);
        probe.store(keyNamed("K/probe"), runWithCycles(1));
        entryBytes = probe.diskBytes();
    }
    fs::remove_all(dir);

    const uint64_t cap = 2 * entryBytes + entryBytes / 2;
    sweep::ResultCache writer(dir, cap);
    writer.store(keyNamed("K/a"), runWithCycles(11));
    writer.store(keyNamed("K/b"), runWithCycles(22));

    // A fresh cache (empty memory map, no history): a disk hit on K/a
    // stamps it on this cache's logical clock and must protect it.
    // K/b, never touched by this cache, has last use 0 and goes first —
    // recorded in the cache's operation sequence, not in the file's
    // mtime.
    sweep::ResultCache reader(dir, cap);
    core::KernelRun got;
    ASSERT_TRUE(reader.lookup(keyNamed("K/a"), &got));
    EXPECT_EQ(got.sim.cycles, 11u);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    EXPECT_FALSE(reader.lookup(keyNamed("K/c"), &got));
    reader.store(keyNamed("K/c"), runWithCycles(33));
    EXPECT_TRUE(
        fs::exists(fs::path(dir) / (keyNamed("K/a").hex() + ".swr")));
    EXPECT_FALSE(
        fs::exists(fs::path(dir) / (keyNamed("K/b").hex() + ".swr")));
    std::filesystem::remove_all(dir);
}

TEST(ApiSession, SameSecondEntriesEvictInStableOrder)
{
    namespace fs = std::filesystem;

    // Two entries written within one mtime granule (enforced with an
    // explicit identical timestamp) plus a cap that forces one out:
    // the victim must be the same on every run of the same sequence —
    // an mtime-ordered tie would be filesystem roulette here.
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
    // The logical clock, not the tied mtimes, picks the victim: K/tie-a
    // was stored first and never touched again.
    EXPECT_EQ(std::find(first.begin(), first.end(),
                        keyNamed("K/tie-a").hex() + ".swr"),
              first.end());
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}

TEST(ApiSession, DiskCapEvictsPackedTracesOnTheSameClock)
{
    namespace fs = std::filesystem;
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());
    const auto packed = trace::PackedTrace::pack(instrs);
    trace::MixStats mix;
    mix.addTrace(instrs);
    sweep::TraceKey tkey;
    tkey.kernel = "ZL/adler32";

    // Learn one trace's and one result's on-disk size, then cap the
    // directory at the trace plus one and a half results.
    uint64_t traceBytes = 0;
    uint64_t resultBytes = 0;
    const auto probeDir = tempDir("trace_probe");
    {
        sweep::ResultCache probe(probeDir);
        probe.storeTrace(tkey, packed, mix);
        traceBytes = probe.diskBytes();
        probe.store(keyNamed("K/a"), runWithCycles(11));
        resultBytes = probe.diskBytes() - traceBytes;
    }
    fs::remove_all(probeDir);
    ASSERT_GT(traceBytes, resultBytes);
    const uint64_t cap = traceBytes + resultBytes + resultBytes / 2;

    // Store the trace, then results A and B; with @p relookup the trace
    // is looked up again before B is stored. @return which of the
    // trace (T), A and B are left on disk.
    const auto runCase = [&](const char *tag, bool relookup) {
        const auto dir = tempDir(tag);
        sweep::ResultCache cache(dir, cap);
        cache.storeTrace(tkey, packed, mix);
        cache.store(keyNamed("K/a"), runWithCycles(11));
        if (relookup) {
            trace::PackedTrace got;
            trace::MixStats gotMix;
            EXPECT_TRUE(cache.lookupTrace(tkey, &got, &gotMix));
        }
        cache.store(keyNamed("K/b"), runWithCycles(22));
        EXPECT_EQ(cache.stats().evictions, 1u) << tag;
        EXPECT_LE(cache.diskBytes(), cap) << tag;
        const auto has = [&dir](const std::string &name) {
            return fs::exists(fs::path(dir) / name);
        };
        std::string left;
        if (has(tkey.hex() + ".swtp"))
            left += "T";
        if (has(keyNamed("K/a").hex() + ".swr"))
            left += "A";
        if (has(keyNamed("K/b").hex() + ".swr"))
            left += "B";
        fs::remove_all(dir);
        return left;
    };
    // Traces and results share one clock: the trace, stored first and
    // never touched again, is the least recently used entry.
    EXPECT_EQ(runCase("trace_lru", false), "AB");
    // A lookup of the trace after A's store makes A the oldest.
    EXPECT_EQ(runCase("trace_relookup", true), "TB");
}
