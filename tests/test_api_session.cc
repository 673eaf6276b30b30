/**
 * @file
 * Tests of the swan::Session façade (swan/session.hh): option
 * precedence (explicit > environment > built-in default), environment
 * parsing robustness, the scheduler configuration a session implies,
 * and the on-disk cache size cap (deterministic coldest-first pruning
 * by lookup hotness — see docs/cache.md) the session plumbs through to
 * sweep::ResultCache.
 */

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "swan/swan.hh"

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
    EnvGuard memo("SWAN_TRACE_MEMO_BYTES", "4096");
    EnvGuard dir("SWAN_SWEEP_CACHE_DIR", "/tmp/swan-should-not-be-used");
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "123456");

    Session s; // default ctor: library defaults, no environment
    EXPECT_EQ(s.options().jobs, 1);
    EXPECT_EQ(s.options().warmupPasses, 1);
    EXPECT_EQ(s.options().traceMemoBytes, 0u);
    EXPECT_TRUE(s.options().cacheDir.empty());
    EXPECT_EQ(s.options().cacheMaxBytes, 0u);
}

TEST(ApiSession, EnvDefaultsReadTheEnvironment)
{
    const auto dir = tempDir("env");
    EnvGuard jobs("SWAN_JOBS", "7");
    EnvGuard memo("SWAN_TRACE_MEMO_BYTES", "4096");
    EnvGuard dirg("SWAN_SWEEP_CACHE_DIR", dir.c_str());
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "123456");

    const SessionOptions o = Session::envDefaults();
    EXPECT_EQ(o.jobs, 7);
    EXPECT_EQ(o.traceMemoBytes, 4096u);
    EXPECT_EQ(o.cacheDir, dir);
    EXPECT_EQ(o.cacheMaxBytes, 123456u);

    std::filesystem::remove_all(dir);
}

TEST(ApiSession, ExplicitOverridesBeatEnvironment)
{
    EnvGuard jobs("SWAN_JOBS", "7");
    EnvGuard memo("SWAN_TRACE_MEMO_BYTES", "4096");

    // The fromEnv() pattern: environment as defaults, explicit wins.
    const SessionOptions o =
        Session::envDefaults().withJobs(3).withTraceMemoBytes(64);
    EXPECT_EQ(o.jobs, 3);
    EXPECT_EQ(o.traceMemoBytes, 64u);

    Session s(o);
    EXPECT_EQ(s.options().jobs, 3);
    EXPECT_EQ(s.options().traceMemoBytes, 64u);
}

TEST(ApiSession, UnparsableEnvironmentFallsBackToDefaults)
{
    EnvGuard jobs("SWAN_JOBS", "abc");
    EnvGuard memo("SWAN_TRACE_MEMO_BYTES", "12kb");
    EnvGuard cap("SWAN_SWEEP_CACHE_MAX_BYTES", "-5x");
    // strtoull would skip the blank and wrap "-1" to 2^64 - 1.
    EnvGuard ram("SWAN_CACHE_RAM_BYTES", " -1");

    const SessionOptions o = Session::envDefaults();
    EXPECT_EQ(o.jobs, 1);
    EXPECT_EQ(o.traceMemoBytes, 0u);
    EXPECT_EQ(o.cacheMaxBytes, 0u);
    EXPECT_EQ(o.cacheRamMaxBytes, 0u);

    EnvGuard negative("SWAN_JOBS", "-4");
    EXPECT_EQ(Session::envDefaults().jobs, 1);
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
    // The scheduler's shape: every point is looked up before its store,
    // so each key carries a hotness record. K/a is looked up twice —
    // the hottest; K/b and K/c tie at one lookup each, and K/b saw its
    // first lookup earlier.
    EXPECT_FALSE(cache.lookup(keyNamed("K/a"), &got));
    EXPECT_FALSE(cache.lookup(keyNamed("K/b"), &got));
    cache.store(keyNamed("K/a"), runWithCycles(11));
    cache.store(keyNamed("K/b"), runWithCycles(22));
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.lookup(keyNamed("K/a"), &got));

    EXPECT_FALSE(cache.lookup(keyNamed("K/c"), &got));
    cache.store(keyNamed("K/c"), runWithCycles(33));

    // Coldest-first, tie on first-lookup order: K/b goes. Mtimes never
    // enter the decision — the timestamps a copy or a slow filesystem
    // clock would assign cannot reorder eviction.
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

    // A fresh cache (empty memory tier, no lookup history): a disk hit
    // on K/a is demand evidence and must protect it, exactly as the
    // old LRU's stamp refresh did — but recorded in the lookup
    // sequence, not in the file's mtime.
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
