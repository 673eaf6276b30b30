/**
 * @file
 * Tests of the sweep result cache (sweep/cache.hh): fingerprint and key
 * stability, hit/miss accounting, the on-disk tier's round-trip
 * fidelity (cold and warm lookups must be byte-identical through the
 * emitters) and its corruption handling.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"

using namespace swan;

namespace
{

std::string
tempDir(const char *tag)
{
    const auto d = std::filesystem::temp_directory_path() /
                   (std::string("swan_sweep_cache_") + tag + "_" +
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

} // namespace

TEST(SweepCache, FingerprintSeparatesConfigs)
{
    const auto prime = sweep::fingerprint(sim::primeConfig());
    EXPECT_EQ(prime, sweep::fingerprint(sim::primeConfig()));
    EXPECT_NE(prime, sweep::fingerprint(sim::goldConfig()));
    EXPECT_NE(prime, sweep::fingerprint(sim::silverConfig()));
    EXPECT_NE(sweep::fingerprint(sim::widerVectorConfig(256)),
              sweep::fingerprint(sim::widerVectorConfig(512)));

    auto tweaked = sim::primeConfig();
    tweaked.mshrs += 1;
    EXPECT_NE(prime, sweep::fingerprint(tweaked));
}

TEST(SweepCache, FingerprintSeparatesOptions)
{
    core::Options a, b;
    EXPECT_EQ(sweep::fingerprint(a), sweep::fingerprint(b));
    b.bufferBytes += 1;
    EXPECT_NE(sweep::fingerprint(a), sweep::fingerprint(b));
    b = a;
    b.seed ^= 1;
    EXPECT_NE(sweep::fingerprint(a), sweep::fingerprint(b));
}

TEST(SweepCache, KeyIdentityAndStability)
{
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto k1 = sweep::keyFor(points[0], 1);
    const auto k2 = sweep::keyFor(points[0], 1);
    EXPECT_TRUE(k1 == k2);
    EXPECT_EQ(k1.hash(), k2.hash());
    EXPECT_EQ(k1.hex().size(), 16u);

    const auto k3 = sweep::keyFor(points[0], 2);
    EXPECT_FALSE(k1 == k3);
    EXPECT_NE(k1.hash(), k3.hash());
}

TEST(SweepCache, MemoryTierHitMissCounters)
{
    sweep::ResultCache cache;
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    sweep::SchedulerConfig sc;
    sc.cache = &cache;
    auto cold = sweep::runSweep(points, sc);
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_FALSE(cold[0].cacheHit);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().stores, 1u);

    auto warm = sweep::runSweep(points, sc);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_TRUE(warm[0].cacheHit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    EXPECT_EQ(cold[0].run.sim.cycles, warm[0].run.sim.cycles);
    EXPECT_EQ(cold[0].run.mix.total(), warm[0].run.mix.total());
}

TEST(SweepCache, DiskTierColdAndWarmRunsAreByteIdentical)
{
    const auto dir = tempDir("roundtrip");
    std::string err;
    sweep::SweepSpec spec = adlerSpec();
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 4u) << err;

    std::ostringstream cold, warm;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        auto results = sweep::runSweep(points, sc);
        sweep::emitResults(cold, results, sweep::Format::JsonLines);
        EXPECT_EQ(cache.stats().misses, 4u);
    }
    {
        // Fresh in-process cache: every lookup must come off disk, and
        // nothing may re-simulate.
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        auto results = sweep::runSweep(points, sc);
        sweep::emitResults(warm, results, sweep::Format::JsonLines);
        EXPECT_EQ(cache.stats().diskHits, 4u);
        EXPECT_EQ(cache.stats().misses, 0u);
        for (const auto &r : results)
            EXPECT_TRUE(r.cacheHit);
    }
    EXPECT_EQ(cold.str(), warm.str());
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, CorruptDiskEntryDegradesToMiss)
{
    const auto dir = tempDir("corrupt");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto key = sweep::keyFor(points[0], 1);

    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points, sc);
    }
    // Truncate the entry under the current header: the mix line
    // disappears.
    const auto path = std::filesystem::path(dir) / (key.hex() + ".swr");
    ASSERT_TRUE(std::filesystem::exists(path));
    std::string magic;
    {
        std::ifstream is(path);
        std::getline(is, magic);
    }
    ASSERT_EQ(magic.rfind("swan-sweep-result v", 0), 0u) << magic;
    {
        std::ofstream os(path, std::ios::trunc);
        os << magic << "\nkernel ZL/adler32\n";
    }
    sweep::ResultCache cache(dir);
    core::KernelRun run;
    EXPECT_FALSE(cache.lookup(key, &run));
    EXPECT_EQ(cache.stats().misses, 1u);
    // Truncation is structural damage: the entry is quarantined, not
    // left in place to fail validation on every future lookup.
    EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"));
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, OtherFormatVersionIsAPlainMiss)
{
    const auto dir = tempDir("version");
    std::filesystem::create_directories(dir);
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto key = sweep::keyFor(points[0], 1);
    const auto tkey = sweep::traceKeyFor(points[0]);
    const auto swr = std::filesystem::path(dir) / (key.hex() + ".swr");
    const auto swtp = std::filesystem::path(dir) / (tkey.hex() + ".swtp");

    // Entries as a previous build wrote them: the v1 result header and
    // a version-2 packed-trace header, each with a plausible body.
    {
        std::ofstream os(swr, std::ios::binary);
        os << "swan-sweep-result v1\nkernel ZL/adler32\nimpl 2\n"
              "sim.cycles 1234\nmix 1 2 3\n";
    }
    {
        std::ofstream os(swtp, std::ios::binary);
        const uint32_t version = 2;
        os.write("SWTP", 4);
        os.write(reinterpret_cast<const char *>(&version), sizeof version);
        os << std::string(64, '\x5a');
    }
    {
        sweep::ResultCache cache(dir);
        core::KernelRun run;
        EXPECT_FALSE(cache.lookup(key, &run));
        trace::PackedTrace t;
        trace::MixStats mix;
        EXPECT_FALSE(cache.lookupTrace(tkey, &t, &mix));
        // A newer build's entry is foreign too, not damage.
        {
            std::ofstream os(swr, std::ios::binary | std::ios::trunc);
            os << "swan-sweep-result v99\nkernel ZL/adler32\n";
        }
        EXPECT_FALSE(cache.lookup(key, &run));
        const auto st = cache.stats();
        EXPECT_EQ(st.misses, 2u);
        EXPECT_EQ(st.traceMisses, 1u);
        EXPECT_EQ(st.corruptEntriesQuarantined, 0u);
        EXPECT_TRUE(std::filesystem::exists(swr));
        EXPECT_TRUE(std::filesystem::exists(swtp));
        for (const auto &e : std::filesystem::directory_iterator(dir))
            EXPECT_NE(e.path().extension(), ".quarantined") << e.path();

        // The recomputed entries replace the foreign ones in place.
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        const auto results = sweep::runSweep(points, sc);
        ASSERT_EQ(results.size(), 1u);
        EXPECT_FALSE(results[0].cacheHit);
        EXPECT_EQ(cache.stats().traceStores, 1u);
    }
    sweep::ResultCache warm(dir);
    core::KernelRun run;
    EXPECT_TRUE(warm.lookup(key, &run));
    EXPECT_GT(run.sim.cycles, 0u);
    trace::PackedTrace t;
    trace::MixStats mix;
    EXPECT_TRUE(warm.lookupTrace(tkey, &t, &mix));
    EXPECT_EQ(mix.total(), run.mix.total());
    EXPECT_EQ(warm.stats().corruptEntriesQuarantined, 0u);
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, DamagedResultEntryIsQuarantinedAndRecomputedIdentically)
{
    const auto dir = tempDir("damaged");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto path = std::filesystem::path(dir) /
                      (sweep::keyFor(points[0], 1).hex() + ".swr");
    // One sweep through a fresh in-process cache on the directory.
    const auto sweepOnce = [&](sweep::CacheStats *stats) {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        std::ostringstream os;
        sweep::emitResults(os, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
        *stats = cache.stats();
        return os.str();
    };

    // Both damages leave an entry that still parses line by line. Leg 0
    // flips one body byte (a bad sector, not a truncation), so the
    // checksum no longer matches. Leg 1 misspells the checksum tag and
    // doubles the cycle count: with no checksum line nothing vouches
    // for the body, so it must not serve the doubled cycles either.
    for (int leg = 0; leg < 2; ++leg) {
        std::filesystem::remove_all(dir);
        sweep::CacheStats st;
        const std::string cold = sweepOnce(&st);
        std::string body;
        {
            std::ifstream is(path, std::ios::binary);
            ASSERT_TRUE(is) << path;
            std::ostringstream ss;
            ss << is.rdbuf();
            body = ss.str();
        }
        if (leg == 0) {
            char &c = body[body.size() - 2];
            c = c == '1' ? '2' : '1';
        } else {
            const size_t tag = body.find("\nchecksum ");
            const size_t at = body.find("\nsim.cycles ");
            ASSERT_NE(tag, std::string::npos);
            ASSERT_NE(at, std::string::npos);
            body[tag + 8] = 'n';
            const size_t from = at + 12;
            const size_t len = body.find('\n', from) - from;
            const uint64_t cycles = std::stoull(body.substr(from, len));
            body.replace(from, len, std::to_string(2 * cycles));
        }
        std::ofstream(path, std::ios::binary | std::ios::trunc) << body;

        const std::string recompute = sweepOnce(&st);
        EXPECT_EQ(st.misses, 1u) << leg;
        EXPECT_EQ(st.diskHits, 0u) << leg;
        EXPECT_EQ(st.corruptEntriesQuarantined, 1u) << leg;
        EXPECT_EQ(st.stores, 1u) << leg;
        EXPECT_TRUE(std::filesystem::exists(path.string() + ".quarantined"))
            << leg;
        // The quarantined bytes are never served again; the recompute
        // replays the same trace, so its report is byte-identical.
        EXPECT_EQ(cold, recompute) << leg;
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, CorruptTraceEntryIsQuarantinedAndRecaptured)
{
    const auto dir = tempDir("badtrace");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points, sc);
        EXPECT_EQ(cache.stats().traceStores, 1u);
    }
    // Damage the packed trace and drop the stored result so the next
    // run must reach for the trace tier.
    const auto tpath = std::filesystem::path(dir) /
                       (sweep::traceKeyFor(points[0]).hex() + ".swtp");
    ASSERT_TRUE(std::filesystem::exists(tpath));
    {
        std::fstream f(tpath, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto mid = std::streamoff(f.tellg()) / 2;
        char c = 0;
        f.seekg(mid);
        f.get(c);
        f.seekp(mid);
        f.put(char(c ^ 0x40));
    }
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".swr")
            std::filesystem::remove(e.path());

    std::ostringstream recapture, warm;
    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::emitResults(recapture, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
        // The damaged trace degrades to a capture (not an abort), is
        // quarantined, and a fresh trace is stored in its place.
        EXPECT_EQ(cache.stats().traceHits, 0u);
        EXPECT_EQ(cache.stats().traceMisses, 1u);
        EXPECT_EQ(cache.stats().traceStores, 1u);
        EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 1u);
    }
    EXPECT_TRUE(
        std::filesystem::exists(tpath.string() + ".quarantined"));
    {
        // The re-stored trace and result serve a warm run byte-for-byte.
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::emitResults(warm, sweep::runSweep(points, sc),
                           sweep::Format::JsonLines);
        EXPECT_EQ(cache.stats().diskHits, 1u);
        EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 0u);
    }
    EXPECT_EQ(recapture.str(), warm.str());
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, WrongKeyedEntryIsIgnored)
{
    const auto dir = tempDir("mismatch");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;

    {
        sweep::ResultCache cache(dir);
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points, sc);
    }
    // Same file, different key (as after a hash collision or a stale
    // rename): the full-key check must reject it.
    const auto key = sweep::keyFor(points[0], 1);
    auto other = key;
    other.vecBits = 256;
    const auto from = std::filesystem::path(dir) / (key.hex() + ".swr");
    const auto to = std::filesystem::path(dir) / (other.hex() + ".swr");
    std::filesystem::copy_file(from, to);

    sweep::ResultCache cache(dir);
    core::KernelRun run;
    EXPECT_FALSE(cache.lookup(other, &run));
    EXPECT_TRUE(cache.lookup(key, &run));
    // Foreign-but-well-formed bytes are not corruption: the entry
    // stays in place and nothing is quarantined.
    EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(to));
    std::filesystem::remove_all(dir);
}
