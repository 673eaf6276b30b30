/**
 * @file
 * Tests of the sweep result cache (sweep/cache.hh): fingerprint and key
 * stability, hit/miss accounting, the on-disk tier's round-trip
 * fidelity (every stored field comes back bit-exact, and cold and warm
 * runs report byte-identically) and its corruption handling.
 */

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
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

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
spit(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** A run whose SimResult fields each hold their own value (a negative
 *  zero and a subnormal among them) beside @p mix, so a field stored
 *  in another's place, or rounded on the way, shows. */
core::KernelRun
distinctRun(const trace::MixStats &mix)
{
    core::KernelRun run;
    auto &s = run.sim;
    s.config = "prime";
    s.instrs = 1001;
    s.cycles = 1002;
    s.ipc = 1.0 / 3.0;
    s.timeSec = 2.5e-7;
    s.l1Mpki = 3.25;
    s.l2Mpki = -0.0;
    s.llcMpki = std::numeric_limits<double>::denorm_min();
    s.l1HitRate = 0.9921875;
    s.feStallPct = 12.5;
    s.beStallPct = 100.0 / 3.0;
    s.dramReads = 1003;
    s.dramWrites = 1004;
    s.dramAccessPerKCycle = 0.1;
    for (size_t i = 0; i < s.byClass.size(); ++i)
        s.byClass[i] = 2000 + i;
    s.vecBytes = 1005;
    s.l1Accesses = 1006;
    s.l2Accesses = 1007;
    s.llcAccesses = 1008;
    s.energyJ = 6.02e-5;
    s.powerW = 1.7;
    run.mix = mix;
    return run;
}

/** Every SimResult field equal, doubles by their bits, and the same
 *  MixStats counters. */
void
expectBitExact(const core::KernelRun &want, const core::KernelRun &got)
{
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    const auto &a = want.sim;
    const auto &b = got.sim;
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(bits(a.ipc), bits(b.ipc));
    EXPECT_EQ(bits(a.timeSec), bits(b.timeSec));
    EXPECT_EQ(bits(a.l1Mpki), bits(b.l1Mpki));
    EXPECT_EQ(bits(a.l2Mpki), bits(b.l2Mpki));
    EXPECT_EQ(bits(a.llcMpki), bits(b.llcMpki));
    EXPECT_EQ(bits(a.l1HitRate), bits(b.l1HitRate));
    EXPECT_EQ(bits(a.feStallPct), bits(b.feStallPct));
    EXPECT_EQ(bits(a.beStallPct), bits(b.beStallPct));
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(bits(a.dramAccessPerKCycle), bits(b.dramAccessPerKCycle));
    EXPECT_EQ(a.byClass, b.byClass);
    EXPECT_EQ(a.vecBytes, b.vecBytes);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(bits(a.energyJ), bits(b.energyJ));
    EXPECT_EQ(bits(a.powerW), bits(b.powerW));
    EXPECT_EQ(want.mix.counters(), got.mix.counters());
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

TEST(SweepCache, EveryResultFieldRoundTripsBitExactly)
{
    const auto dir = tempDir("fields");
    sweep::SweepSpec spec = adlerSpec();
    spec.faults = {"none", "dram-spike:seed=7"};
    std::string err;
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 2u) << err;
    const auto clean = sweep::keyFor(points[0], 1);
    const auto faulted = sweep::keyFor(points[1], 1);
    ASSERT_EQ(clean.faultFp, 0u);
    ASSERT_NE(faulted.faultFp, 0u);

    trace::MixStats mix;
    auto w = points[0].spec->make(points[0].options);
    core::Runner::capturePacked(*w, points[0].impl, points[0].vecBits,
                                &mix);
    ASSERT_GT(mix.vectorInstrs(), 0u);
    const core::KernelRun cleanRun = distinctRun(mix);
    core::KernelRun faultedRun = cleanRun;
    faultedRun.sim.cycles *= 3;
    faultedRun.sim.energyJ *= 3;
    {
        sweep::ResultCache cache(dir);
        cache.store(clean, cleanRun);
        cache.store(faulted, faultedRun);
    }
    {
        // A fresh cache reads both entries off disk.
        sweep::ResultCache cache(dir);
        core::KernelRun got;
        ASSERT_TRUE(cache.lookup(clean, &got));
        expectBitExact(cleanRun, got);
        ASSERT_TRUE(cache.lookup(faulted, &got));
        expectBitExact(faultedRun, got);
        EXPECT_EQ(cache.stats().diskHits, 2u);
    }

    // The faulted entry under the clean key's stem: intact bytes that
    // echo another key, so a plain miss, left in place.
    const auto entry = [&dir](const sweep::CacheKey &k) {
        return std::filesystem::path(dir) / (k.hex() + ".swr");
    };
    std::filesystem::copy_file(
        entry(faulted), entry(clean),
        std::filesystem::copy_options::overwrite_existing);
    sweep::ResultCache cache(dir);
    core::KernelRun got;
    EXPECT_FALSE(cache.lookup(clean, &got));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().corruptEntriesQuarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(entry(clean)));
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
    // Cut the entry inside its frame header: the tag and version stand,
    // the head length and checksum are gone.
    const auto path = std::filesystem::path(dir) / (key.hex() + ".swr");
    ASSERT_TRUE(std::filesystem::exists(path));
    const std::string bytes = slurp(path);
    ASSERT_EQ(bytes.compare(0, 4, "swan"), 0);
    spit(path, bytes.substr(0, 12));
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
        // So is a retired one: v3 results stepped the whole warm-up
        // (sim::kWarmupStepTail), so their cycles may differ in the
        // last digits from what this build computes for the key.
        {
            std::ofstream os(swr, std::ios::binary | std::ios::trunc);
            os << "swan-sweep-result v3\nkernel ZL/adler32\n";
        }
        EXPECT_FALSE(cache.lookup(key, &run));
        const auto st = cache.stats();
        EXPECT_EQ(st.misses, 3u);
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

    // A binary entry of another version (the u32 after the tag) is
    // foreign as well.
    for (const auto &path : {swr, swtp}) {
        std::string bytes = slurp(path);
        ASSERT_GT(bytes.size(), 8u);
        uint32_t version = 0;
        std::memcpy(&version, bytes.data() + 4, sizeof version);
        ++version;
        std::memcpy(bytes.data() + 4, &version, sizeof version);
        spit(path, bytes);
    }
    sweep::ResultCache other(dir);
    EXPECT_FALSE(other.lookup(key, &run));
    EXPECT_FALSE(other.lookupTrace(tkey, &t, &mix));
    EXPECT_EQ(other.stats().misses, 1u);
    EXPECT_EQ(other.stats().traceMisses, 1u);
    EXPECT_EQ(other.stats().corruptEntriesQuarantined, 0u);
    EXPECT_TRUE(std::filesystem::exists(swr));
    EXPECT_TRUE(std::filesystem::exists(swtp));
    std::filesystem::remove_all(dir);
}

TEST(SweepCache, DamagedResultEntryIsQuarantinedAndRecomputedIdentically)
{
    const auto dir = tempDir("damaged");
    std::string err;
    auto points = sweep::expand(adlerSpec(), &err);
    ASSERT_EQ(points.size(), 1u) << err;
    const auto key = sweep::keyFor(points[0], 1);
    const auto path = std::filesystem::path(dir) / (key.hex() + ".swr");
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

    // Leg 0 cuts the entry inside its head, leg 1 flips one head byte
    // (a bad sector), and leg 2 doubles the cycle count in place with
    // the checksum left stale: nothing vouches for those bytes, so the
    // doubled cycles must not be served either.
    for (int leg = 0; leg < 3; ++leg) {
        std::filesystem::remove_all(dir);
        sweep::CacheStats st;
        const std::string cold = sweepOnce(&st);
        core::KernelRun run;
        ASSERT_TRUE(sweep::ResultCache(dir).lookup(key, &run));
        std::string bytes = slurp(path);
        // A result entry has no tail: its head is all but the 24-byte
        // frame header.
        constexpr size_t kFrame = 24;
        ASSERT_GT(bytes.size(), kFrame);
        if (leg == 0) {
            bytes.resize(kFrame + (bytes.size() - kFrame) / 2);
        } else if (leg == 1) {
            bytes[bytes.size() - 2] ^= 0x10;
        } else {
            // cycles follows instrs, as in sim::SimResult.
            const uint64_t pair[2] = {run.sim.instrs, run.sim.cycles};
            const std::string at(reinterpret_cast<const char *>(pair),
                                 sizeof pair);
            const size_t from = bytes.find(at);
            ASSERT_NE(from, std::string::npos);
            ASSERT_EQ(bytes.find(at, from + 1), std::string::npos);
            const uint64_t doubled = 2 * run.sim.cycles;
            bytes.replace(from + 8, 8,
                          reinterpret_cast<const char *>(&doubled), 8);
        }
        spit(path, bytes);

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
