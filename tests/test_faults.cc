/**
 * @file
 * Fault-injection tests (sim/faults.hh): FaultSpec parsing, the
 * catalog-embedding error path, fingerprint separation, determinism of
 * an injected scenario (same seed, same bytes — including across job
 * counts), the disabled-spec clean-path bit-identity, and
 * the cache-tier separation of faulted vs clean points.
 */

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "sim/faults.hh"
#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"
#include "trace/packed.hh"

using namespace swan;
using trace::Instr;
using trace::PackedTrace;

namespace
{

/** Recorder-shaped randomized trace (same idiom as test_sim_fused). */
std::vector<Instr>
randomTrace(size_t n, uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Instr> out;
    out.reserve(n);
    uint64_t addr = 0x7f0000001000ull + (seed % 7) * 4096;
    for (size_t i = 0; i < n; ++i) {
        Instr ins;
        ins.id = i + 1;
        const auto dep = [&]() -> uint64_t {
            if (i == 0 || rng() % 3 == 0)
                return 0;
            return 1 + rng() % i;
        };
        ins.dep0 = dep();
        ins.dep1 = dep();
        ins.cls = trace::InstrClass(
            rng() % uint64_t(trace::InstrClass::NumClasses));
        ins.fu = trace::Fu(rng() % uint64_t(trace::Fu::NumFus));
        ins.latency = uint8_t(1 + rng() % 20);
        if (ins.isVector()) {
            ins.vecBytes = uint8_t(16 << (rng() % 3));
            ins.lanes = uint8_t(1 + rng() % 16);
            ins.activeLanes = uint8_t(1 + rng() % ins.lanes);
        }
        if (ins.isMem()) {
            addr += rng() % 16 == 0 ? (rng() % (1 << 20)) : (rng() % 256);
            ins.addr = addr;
            ins.size = uint32_t(1 << (rng() % 7));
        }
        out.push_back(ins);
    }
    return out;
}

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.vecBytes, b.vecBytes);
}

sim::FaultSpec
mustParse(const std::string &text)
{
    sim::FaultSpec spec;
    std::string err;
    EXPECT_TRUE(sim::FaultSpec::parse(text, &spec, &err))
        << text << ": " << err;
    return spec;
}

/** Dense scenarios guaranteed to fire several windows inside even a
 *  short trace (period 2000, open 1000 of every slot). */
const char *kDenseSpike = "dram-spike:seed=3:period=2000:duration=1000"
                          ":intensity=32";
const char *kDenseFlush = "cache-flush:seed=3:period=500:duration=250";

/** A load stream that streams through ~1 GB, so a healthy share of
 *  accesses misses the LLC and reaches DRAM — dram-spike needs DRAM
 *  traffic to have anything to inflate. */
std::vector<Instr>
dramHeavyTrace(size_t n, uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Instr> out;
    out.reserve(n);
    uint64_t addr = 0x7f0000001000ull;
    for (size_t i = 0; i < n; ++i) {
        Instr ins;
        ins.id = i + 1;
        ins.cls = trace::InstrClass::SLoad;
        ins.fu = trace::Fu::Load;
        ins.latency = 4;
        addr += (1 << 20) + (rng() % 4096) * 64;
        ins.addr = (addr & ((1ull << 30) - 1)) | 0x7f0000000000ull;
        ins.size = 8;
        out.push_back(ins);
    }
    return out;
}

/** randomTrace plus the test_sim_fused stride block: a healthy share
 *  of memory ops become multi-element gathers/scatters/strided
 *  accesses — the only shape firstfault truncation applies to (the
 *  paper's Neon kernels never emit it; SVE-style traces do). */
std::vector<Instr>
gatherTrace(size_t n, uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Instr> out;
    out.reserve(n);
    uint64_t addr = 0x7f0000001000ull + (seed % 7) * 4096;
    for (size_t i = 0; i < n; ++i) {
        Instr ins;
        ins.id = i + 1;
        const auto dep = [&]() -> uint64_t {
            if (i == 0 || rng() % 3 == 0)
                return 0;
            return 1 + rng() % i;
        };
        ins.dep0 = dep();
        ins.dep1 = dep();
        ins.cls = trace::InstrClass(
            rng() % uint64_t(trace::InstrClass::NumClasses));
        ins.fu = trace::Fu(rng() % uint64_t(trace::Fu::NumFus));
        ins.latency = uint8_t(1 + rng() % 20);
        if (ins.isVector()) {
            ins.vecBytes = uint8_t(16 << (rng() % 3));
            ins.lanes = uint8_t(1 + rng() % 16);
            ins.activeLanes = uint8_t(1 + rng() % ins.lanes);
        }
        if (ins.isMem()) {
            addr += rng() % 16 == 0 ? (rng() % (1 << 20)) : (rng() % 256);
            ins.addr = addr;
            ins.size = uint32_t(1 << (rng() % 7));
            if (rng() % 8 == 0) {
                static const trace::StrideKind kinds[] = {
                    trace::StrideKind::Gather, trace::StrideKind::Scatter,
                    trace::StrideKind::LdS, trace::StrideKind::StS};
                ins.stride = kinds[rng() % 4];
                ins.activeLanes = uint8_t(1 + rng() % 8);
                ins.lanes = std::max(ins.lanes, ins.activeLanes);
                if (ins.stride == trace::StrideKind::LdS ||
                    ins.stride == trace::StrideKind::StS)
                    ins.elemStride = int32_t(rng() % 4096) - 2048;
                ins.addr2 = ins.addr + rng() % (1 << 16);
            }
        }
        out.push_back(ins);
    }
    return out;
}

} // namespace

TEST(FaultSpec, ParseRoundTripsThroughDescribe)
{
    const auto spec = mustParse("dram-spike:seed=7:intensity=16");
    EXPECT_EQ(spec.scenario, sim::FaultScenario::DramSpike);
    EXPECT_TRUE(spec.enabled());
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.intensity, 16.0);
    EXPECT_EQ(spec.effectiveIntensity(), 16.0);

    const auto again = mustParse(spec.describe());
    EXPECT_EQ(spec.fingerprint(), again.fingerprint());
    EXPECT_EQ(spec.describe(), again.describe());
}

TEST(FaultSpec, EmptyAndNoneAreDisabledWithZeroFingerprint)
{
    for (const char *text : {"", "none"}) {
        const auto spec = mustParse(text);
        EXPECT_FALSE(spec.enabled()) << text;
        EXPECT_EQ(spec.fingerprint(), 0u) << text;
    }
}

TEST(FaultSpec, PerScenarioIntensityDefaults)
{
    EXPECT_EQ(mustParse("dram-spike").effectiveIntensity(), 8.0);
    EXPECT_EQ(mustParse("cache-flush").effectiveIntensity(), 4.0);
    EXPECT_EQ(mustParse("mispredict-burst").effectiveIntensity(), 0.25);
    EXPECT_EQ(mustParse("firstfault").effectiveIntensity(), 1.0);
}

TEST(FaultSpec, BadInputFailsWithCatalogInTheMessage)
{
    sim::FaultSpec spec;
    for (const char *bad : {"dram-spikes", "dram-spike:bogus=1",
                            "dram-spike:seed=x", "dram-spike:period=0"}) {
        std::string err;
        EXPECT_FALSE(sim::FaultSpec::parse(bad, &spec, &err)) << bad;
        // The message must teach the valid catalog, not just reject.
        for (const char *scen : {"dram-spike", "cache-flush",
                                 "mispredict-burst", "firstfault"})
            EXPECT_NE(err.find(scen), std::string::npos)
                << bad << " -> " << err;
    }
}

TEST(FaultSpec, OutOfRangeValuesAreRejectedWithTheCatalog)
{
    // A rate above 1 truncates the mispredict interval to 0 ("never"),
    // a non-finite or huge intensity reaches an undefined
    // float-to-integer conversion, and a signed or overflowing integer
    // would wrap: each must be rejected.
    sim::FaultSpec spec;
    for (const char *bad :
         {"mispredict-burst:intensity=2", "mispredict-burst:intensity=1.5",
          "dram-spike:intensity=inf", "dram-spike:intensity=nan",
          "dram-spike:intensity=1e30", "dram-spike:intensity=101",
          "cache-flush:intensity=1e30", "cache-flush:intensity=1001",
          "firstfault:intensity=1e10", "firstfault:intensity=256",
          "dram-spike:period=-1", "dram-spike:seed=-1",
          "dram-spike:duration=+5", "dram-spike:seed= 7",
          "dram-spike:period=18446744073709551616"}) {
        std::string err;
        EXPECT_FALSE(sim::FaultSpec::parse(bad, &spec, &err)) << bad;
        EXPECT_NE(err.find("fault scenario catalog"), std::string::npos)
            << bad << " -> " << err;
    }
    // The edges of every range still parse.
    EXPECT_EQ(mustParse("mispredict-burst:intensity=1").intensity, 1.0);
    EXPECT_EQ(mustParse("dram-spike:intensity=100").intensity, 100.0);
    EXPECT_EQ(mustParse("cache-flush:intensity=1000").intensity, 1000.0);
    EXPECT_EQ(mustParse("firstfault:intensity=255").intensity, 255.0);
    EXPECT_EQ(mustParse("dram-spike:intensity=0").effectiveIntensity(),
              8.0);
    EXPECT_EQ(mustParse("dram-spike:seed=18446744073709551615").seed,
              ~uint64_t(0));
}

TEST(FaultSpec, CountValuedIntensitiesKeepTheCountThatApplies)
{
    // A 10-instruction window fires at most 10 flushes, and flush and
    // element counts round down: specs that replay alike must share
    // one label and one cache identity.
    const std::string window =
        "cache-flush:seed=1:period=1000:duration=10:intensity=";
    const std::pair<std::string, std::string> alike[] = {
        {window + "10", window + "1000"},
        {window + "2", window + "2.5"},
        {"firstfault:intensity=2", "firstfault:intensity=2.5"},
    };
    for (const auto &[a, b] : alike) {
        const auto sa = mustParse(a);
        const auto sb = mustParse(b);
        EXPECT_EQ(sa.describe(), sb.describe()) << a << " vs " << b;
        EXPECT_EQ(sa.fingerprint(), sb.fingerprint()) << a << " vs " << b;
    }
    EXPECT_EQ(mustParse(window + "1000").describe(),
              "cache-flush:seed=1:period=1000:duration=10:intensity=10");
    // The cap applies to the intensity as written.
    sim::FaultSpec spec;
    EXPECT_FALSE(
        sim::FaultSpec::parse("cache-flush:intensity=1001", &spec, nullptr));
}

TEST(FaultSpec, FingerprintSeparatesScenariosAndParameters)
{
    const std::vector<std::string> specs = {
        "dram-spike",          "cache-flush",
        "mispredict-burst",    "firstfault",
        "dram-spike:seed=2",   "dram-spike:period=1000",
        "dram-spike:duration=100", "dram-spike:intensity=2",
    };
    std::vector<uint64_t> fps;
    for (const auto &s : specs)
        fps.push_back(mustParse(s).fingerprint());
    for (size_t i = 0; i < fps.size(); ++i) {
        EXPECT_NE(fps[i], 0u) << specs[i];
        for (size_t j = i + 1; j < fps.size(); ++j)
            EXPECT_NE(fps[i], fps[j]) << specs[i] << " vs " << specs[j];
    }
}

TEST(FaultSim, DisabledSpecIsBitIdenticalToCleanSimulation)
{
    const auto packed = PackedTrace::pack(randomTrace(4000, 17));
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig(),
                                               sim::goldConfig()};
    const auto clean = sim::simulateTraceMany(packed, cfgs, 2);
    const auto viaFault =
        sim::simulateTraceMany(packed, cfgs, mustParse("none"), 2);
    ASSERT_EQ(clean.size(), viaFault.size());
    for (size_t i = 0; i < clean.size(); ++i)
        expectSameResult(clean[i], viaFault[i]);
}

TEST(FaultSim, BurstOpeningAtTheFirstInstructionGovernsIt)
{
    // period = duration = the trace length: window 0 opens at
    // instruction 0, in the payload's begin(), and stays open for the
    // whole pass. With no warm-up the burst must then replay exactly
    // like the clean driver at the burst's rate, for one core and for
    // the nine Figure 4/5(b) cores.
    std::vector<Instr> prog;
    for (uint64_t id = 1; id <= 40000; ++id) {
        Instr i;
        i.id = id;
        i.latency = 1;
        i.cls = id % 2 ? trace::InstrClass::SInt : trace::InstrClass::Branch;
        i.fu = id % 2 ? trace::Fu::SAlu : trace::Fu::Branch;
        prog.push_back(i);
    }
    const auto packed = PackedTrace::pack(prog);
    const std::string n = std::to_string(packed.size());
    const auto burst = mustParse("mispredict-burst:period=" + n +
                                 ":duration=" + n + ":intensity=0.5");
    std::vector<sim::CoreConfig> nine = {sim::primeConfig(),
                                         sim::goldConfig(),
                                         sim::silverConfig()};
    const int shapes[][2] = {{4, 2}, {4, 4}, {4, 6}, {6, 6}, {4, 8}, {8, 8}};
    for (const auto &wv : shapes)
        nine.push_back(sim::scalabilityConfig(wv[0], wv[1]));
    for (const auto &cfgs :
         {std::vector<sim::CoreConfig>{sim::primeConfig()}, nine}) {
        auto half = cfgs;
        for (auto &c : half)
            c.branchMispredictRate = 0.5;
        const auto got = sim::simulateTraceMany(packed, cfgs, burst, 0);
        const auto want = sim::simulateTraceMany(packed, half, 0);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE(cfgs[i].name);
            expectSameResult(got[i], want[i]);
            EXPECT_EQ(got[i].feStallPct, want[i].feStallPct);
            EXPECT_EQ(got[i].energyJ, want[i].energyJ);
        }
    }
}

TEST(FaultSim, ScenarioPerturbsResultsDeterministically)
{
    // DRAM-heavy stream: the spike multiplies DRAM latency, so it
    // needs LLC misses to have anything to inflate.
    const auto packed = PackedTrace::pack(dramHeavyTrace(6000, 23));
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig()};
    const auto spec = mustParse(kDenseSpike);

    const auto clean = sim::simulateTraceMany(packed, cfgs, 1);
    ASSERT_GT(clean[0].dramReads, 0u);
    const auto hurt = sim::simulateTraceMany(packed, cfgs, spec, 1);
    const auto hurtAgain = sim::simulateTraceMany(packed, cfgs, spec, 1);
    ASSERT_EQ(hurt.size(), 1u);

    // The fault must actually bite (DRAM 32x slower inside half of
    // every 2000-instruction slot), and bite the same way every time.
    EXPECT_GT(hurt[0].cycles, clean[0].cycles);
    expectSameResult(hurt[0], hurtAgain[0]);

    // A different seed shifts the windows: same scenario, different
    // (but still deterministic) trajectory.
    auto reseeded = spec;
    reseeded.seed = 99;
    const auto other = sim::simulateTraceMany(packed, cfgs, reseeded, 1);
    EXPECT_NE(other[0].cycles, hurt[0].cycles);

    // A cache-flush storm perturbs even a cache-friendly stream (the
    // re-cooled hierarchy must re-fill).
    const auto friendly = PackedTrace::pack(randomTrace(6000, 23));
    const auto fclean = sim::simulateTraceMany(friendly, cfgs, 1);
    const auto fhurt =
        sim::simulateTraceMany(friendly, cfgs, mustParse(kDenseFlush), 1);
    EXPECT_GT(fhurt[0].cycles, fclean[0].cycles);
}

TEST(FaultSim, FirstFaultTruncatesMultiElementAccesses)
{
    // Truncation applies only to multi-element (gather/scatter/
    // strided) accesses; gatherTrace carries a healthy share of them.
    const auto packed = PackedTrace::pack(gatherTrace(6000, 23));
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig()};
    const auto spec =
        mustParse("firstfault:seed=3:period=2000:duration=1000");

    const auto clean = sim::simulateTraceMany(packed, cfgs, 2);
    const auto hurt = sim::simulateTraceMany(packed, cfgs, spec, 2);
    const auto hurtAgain = sim::simulateTraceMany(packed, cfgs, spec, 2);

    // Clamping lanes changes the memory footprint the cache hierarchy
    // sees — deterministically so.
    EXPECT_NE(hurt[0].cycles, clean[0].cycles);
    EXPECT_NE(hurt[0].l1Mpki, clean[0].l1Mpki);
    expectSameResult(hurt[0], hurtAgain[0]);

    // The same spec leaves a no-multi-op stream untouched: nothing to
    // truncate means bit-identical to clean (the paper's Neon kernel
    // set is in this regime — no hardware gather). A payload replay
    // steps its whole warm-up, and the clean one does too only while
    // the trace fits the warm-up's stepped tail; past it the clean
    // replay restarts DRAM timing at the tail and may differ in its
    // last digits.
    static_assert(4000 <= sim::kWarmupStepTail);
    const auto scalarish = PackedTrace::pack(randomTrace(4000, 17));
    const auto sclean = sim::simulateTraceMany(scalarish, cfgs, 2);
    const auto shurt = sim::simulateTraceMany(scalarish, cfgs, spec, 2);
    expectSameResult(sclean[0], shurt[0]);
}

TEST(FaultSim, CacheFlushStormFiresAtMostOneFlushPerWindowInstruction)
{
    // A 10-instruction window holds at most 10 flushes: asking for
    // more must neither flush past the window's end nor delay the next
    // window, so intensity 20 and 1000 replay exactly like 10.
    const auto packed = PackedTrace::pack(randomTrace(6000, 29));
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig()};
    const char *window = "cache-flush:seed=1:period=1000:duration=10";
    const auto storm = [&](const char *intensity) {
        return sim::simulateTraceMany(
            packed, cfgs,
            mustParse(std::string(window) + ":intensity=" + intensity), 1);
    };
    const auto ten = storm("10");
    EXPECT_GT(ten[0].cycles, sim::simulateTraceMany(packed, cfgs, 1)[0].cycles);
    expectSameResult(storm("20")[0], ten[0]);
    expectSameResult(storm("1000")[0], ten[0]);
}

TEST(FaultCache, FaultedAndCleanPointsNeverShareEntries)
{
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    spec.faults = {"none", kDenseFlush};
    std::string err;
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 2u) << err;

    const auto clean = sweep::keyFor(points[0], 1);
    const auto faulted = sweep::keyFor(points[1], 1);
    EXPECT_EQ(clean.faultFp, 0u);
    EXPECT_NE(faulted.faultFp, 0u);
    EXPECT_FALSE(clean == faulted);
    EXPECT_NE(clean.hash(), faulted.hash());

    // Cold run: both points simulate and store under their own keys;
    // a warm rerun serves each point from its own entry.
    sweep::ResultCache cache;
    sweep::SchedulerConfig sc;
    sc.cache = &cache;
    auto cold = sweep::runSweep(points, sc);
    ASSERT_EQ(cold.size(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().stores, 2u);
    auto warm = sweep::runSweep(points, sc);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cold[0].run.sim.cycles, warm[0].run.sim.cycles);
    EXPECT_EQ(cold[1].run.sim.cycles, warm[1].run.sim.cycles);
    // The two entries hold genuinely different results.
    EXPECT_NE(cold[0].run.sim.cycles, cold[1].run.sim.cycles);
}

namespace
{

/** Scratch disk cache primed with traces so every run replays
 *  identical pinned instruction streams, with a fault axis on the
 *  grid. */
class FaultJobsFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sweep::SweepSpec spec;
        spec.kernels.names = {"ZL/adler32", "OR/memcpy"};
        spec.impls = {core::Impl::Neon};
        spec.configs = {"prime"};
        spec.workingSets = {"tiny"};
        spec.faults = {"none", kDenseSpike, "firstfault:seed=3"};
        std::string err;
        points_ = sweep::expand(spec, &err);
        ASSERT_EQ(points_.size(), 6u) << err;
        dir_ = std::filesystem::temp_directory_path() /
               ("swan_fault_jobs_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        sweep::ResultCache prime(dir_.string());
        sweep::SchedulerConfig sc;
        sc.cache = &prime;
        sc.warmupPasses = 2; // prime traces, never the default results
        sweep::runSweep(points_, sc);
        dropResults();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    void
    dropResults()
    {
        for (const auto &e : std::filesystem::directory_iterator(dir_))
            if (e.path().extension() == ".swr")
                std::filesystem::remove(e.path());
    }

    std::string
    runWith(int jobs)
    {
        dropResults();
        sweep::ResultCache cache(dir_.string());
        sweep::SchedulerConfig sc;
        sc.jobs = jobs;
        sc.cache = &cache;
        auto results = sweep::runSweep(points_, sc);
        EXPECT_TRUE(sweep::anyFaulted(results));
        std::ostringstream os;
        sweep::emitResults(os, results, sweep::Format::JsonLines);
        return os.str();
    }

    std::vector<sweep::SweepPoint> points_;
    std::filesystem::path dir_;
};

} // namespace

TEST_F(FaultJobsFixture, SameSeedIsByteIdenticalAcrossJobs)
{
    const std::string reference = runWith(1);
    ASSERT_FALSE(reference.empty());

    // The fault column is present and carries the scenario label.
    EXPECT_NE(reference.find("\"fault\":\"none\""), std::string::npos);
    EXPECT_NE(reference.find("\"fault\":\"dram-spike"), std::string::npos);
    EXPECT_NE(reference.find("\"fault\":\"firstfault"), std::string::npos);

    for (int jobs : {2, 4})
        EXPECT_EQ(reference, runWith(jobs)) << "jobs=" << jobs;
}
