/**
 * @file
 * Fused replay engine equivalence (sim::replay, sim/core_model.cc):
 * every model of a fused replay must produce the SimResult of its
 * configuration replayed alone (simulateTrace on a private hierarchy),
 * for in-order and out-of-order configurations, any warm-up pass
 * count, config groups of 1..12, and streams with mid-trace id
 * restarts (the concatenated traces the perf smoke replays).
 * Configurations of equal cache geometry share one functional
 * hierarchy under simulateTraceMany and must still match
 * private-hierarchy runs. simulateTraceMany steps only the last
 * kWarmupStepTail warm-up instructions: against a fully stepped
 * warm-up (runFused) it must keep every count, and every cycle where
 * nothing but the pipeline carries over. Pinned integers hold the
 * step core itself where a comparison would only set fused replay
 * against itself.
 */

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "sim/core_model.hh"
#include "trace/packed.hh"

using namespace swan;
using trace::Instr;
using trace::PackedTrace;

namespace
{

/** Recorder-shaped randomized trace (sequential 1-based ids, producer
 *  deps behind the consumer, occasional multi-address records). */
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

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.feStallPct, b.feStallPct);
    EXPECT_EQ(a.beStallPct, b.beStallPct);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.byClass, b.byClass);
    EXPECT_EQ(a.vecBytes, b.vecBytes);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.timeSec, b.timeSec);
    EXPECT_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_EQ(a.dramAccessPerKCycle, b.dramAccessPerKCycle);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.powerW, b.powerW);
}

/** What a tail warm-up keeps of a fully stepped one: the instruction
 *  mix and every cache and DRAM count. */
void
expectSameCounts(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.byClass, b.byClass);
    EXPECT_EQ(a.vecBytes, b.vecBytes);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
}

/** Warmup + measured pass through the fused engine, every warm-up
 *  instruction stepped. */
std::vector<sim::SimResult>
runFused(const PackedTrace &packed,
         const std::vector<sim::CoreConfig> &cfgs, int warmup)
{
    std::vector<std::unique_ptr<sim::CoreModel>> models;
    std::vector<sim::CoreModel *> ptrs;
    for (const auto &c : cfgs) {
        models.push_back(std::make_unique<sim::CoreModel>(c));
        ptrs.push_back(models.back().get());
    }
    const std::span<sim::CoreModel *const> span(ptrs.data(), ptrs.size());
    for (int p = 0; p < warmup; ++p)
        sim::replay(packed, span);
    for (auto &m : models)
        m->beginMeasurement();
    sim::replay(packed, span);
    std::vector<sim::SimResult> out;
    for (auto &m : models)
        out.push_back(m->finish());
    return out;
}

/** The reference: @p cfg replayed alone on a private hierarchy. */
sim::SimResult
replayAlone(const PackedTrace &packed, const sim::CoreConfig &cfg,
            int warmup)
{
    return sim::simulateTrace(packed, cfg, warmup);
}

using ByClass = decltype(sim::SimResult::byClass);

/**
 * The integers of one configuration's measured pass (the doubles
 * derive from them), recorded from per-instruction delivery into the
 * step core before fused replay became the only path to it.
 */
struct Pin
{
    const char *config;
    int warmup;
    uint64_t cycles, instrs, l1, l2, llc, dramReads, dramWrites;
};

void
expectPinned(const sim::SimResult &r, const Pin &p, const ByClass &byClass)
{
    SCOPED_TRACE(testing::Message()
                 << p.config << " after " << p.warmup << " warm-up passes");
    EXPECT_EQ(r.config, p.config);
    EXPECT_EQ(r.cycles, p.cycles);
    EXPECT_EQ(r.instrs, p.instrs);
    EXPECT_EQ(r.l1Accesses, p.l1);
    EXPECT_EQ(r.l2Accesses, p.l2);
    EXPECT_EQ(r.llcAccesses, p.llc);
    EXPECT_EQ(r.dramReads, p.dramReads);
    EXPECT_EQ(r.dramWrites, p.dramWrites);
    EXPECT_EQ(r.byClass, byClass);
}

std::vector<sim::CoreConfig>
fourCores()
{
    return {sim::primeConfig(), sim::goldConfig(), sim::silverConfig(),
            sim::scalabilityConfig(6, 4)};
}

/** Prime and gold, 8W-8V and the 512-bit prime (one cache geometry),
 *  interleaved with silver, prime without L1 prefetch and prime with a
 *  1 MiB LLC (one geometry each). */
std::vector<sim::CoreConfig>
sharedAndPrivateGeometries()
{
    auto noPrefetch = sim::primeConfig();
    noPrefetch.name = "prime-no-prefetch";
    noPrefetch.l1d.nextLinePrefetch = false;
    auto smallLlc = sim::primeConfig();
    smallLlc.name = "prime-1MiB-llc";
    smallLlc.llc.sizeBytes = 1 << 20;
    return {sim::silverConfig(),         sim::primeConfig(),
            noPrefetch,                  sim::goldConfig(),
            smallLlc,                    sim::scalabilityConfig(8, 8),
            sim::widerVectorConfig(512)};
}

/**
 * perf_smoke's saturation corpus (bench/perf_smoke.cc): every 32nd
 * instruction is a vector load striding a fresh page, so it misses to
 * DRAM, and the 31 vector ops behind it all wait for it. The ROB fills
 * behind each miss, and the cycle the load completes the whole burst
 * turns ready and oversubscribes the vector pool. The misses form a
 * chain, which bounds the run. With @p poolBound the loads do not
 * wait for each other, every third op of a burst is a 16-cycle vector
 * divide that holds its unit for all 16 cycles, and every other op
 * waits for the op before it, so reservations land ahead of the ops
 * that are ready and leave gaps too short for a divide. The vector
 * pool then bounds the run, and every slot the search finds moves the
 * cycle count.
 */
std::vector<Instr>
saturationTrace(size_t n, bool poolBound)
{
    std::vector<Instr> t;
    uint64_t lastLoad = 0;
    while (t.size() < n) {
        Instr ld;
        ld.id = t.size() + 1;
        ld.cls = trace::InstrClass::VLoad;
        ld.fu = trace::Fu::Load;
        ld.latency = 4;
        ld.addr = 0x4000'0000 + uint64_t(t.size()) * 4096;
        ld.size = 16;
        ld.vecBytes = 16;
        ld.lanes = 4;
        ld.activeLanes = 4;
        ld.dep0 = poolBound ? 0 : lastLoad;
        lastLoad = ld.id;
        t.push_back(ld);
        for (int k = 0; k < 31 && t.size() < n; ++k) {
            const bool divide = poolBound && k % 3 == 2;
            Instr v;
            v.id = t.size() + 1;
            v.cls = divide ? trace::InstrClass::VFloat
                           : trace::InstrClass::VInt;
            v.fu = trace::Fu::VUnit;
            v.latency = divide ? 16 : 2;
            v.vecBytes = 16;
            v.lanes = 4;
            v.activeLanes = 4;
            v.dep0 =
                poolBound && k % 2 == 0 && k > 0 ? t.back().id : lastLoad;
            t.push_back(v);
        }
    }
    return t;
}

} // namespace

TEST(FusedReplay, MatchesAcrossWarmupPasses)
{
    // Prime is out of order, silver in order: both step-function
    // table entries are exercised, from cold caches (0) to warm ones.
    static const Pin kPins[] = {
        {"prime", 0, 24406, 2500, 2082, 2014, 1712, 1712, 0},
        {"silver", 0, 45971, 2500, 2082, 2230, 1763, 1712, 0},
        {"prime", 1, 5849, 2500, 1994, 2202, 5, 5, 0},
        {"silver", 1, 9920, 2500, 2082, 2465, 872, 0, 0},
        {"prime", 2, 6060, 2500, 1991, 2193, 1, 1, 0},
        {"silver", 2, 9876, 2500, 2082, 2465, 872, 0, 0},
        {"prime", 3, 6060, 2500, 1991, 2194, 0, 0, 0},
        {"silver", 3, 9868, 2500, 2082, 2465, 872, 0, 0},
    };
    const ByClass byClass = {236, 232, 216, 232, 257, 204,
                             227, 224, 245, 207, 220};
    const auto packed = PackedTrace::pack(randomTrace(2500, 103));
    for (const Pin &p : kPins) {
        const auto cfg = std::string(p.config) == "prime"
                             ? sim::primeConfig()
                             : sim::silverConfig();
        const auto fused = runFused(packed, {cfg}, p.warmup);
        expectPinned(fused[0], p, byClass);
        expectSameResult(fused[0], replayAlone(packed, cfg, p.warmup));
    }
}

TEST(FusedReplay, ConfigGroupsOneToFour)
{
    const auto instrs = randomTrace(3000, 107);
    const auto packed = PackedTrace::pack(instrs);
    const auto all = fourCores();
    for (size_t n = 1; n <= all.size(); ++n) {
        const std::vector<sim::CoreConfig> cfgs(all.begin(),
                                                all.begin() + long(n));
        const auto fused = runFused(packed, cfgs, 1);
        const auto many = sim::simulateTraceMany(packed, cfgs, 1);
        ASSERT_EQ(fused.size(), n);
        ASSERT_EQ(many.size(), n);
        for (size_t i = 0; i < n; ++i) {
            // Each model only sees the instruction stream, so the
            // group result is the single-config result, bit for bit —
            // whichever entry point ran it.
            expectSameResult(fused[i], many[i]);
            expectSameResult(fused[i], replayAlone(packed, cfgs[i], 1));
        }
    }
}

TEST(FusedReplay, HandlesMidStreamIdRestarts)
{
    // Concatenated captures restart ids at 1 mid-stream (the perf
    // smoke's trace shape); the fused engine's monotone-batch fast
    // path must fall back to the checked step for those batches.
    auto instrs = randomTrace(1500, 109);
    const auto b = randomTrace(700, 110);
    const auto c = randomTrace(900, 111);
    instrs.insert(instrs.end(), b.begin(), b.end());
    instrs.insert(instrs.end(), c.begin(), c.end());
    const auto packed = PackedTrace::pack(instrs);
    static const Pin kPins[] = {
        {"prime", 1, 6919, 3100, 2322, 2613, 16, 7, 0},
        {"silver", 1, 12010, 3100, 2376, 2799, 1132, 0, 0},
    };
    const ByClass byClass = {301, 305, 285, 259, 290, 239,
                             267, 269, 283, 290, 312};
    const auto fused =
        runFused(packed, {sim::primeConfig(), sim::silverConfig()}, 1);
    expectPinned(fused[0], kPins[0], byClass);
    expectPinned(fused[1], kPins[1], byClass);
}

TEST(FusedReplay, MatchesOnARealKernelTrace)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());
    const auto packed = PackedTrace::pack(instrs);
    // The capture is longer than kWarmupStepTail, so runFused steps a
    // whole warm-up that simulateTraceMany only walks: each is set
    // against the same protocol replayed alone.
    ASSERT_GT(packed.size(), sim::kWarmupStepTail);
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig(),
                                               sim::silverConfig()};
    const auto fused = runFused(packed, cfgs, 1);
    const auto many = sim::simulateTraceMany(packed, cfgs, 1);
    for (size_t i = 0; i < cfgs.size(); ++i) {
        expectSameResult(fused[i], runFused(packed, {cfgs[i]}, 1)[0]);
        expectSameResult(many[i], replayAlone(packed, cfgs[i], 1));
    }
}

TEST(FusedReplay, ConfigGroupsOfOneToTwelveMatch)
{
    // Every model of a fused replay steps its own state against its
    // hierarchy's walk, whatever the group around it: each group size,
    // from one model to more than the nine of the paper's fan-out
    // grid, must reproduce the single-config result bit for bit.
    const auto instrs = randomTrace(2500, 131);
    const auto packed = PackedTrace::pack(instrs);
    std::vector<sim::CoreConfig> all = fourCores();
    for (int w = 2; w <= 9; ++w)
        all.push_back(sim::scalabilityConfig(w, 2 + w % 3));
    ASSERT_EQ(all.size(), 12u);

    std::vector<sim::SimResult> singles;
    for (const auto &cfg : all)
        singles.push_back(replayAlone(packed, cfg, 1));

    for (size_t n : {size_t(1), size_t(2), size_t(5), size_t(7),
                     size_t(8), size_t(9), size_t(12)}) {
        const std::vector<sim::CoreConfig> cfgs(all.begin(),
                                                all.begin() + long(n));
        const auto fused = runFused(packed, cfgs, 1);
        ASSERT_EQ(fused.size(), n);
        for (size_t i = 0; i < n; ++i)
            expectSameResult(fused[i], singles[i]);
    }
}

TEST(FusedReplay, MidStreamRestartsAcrossLaneCounts)
{
    // Id restarts force the checked (non-monotone) step function for
    // the affected batches; the selection is per decode batch and must
    // not leak between lanes or widths.
    auto instrs = randomTrace(1200, 137);
    const auto b = randomTrace(800, 138);
    instrs.insert(instrs.end(), b.begin(), b.end());
    const auto c = randomTrace(400, 139);
    instrs.insert(instrs.end(), c.begin(), c.end());
    const auto packed = PackedTrace::pack(instrs);

    std::vector<sim::CoreConfig> all = fourCores();
    for (int w = 2; w <= 5; ++w)
        all.push_back(sim::scalabilityConfig(w, 4));
    for (size_t n : {size_t(1), size_t(3), size_t(8)}) {
        const std::vector<sim::CoreConfig> cfgs(all.begin(),
                                                all.begin() + long(n));
        const auto fused = runFused(packed, cfgs, 1);
        for (size_t i = 0; i < n; ++i)
            expectSameResult(fused[i], replayAlone(packed, cfgs[i], 1));
    }
}

namespace
{

/**
 * A perturbing payload: control every `stride` instructions, rotating
 * DRAM latency at each boundary and clamping multi-element progress on
 * alternating batches. Deterministic in the traversal position only,
 * so two traversals of one trace perturb identically no matter how
 * many models ride along.
 */
struct PulsePayload final : sim::ReplayObserver
{
    uint64_t stride;
    uint64_t boundaries = 0;

    explicit PulsePayload(uint64_t s) : stride(s) {}

    uint64_t
    nextBoundary(uint64_t pos) override
    {
        return pos + stride;
    }

    void
    atBoundary(uint64_t pos,
               std::span<sim::CoreModel *const> models) override
    {
        ++boundaries;
        for (auto *m : models)
            setDramLatency(*m, 120 + (pos / stride) % 7 * 30);
    }

    uint32_t
    elemClamp() const override
    {
        return boundaries % 2 ? 2 : 0;
    }
};

/** Warmup observer-free, then one measured pass with a fresh payload. */
std::vector<sim::SimResult>
runFusedObserved(const PackedTrace &packed,
                 const std::vector<sim::CoreConfig> &cfgs,
                 uint64_t stride)
{
    std::vector<std::unique_ptr<sim::CoreModel>> models;
    std::vector<sim::CoreModel *> ptrs;
    for (const auto &c : cfgs) {
        models.push_back(std::make_unique<sim::CoreModel>(c));
        ptrs.push_back(models.back().get());
    }
    const std::span<sim::CoreModel *const> span(ptrs.data(), ptrs.size());
    sim::replay(packed, span);
    for (auto &m : models)
        m->beginMeasurement();
    PulsePayload payload(stride);
    sim::replay(packed, span, &payload);
    std::vector<sim::SimResult> out;
    for (auto &m : models)
        out.push_back(m->finish());
    return out;
}

} // namespace

TEST(FusedReplay, ObserverSeamIsLaneCountInvariant)
{
    // A perturbing payload is a function of traversal position only:
    // replaying N models together under one payload must equal N
    // single-model replays under N fresh payloads, for any lane count
    // (batches never cross a payload boundary, whatever the width).
    const auto instrs = randomTrace(3000, 149);
    const auto packed = PackedTrace::pack(instrs);
    std::vector<sim::CoreConfig> all = fourCores();
    for (int w = 2; w <= 6; ++w)
        all.push_back(sim::scalabilityConfig(w, 2));

    for (const uint64_t stride : {uint64_t(257), uint64_t(1000)}) {
        std::vector<sim::SimResult> singles;
        for (const auto &cfg : all)
            singles.push_back(
                runFusedObserved(packed, {cfg}, stride)[0]);
        for (size_t n : {size_t(3), size_t(8), size_t(9)}) {
            const std::vector<sim::CoreConfig> cfgs(
                all.begin(), all.begin() + long(n));
            const auto got = runFusedObserved(packed, cfgs, stride);
            ASSERT_EQ(got.size(), n);
            for (size_t i = 0; i < n; ++i)
                expectSameResult(got[i], singles[i]);
        }
    }
}

TEST(FusedReplay, PassiveObserverChangesNothing)
{
    // A payload that only watches must leave results bit-identical to
    // the observer-free engine.
    struct Watcher final : sim::ReplayObserver
    {
        uint64_t seen = 0;
        uint64_t
        nextBoundary(uint64_t pos) override
        {
            return pos + 100;
        }
        void
        atBoundary(uint64_t, std::span<sim::CoreModel *const>) override
        {
            ++seen;
        }
    };
    const auto instrs = randomTrace(2000, 151);
    const auto packed = PackedTrace::pack(instrs);
    const auto cfgs = fourCores();
    const auto plain = runFused(packed, cfgs, 1);

    std::vector<std::unique_ptr<sim::CoreModel>> models;
    std::vector<sim::CoreModel *> ptrs;
    for (const auto &c : cfgs) {
        models.push_back(std::make_unique<sim::CoreModel>(c));
        ptrs.push_back(models.back().get());
    }
    const std::span<sim::CoreModel *const> span(ptrs.data(), ptrs.size());
    sim::replay(packed, span);
    for (auto &m : models)
        m->beginMeasurement();
    Watcher w;
    sim::replay(packed, span, &w);
    EXPECT_GT(w.seen, 0u);
    for (size_t i = 0; i < cfgs.size(); ++i)
        expectSameResult(plain[i], models[i]->finish());
}

TEST(FusedReplay, PayloadBeginChangesApplyFromTheFirstInstruction)
{
    // begin() runs on the models' live state: a mispredict rate a
    // payload sets there must govern the traversal from its first
    // instruction, exactly as the same rate set in the configuration.
    struct HalfRate final : sim::ReplayObserver
    {
        void
        begin(std::span<sim::CoreModel *const> models) override
        {
            for (auto *m : models)
                setBranchMispredictRate(*m, 0.5);
        }
    };
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
    HalfRate payload;
    const auto got =
        sim::simulateTraceMany(packed, {sim::primeConfig()}, 0, &payload);
    auto half = sim::primeConfig();
    half.branchMispredictRate = 0.5;
    ASSERT_EQ(got.size(), 1u);
    expectSameResult(got[0], sim::simulateTrace(packed, half, 0));
}

TEST(FusedReplay, EmptySpanAndEmptyTraceAreNoOps)
{
    const auto packed = PackedTrace::pack(randomTrace(100, 113));
    sim::replay(packed, {}); // no models: nothing to do

    const PackedTrace empty = PackedTrace::pack({});
    sim::CoreModel model(sim::primeConfig());
    sim::CoreModel *mp = &model;
    sim::replay(empty, std::span<sim::CoreModel *const>(&mp, 1));
    model.beginMeasurement();
    const auto r = model.finish();
    EXPECT_EQ(r.instrs, 0u);
}

TEST(FusedReplay, PinsAbsoluteModelOutput)
{
    // Every other case compares entry points that share one step core;
    // these integers pin the step core itself (recorded before the
    // ready ring and the issue window were resized to what the model
    // can read back, which must change nothing). No doubles: those
    // derive from the integers. The rows hold the hand-stepped full
    // warm-up (runFused).
    struct Pin
    {
        uint32_t seed;
        const char *config;
        uint64_t cycles, instrs, l1, l2, llc, dramReads, dramWrites;
    };
    static const Pin kPins[] = {
        {211, "prime", 215414, 40000, 32950, 37835, 37835, 7157, 2121},
        {211, "silver", 410175, 40000, 32950, 37835, 37797, 8356, 3310},
        {211, "8W-8V", 215303, 40000, 32950, 37835, 37835, 7157, 2121},
        {223, "prime", 215400, 40000, 32777, 37668, 37668, 7313, 2292},
        {223, "silver", 407678, 40000, 32777, 37668, 37623, 8458, 3421},
        {223, "8W-8V", 215159, 40000, 32777, 37668, 37668, 7313, 2292},
        {227, "prime", 220841, 40000, 33372, 38579, 38579, 8226, 2612},
        {227, "silver", 430702, 40000, 33372, 38579, 38515, 9468, 3836},
        {227, "8W-8V", 220608, 40000, 33372, 38579, 38579, 8226, 2612},
    };
    // simulateTraceMany, where the warm-up steps only its last
    // kWarmupStepTail instructions and prime and 8W-8V share one
    // hierarchy: the DRAM timing restarts at the tail, so prime and
    // 8W-8V end a few cycles later (silver does not). Every other
    // integer is the full warm-up's, above.
    static const uint64_t kDriverCycles[] = {
        215416, 410175, 215306, // seed 211
        215405, 407678, 215164, // seed 223
        220845, 430702, 220612, // seed 227
    };
    static_assert(std::size(kDriverCycles) == std::size(kPins));
    using ByClass = decltype(sim::SimResult::byClass);
    const std::pair<uint32_t, ByClass> kByClass[] = {
        {211, {3685, 3616, 3671, 3644, 3605, 3692, 3671, 3559, 3558, 3600,
               3699}},
        {223, {3666, 3602, 3624, 3587, 3630, 3627, 3646, 3615, 3668, 3688,
               3647}},
        {227, {3655, 3497, 3581, 3648, 3664, 3650, 3713, 3650, 3649, 3637,
               3656}},
    };
    const std::vector<sim::CoreConfig> cfgs = {
        sim::primeConfig(), sim::silverConfig(), sim::scalabilityConfig(8, 8)};
    size_t next = 0;
    for (const auto &[seed, byClass] : kByClass) {
        const auto packed = PackedTrace::pack(randomTrace(40000, seed));
        // Private hierarchies (runFused), then simulateTraceMany.
        auto got = runFused(packed, cfgs, 1);
        const auto shared = sim::simulateTraceMany(packed, cfgs, 1);
        got.insert(got.end(), shared.begin(), shared.end());
        for (size_t i = 0; i < got.size(); ++i) {
            const sim::SimResult &r = got[i];
            const size_t row = next + i % cfgs.size();
            const Pin &p = kPins[row];
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " on " << p.config
                         << (i < cfgs.size() ? "" : " (shared)"));
            EXPECT_EQ(r.config, p.config);
            EXPECT_EQ(r.cycles,
                      i < cfgs.size() ? p.cycles : kDriverCycles[row]);
            EXPECT_EQ(r.instrs, p.instrs);
            EXPECT_EQ(r.l1Accesses, p.l1);
            EXPECT_EQ(r.l2Accesses, p.l2);
            EXPECT_EQ(r.llcAccesses, p.llc);
            EXPECT_EQ(r.dramReads, p.dramReads);
            EXPECT_EQ(r.dramWrites, p.dramWrites);
            EXPECT_EQ(r.byClass, byClass);
        }
        next += cfgs.size();
    }
    EXPECT_EQ(next, std::size(kPins));
}

TEST(FusedReplay, PinsSaturatedIssueTables)
{
    // The random traces above rarely fill a unit pool; these fill the
    // out-of-order cores' issue tables for long stretches (the search
    // for a free slot scans furthest here, and an unpipelined op needs
    // a run of free cycles), and hold silver's in-order issue behind
    // each miss. Pinned through simulateTraceMany, as sweeps run it,
    // while the search still started from a per-pool hint of cycles
    // known full, which must change nothing.
    static const Pin kPins[2][3] = {
        {{"prime", 1, 318178, 32768, 2048, 2048, 2048, 2048, 0},
         {"gold", 1, 277254, 32768, 2048, 2048, 2048, 2048, 0},
         {"silver", 1, 246784, 32768, 2048, 2048, 2048, 2048, 0}},
        {{"prime", 1, 92678, 32768, 2048, 2048, 2048, 2048, 0},
         {"gold", 1, 92678, 32768, 2048, 2048, 2048, 2048, 0},
         {"silver", 1, 410624, 32768, 2048, 2048, 2048, 2048, 0}},
    };
    const std::vector<sim::CoreConfig> cfgs = {
        sim::primeConfig(), sim::goldConfig(), sim::silverConfig()};
    for (const bool poolBound : {false, true}) {
        SCOPED_TRACE(poolBound ? "vector pool bound" : "miss chain bound");
        const auto instrs = saturationTrace(1 << 15, poolBound);
        ByClass byClass{};
        for (const Instr &i : instrs)
            ++byClass[size_t(i.cls)];
        const auto got =
            sim::simulateTraceMany(PackedTrace::pack(instrs), cfgs, 1);
        ASSERT_EQ(got.size(), cfgs.size());
        for (size_t i = 0; i < cfgs.size(); ++i)
            expectPinned(got[i], kPins[poolBound][i], byClass);
    }
}

TEST(FusedReplay, SharedHierarchiesMatchPrivateOnes)
{
    // simulateTraceMany walks one functional hierarchy for every
    // configuration of equal cache geometry and gives the others their
    // own, interleaved so a shared group is not a contiguous run of
    // lanes (sharedAndPrivateGeometries). Each result must equal that
    // configuration replayed alone on a private hierarchy.
    const auto instrs = randomTrace(30000, 233);
    size_t multi = 0, straddling = 0;
    for (const auto &i : instrs) {
        multi += i.isMultiAddress();
        straddling += i.isMem() && !i.isMultiAddress() &&
                      (i.addr >> 6) != ((i.addr + i.size - 1) >> 6);
    }
    EXPECT_GT(multi, 100u);
    EXPECT_GT(straddling, 100u);

    const auto cfgs = sharedAndPrivateGeometries();
    const auto packed = PackedTrace::pack(instrs);
    const auto many = sim::simulateTraceMany(packed, cfgs, 1);
    ASSERT_EQ(many.size(), cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        SCOPED_TRACE(cfgs[i].name);
        // DRAM-heavy, dirty evictions included.
        EXPECT_GT(many[i].dramReads, 500u);
        EXPECT_GT(many[i].dramWrites, 100u);
        expectSameResult(many[i], replayAlone(packed, cfgs[i], 1));
    }
}

TEST(FusedReplay, TailWarmupKeepsEveryCount)
{
    // A trace of kWarmupStepTail instructions steps its whole warm-up;
    // one instruction more walks the first and steps the rest, at any
    // warm-up count. The walk alone warms the caches, so the counts
    // stay those of a fully stepped warm-up.
    const auto cfgs = fourCores();
    for (const uint64_t n :
         {sim::kWarmupStepTail, sim::kWarmupStepTail + 1}) {
        const auto packed = PackedTrace::pack(randomTrace(n, 251));
        for (const int warmup : {1, 2}) {
            SCOPED_TRACE(testing::Message() << n << " instructions, "
                                            << warmup << " warm-up passes");
            const auto full = runFused(packed, cfgs, warmup);
            const auto driven = sim::simulateTraceMany(packed, cfgs, warmup);
            ASSERT_EQ(driven.size(), cfgs.size());
            for (size_t i = 0; i < cfgs.size(); ++i) {
                if (n == sim::kWarmupStepTail)
                    expectSameResult(driven[i], full[i]);
                else
                    expectSameCounts(driven[i], full[i]);
            }
        }
    }
}

TEST(FusedReplay, TailWarmupKeepsMispredictsWhereTheyWere)
{
    // Without memory ops nothing restarts at the tail but the pipeline,
    // which refills well within it. The countdown to the next modeled
    // mispredict must advance past every walked branch, or the
    // measured pass would mispredict on other branches.
    for (const uint32_t seed : {257u, 263u, 269u}) {
        std::mt19937_64 rng(seed);
        std::vector<Instr> instrs;
        for (uint64_t i = 0; i < 3 * sim::kWarmupStepTail + 1000; ++i) {
            Instr ins;
            ins.id = i + 1;
            const bool branch = rng() % 5 == 0;
            ins.cls = branch ? trace::InstrClass::Branch
                             : trace::InstrClass::SInt;
            ins.fu = branch ? trace::Fu::Branch : trace::Fu::SAlu;
            ins.latency = uint8_t(1 + rng() % 3);
            ins.dep0 = i > 0 ? i + 1 - (1 + rng() % std::min<uint64_t>(i, 8))
                             : 0;
            instrs.push_back(ins);
        }
        const auto packed = PackedTrace::pack(instrs);
        for (auto cfg : {sim::primeConfig(), sim::silverConfig()}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " on "
                                            << cfg.name);
            cfg.branchMispredictRate = 0.03;
            const auto full = runFused(packed, {cfg}, 1)[0];
            EXPECT_GT(full.feStallPct, 0.0);
            expectSameResult(replayAlone(packed, cfg, 1), full);
        }
    }
}

TEST(FusedReplay, TailWarmupIsLaneCountInvariant)
{
    // 9 and 12 lanes, prime-geometry configurations sharing one
    // hierarchy interleaved with private ones, over concatenated
    // captures whose last id restart falls inside the stepped tail:
    // each lane must equal its configuration replayed alone.
    auto instrs = randomTrace(6000, 281);
    const auto last = randomTrace(3000, 283);
    instrs.insert(instrs.end(), last.begin(), last.end());
    ASSERT_LT(last.size(), sim::kWarmupStepTail);
    const auto packed = PackedTrace::pack(instrs);

    auto all = sharedAndPrivateGeometries();
    for (const auto &[w, v] : {std::pair{2, 2}, {3, 4}, {4, 6}, {6, 3}, {9, 2}})
        all.push_back(sim::scalabilityConfig(w, v));
    ASSERT_EQ(all.size(), 12u);
    for (const int warmup : {1, 2}) {
        std::vector<sim::SimResult> singles;
        for (const auto &cfg : all)
            singles.push_back(replayAlone(packed, cfg, warmup));
        for (const size_t n : {size_t(9), size_t(12)}) {
            const std::vector<sim::CoreConfig> cfgs(all.begin(),
                                                    all.begin() + long(n));
            const auto many = sim::simulateTraceMany(packed, cfgs, warmup);
            ASSERT_EQ(many.size(), n);
            for (size_t i = 0; i < n; ++i) {
                SCOPED_TRACE(testing::Message()
                             << cfgs[i].name << " in " << n << " lanes, "
                             << warmup << " warm-up passes");
                expectSameResult(many[i], singles[i]);
            }
        }
    }
}

TEST(FusedReplay, BatchesThatOutgrowTheOutcomeTableStillMatch)
{
    // 255-element gathers and scatters need up to 255 outcome-table
    // accesses each, so a full decode batch is walked and stepped in
    // prefixes; a 1 MiB load (16,384 lines) and a scatter of 4 KiB
    // elements each need more room than the table starts with, so it
    // grows mid-traversal. Private and shared hierarchies must both
    // reproduce the pinned integers.
    std::vector<Instr> instrs;
    std::mt19937_64 rng(241);
    uint64_t addr = 0x7f0000100000ull;
    for (size_t i = 0; i < 1200; ++i) {
        Instr ins;
        ins.id = i + 1;
        ins.dep0 = i > 0 && rng() % 2 ? 1 + rng() % i : 0;
        ins.latency = 4;
        ins.fu = trace::Fu::Load;
        ins.vecBytes = 16;
        ins.lanes = 255;
        ins.activeLanes = 255;
        addr += rng() % 8192;
        ins.addr = addr;
        const uint64_t kind = i % 400;
        if (kind == 200) {
            ins.cls = trace::InstrClass::VLoad;
            ins.size = 1u << 20;
            ins.activeLanes = 1;
        } else if (kind == 399) {
            ins.cls = trace::InstrClass::VStore;
            ins.fu = trace::Fu::Store;
            ins.stride = trace::StrideKind::Scatter;
            ins.size = 255u * 4096u;
            ins.addr2 = ins.addr + (1u << 22);
        } else {
            const bool load = rng() % 4 != 0;
            ins.cls = load ? trace::InstrClass::VLoad
                           : trace::InstrClass::VStore;
            ins.fu = load ? trace::Fu::Load : trace::Fu::Store;
            ins.stride = load ? trace::StrideKind::Gather
                              : trace::StrideKind::Scatter;
            ins.size = 255u * 8u;
            ins.addr2 = ins.addr + (1u << 16);
        }
        instrs.push_back(ins);
    }
    const auto packed = PackedTrace::pack(instrs);
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig(),
                                               sim::silverConfig(),
                                               sim::goldConfig()};
    static const Pin kPins[] = {
        {"prime", 1, 3142094, 1200, 488009, 305649, 283277, 119302, 93804},
        {"silver", 1, 4393696, 1200, 551613, 509468, 283466, 120005,
         94444},
        {"gold", 1, 2757891, 1200, 488009, 305649, 283277, 119302, 93804},
    };
    const ByClass byClass = {0, 0, 0, 0, 0, 889, 311, 0, 0, 0, 0};
    const auto fused = runFused(packed, cfgs, 1);
    const auto shared = sim::simulateTraceMany(packed, cfgs, 1);
    for (size_t i = 0; i < cfgs.size(); ++i) {
        expectPinned(fused[i], kPins[i], byClass);
        expectSameResult(shared[i], fused[i]);
    }
}

TEST(FusedReplay, PayloadFlushesOnlyTheModelItTargets)
{
    // Models built with CoreModel(cfg) keep private hierarchies even
    // when their geometry is equal, and so do the models of
    // simulateTraceMany under a payload: a payload that flushes the
    // first of two prime-geometry models must leave the second's
    // result exactly the clean one.
    struct FlushFirst final : sim::ReplayObserver
    {
        uint64_t
        nextBoundary(uint64_t pos) override
        {
            return pos + 500;
        }
        void
        atBoundary(uint64_t, std::span<sim::CoreModel *const> models) override
        {
            flushCaches(*models[0]);
        }
    };
    const auto instrs = randomTrace(6000, 239);
    const auto packed = PackedTrace::pack(instrs);
    const std::vector<sim::CoreConfig> cfgs = {sim::primeConfig(),
                                               sim::goldConfig()};
    std::vector<std::unique_ptr<sim::CoreModel>> models;
    std::vector<sim::CoreModel *> ptrs;
    for (const auto &c : cfgs) {
        models.push_back(std::make_unique<sim::CoreModel>(c));
        ptrs.push_back(models.back().get());
    }
    const std::span<sim::CoreModel *const> span(ptrs.data(), ptrs.size());
    sim::replay(packed, span);
    for (auto &m : models)
        m->beginMeasurement();
    FlushFirst payload;
    sim::replay(packed, span, &payload);
    const auto flushed = models[0]->finish();
    const auto clean = models[1]->finish();

    // The models above step their whole warm-up, and so does
    // simulateTraceMany under a payload: so does the clean reference.
    const auto reference = runFused(packed, cfgs, 1);
    expectSameResult(clean, reference[1]);
    EXPECT_GT(flushed.l1Mpki, reference[0].l1Mpki); // re-missed

    // simulateTraceMany, where payload-free models of equal geometry
    // would share one hierarchy and the flush would reach gold too.
    FlushFirst again;
    const auto many = sim::simulateTraceMany(packed, cfgs, 1, &again);
    ASSERT_EQ(many.size(), 2u);
    expectSameResult(many[1], reference[1]);
    EXPECT_GT(many[0].l1Mpki, reference[0].l1Mpki);
}

TEST(FusedReplay, IssueWindowNeverDoubleBooksAUnit)
{
    // One unit per pool: a single-unit pool issues one op per cycle, so
    // 60,002 SInt ops need 60,002 distinct cycles. The two consumers of
    // a 40,000-cycle DRAM miss reserve their slot far past dispatch,
    // while the independent ops fill the pool from the bottom; a fixed
    // issue ring shorter than that spread would let an independent op
    // overwrite a consumer's reservation a lap later and double-book
    // the unit.
    sim::CoreConfig cfg = sim::primeConfig();
    cfg.name = "one-unit";
    cfg.fuCount.fill(1);
    cfg.robSize = 1 << 17;
    cfg.freqGHz = 2.0;
    cfg.dramLatencyNs = 20000.0;
    constexpr uint64_t kIndependent = 60000;
    std::vector<Instr> instrs;
    Instr load;
    load.id = 1;
    load.cls = trace::InstrClass::SLoad;
    load.fu = trace::Fu::Load;
    load.latency = 4;
    load.addr = 0x4000'0000;
    load.size = 8;
    instrs.push_back(load);
    const auto sint = [&](uint64_t dep) {
        Instr i;
        i.id = instrs.size() + 1;
        i.cls = trace::InstrClass::SInt;
        i.fu = trace::Fu::SAlu;
        i.latency = 1;
        i.dep0 = dep;
        instrs.push_back(i);
    };
    sint(1);
    for (uint64_t k = 0; k < kIndependent; ++k)
        sint(0);
    sint(1);

    const auto packed = PackedTrace::pack(instrs);
    const auto fused = runFused(packed, {cfg}, 0);
    EXPECT_GE(fused[0].cycles, kIndependent + 2);
    expectSameResult(fused[0], replayAlone(packed, cfg, 0));
}
