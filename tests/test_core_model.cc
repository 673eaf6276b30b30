/**
 * @file
 * Tests for the trace-driven core models: IPC limits, dataflow
 * serialization, functional-unit contention, ASIMD-unit scaling,
 * in-order vs out-of-order behavior, warm-up measurement windows and
 * branch-misprediction front-end stalls.
 */

#include <functional>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sim/core_model.hh"
#include "simd/emit.hh"
#include "trace/packed.hh"

using namespace swan;
using namespace swan::sim;
using trace::Fu;
using trace::Instr;
using trace::InstrClass;

namespace
{

Instr
alu(uint64_t id, uint64_t dep = 0)
{
    Instr i;
    i.id = id;
    i.cls = InstrClass::SInt;
    i.fu = Fu::SAlu;
    i.latency = 1;
    i.dep0 = dep;
    return i;
}

Instr
vecOp(uint64_t id, uint64_t dep = 0, int lat = 2)
{
    Instr i;
    i.id = id;
    i.cls = InstrClass::VInt;
    i.fu = Fu::VUnit;
    i.latency = uint8_t(lat);
    i.dep0 = dep;
    return i;
}

std::vector<Instr>
independentAlus(int n)
{
    std::vector<Instr> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(alu(uint64_t(i)));
    return v;
}

} // namespace

TEST(CoreModel, IpcBoundedByDecodeWidth)
{
    auto cfg = primeConfig();
    auto res = simulateTrace(independentAlus(10000), cfg, 0);
    EXPECT_LE(res.ipc, double(cfg.decodeWidth) + 0.01);
    // Independent 1-cycle ALUs on 3 units, 4-wide decode -> IPC ~3.
    EXPECT_GT(res.ipc, 2.5);
}

TEST(CoreModel, DependencyChainSerializes)
{
    std::vector<Instr> chain;
    for (int i = 1; i <= 5000; ++i)
        chain.push_back(vecOp(uint64_t(i), uint64_t(i - 1), 4));
    auto res = simulateTrace(chain, primeConfig(), 0);
    // Each op waits 4 cycles for its producer.
    EXPECT_GT(double(res.cycles), 4.0 * 5000 * 0.9);
}

TEST(CoreModel, IndependentOpsOverlapDespiteStalledElders)
{
    // One long-latency chain interleaved with independent work: the
    // independent ops must not be blocked (out-of-order issue).
    std::vector<Instr> mix;
    uint64_t id = 0;
    uint64_t prev_chain = 0;
    for (int i = 0; i < 2000; ++i) {
        Instr c = vecOp(++id, prev_chain, 4);
        prev_chain = c.id;
        mix.push_back(c);
        for (int j = 0; j < 3; ++j)
            mix.push_back(alu(++id));
    }
    auto res = simulateTrace(mix, primeConfig(), 0);
    // Chain alone needs 4 cycles per link; the 3 ALUs fit inside.
    EXPECT_GT(res.ipc, 0.9);
}

TEST(CoreModel, MoreVectorUnitsHelpOnlyParallelWork)
{
    // 8 independent vector streams (ILP 4 with latency-2 ops).
    std::vector<Instr> par;
    uint64_t id = 0;
    uint64_t last[8] = {};
    for (int i = 0; i < 8000; ++i) {
        const int s = i % 8;
        Instr v = vecOp(++id, last[s], 2);
        last[s] = v.id;
        par.push_back(v);
    }
    auto two = simulateTrace(par, scalabilityConfig(4, 2), 0);
    auto eight = simulateTrace(par, scalabilityConfig(8, 8), 0);
    EXPECT_GT(double(two.cycles) / double(eight.cycles), 1.5);

    // A single serial chain gains nothing from more units.
    std::vector<Instr> chain;
    for (int i = 1; i <= 4000; ++i)
        chain.push_back(vecOp(uint64_t(i), uint64_t(i - 1), 2));
    auto c2 = simulateTrace(chain, scalabilityConfig(4, 2), 0);
    auto c8 = simulateTrace(chain, scalabilityConfig(8, 8), 0);
    EXPECT_NEAR(double(c2.cycles) / double(c8.cycles), 1.0, 0.05);
}

TEST(CoreModel, InOrderSlowerThanOutOfOrder)
{
    // Loads followed by dependent work, then independent work: the
    // in-order core stalls on use.
    std::vector<Instr> prog;
    uint64_t id = 0;
    for (int i = 0; i < 1000; ++i) {
        Instr ld;
        ld.id = ++id;
        ld.cls = InstrClass::SLoad;
        ld.fu = Fu::Load;
        ld.latency = 4;
        ld.addr = 0x100000 + uint64_t(i) * 64;
        ld.size = 4;
        prog.push_back(ld);
        prog.push_back(alu(++id, ld.id));
        prog.push_back(alu(++id));
        prog.push_back(alu(++id));
    }
    auto ooo = simulateTrace(prog, primeConfig(), 1);
    auto io = simulateTrace(prog, silverConfig(), 1);
    EXPECT_LT(ooo.cycles, io.cycles);
}

TEST(CoreModel, WarmupRemovesColdMisses)
{
    std::vector<Instr> loads;
    uint64_t id = 0;
    for (int i = 0; i < 256; ++i) {
        Instr ld;
        ld.id = ++id;
        ld.cls = InstrClass::SLoad;
        ld.fu = Fu::Load;
        ld.latency = 4;
        ld.addr = 0x200000 + uint64_t(i) * 64;
        ld.size = 4;
        loads.push_back(ld);
    }
    auto cold = simulateTrace(loads, primeConfig(), 0);
    auto warm = simulateTrace(loads, primeConfig(), 1);
    EXPECT_LT(warm.l1Mpki, cold.l1Mpki);
    EXPECT_LE(warm.cycles, cold.cycles);
}

TEST(CoreModel, BranchMispredictionsCauseFrontEndStalls)
{
    std::vector<Instr> prog;
    uint64_t id = 0;
    for (int i = 0; i < 20000; ++i) {
        prog.push_back(alu(++id));
        Instr br;
        br.id = ++id;
        br.cls = InstrClass::Branch;
        br.fu = Fu::Branch;
        br.latency = 1;
        prog.push_back(br);
    }
    auto res = simulateTrace(prog, primeConfig(), 0);
    EXPECT_GT(res.feStallPct, 0.0);
    EXPECT_LE(res.feStallPct, 100.0);
    // With mispredictions disabled the front-end never stalls.
    auto perfect = primeConfig();
    perfect.branchMispredictRate = 0.0;
    auto res2 = simulateTrace(prog, perfect, 0);
    EXPECT_DOUBLE_EQ(res2.feStallPct, 0.0);
    EXPECT_LT(res2.cycles, res.cycles);
}

TEST(CoreModel, StallPercentagesWellFormed)
{
    auto res = simulateTrace(independentAlus(5000), primeConfig(), 0);
    EXPECT_GE(res.feStallPct, 0.0);
    EXPECT_GE(res.beStallPct, 0.0);
    EXPECT_LE(res.feStallPct + res.beStallPct, 100.0 + 1e-6);
}

TEST(CoreModel, MeasurementWindowExcludesWarmupCounts)
{
    const auto res = simulateTrace(independentAlus(1000), primeConfig(), 1);
    EXPECT_EQ(res.instrs, 1000u);
    EXPECT_EQ(res.byClass[size_t(InstrClass::SInt)], 1000u);
}

TEST(CoreModel, UnpipelinedDivideOccupiesUnit)
{
    // Back-to-back independent divides on the single SMul unit.
    std::vector<Instr> divs;
    for (int i = 1; i <= 500; ++i) {
        Instr d;
        d.id = uint64_t(i);
        d.cls = InstrClass::SInt;
        d.fu = Fu::SMul;
        d.latency = 12;
        divs.push_back(d);
    }
    auto res = simulateTrace(divs, primeConfig(), 0);
    EXPECT_GT(res.cycles, 500u * 11);
}

TEST(CoreModel, TimeScalesWithFrequency)
{
    auto trace = independentAlus(10000);
    auto prime = simulateTrace(trace, primeConfig(), 0);
    auto gold = simulateTrace(trace, goldConfig(), 0);
    EXPECT_EQ(prime.cycles, gold.cycles); // same microarchitecture
    EXPECT_LT(prime.timeSec, gold.timeSec);
}

TEST(CoreModel, FuPoolSizesOutsideOneTo255AreRejectedOrClamped)
{
    // Issue slots count a pool's busy units in a byte, so a 256- or
    // 257-unit pool cannot be represented (it would simulate as a
    // single unit) and is rejected, while 255 units still run
    // decode-bound.
    auto trace = independentAlus(2000);
    auto cfg = primeConfig();
    cfg.fuCount[size_t(Fu::SAlu)] = 255;
    EXPECT_LE(simulateTrace(trace, cfg, 0).cycles, 510u);
    for (int units : {256, 257}) {
        cfg.fuCount[size_t(Fu::SAlu)] = units;
        EXPECT_THROW(CoreModel{cfg}, std::invalid_argument) << units;
    }
    // A count of 0 keeps meaning one unit.
    cfg.fuCount[size_t(Fu::SAlu)] = 0;
    const auto none = simulateTrace(trace, cfg, 0);
    cfg.fuCount[size_t(Fu::SAlu)] = 1;
    EXPECT_EQ(none.cycles, simulateTrace(trace, cfg, 0).cycles);
}

namespace
{

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** CoreModel must reject a prime config with @p set applied for each
 *  of @p bad, and accept it for each of @p good. */
void
expectRejected(const std::function<void(CoreConfig &, double)> &set,
               std::initializer_list<double> bad,
               std::initializer_list<double> good)
{
    for (double v : bad) {
        auto cfg = primeConfig();
        set(cfg, v);
        EXPECT_THROW(CoreModel{cfg}, std::invalid_argument) << v;
    }
    for (double v : good) {
        auto cfg = primeConfig();
        set(cfg, v);
        EXPECT_NO_THROW(CoreModel{cfg}) << v;
    }
}

} // namespace

TEST(CoreModel, RejectsMispredictRatesOutsideZeroToOne)
{
    // 2.0 made the interval 0, which the step core reads as "never";
    // NaN reached uint64_t(NaN).
    expectRejected([](CoreConfig &c, double v) { c.branchMispredictRate = v; },
                   {-0.01, 1.01, 2.0, kNaN, kInf, -kInf},
                   {0.0, 1e-30, 0.01, 1.0});
}

TEST(CoreModel, RejectsNonPositiveOrNonFiniteFrequency)
{
    expectRejected([](CoreConfig &c, double v) { c.freqGHz = v; },
                   {0.0, -2.8, kNaN, kInf}, {0.1, 2.8});
}

TEST(CoreModel, RejectsNonPositiveOrNonFiniteDramBandwidth)
{
    expectRejected([](CoreConfig &c, double v) { c.dramGBs = v; },
                   {0.0, -14.0, kNaN, kInf}, {0.5, 14.0});
}

TEST(CoreModel, RejectsNegativeOrNonFiniteDramLatency)
{
    // A negative latency reached uint64_t of a negative double.
    expectRejected([](CoreConfig &c, double v) { c.dramLatencyNs = v; },
                   {-1.0, kNaN, kInf}, {0.0, 100.0});
}

TEST(CoreModel, RejectsNegativeOrNonFiniteL2Service)
{
    expectRejected([](CoreConfig &c, double v) { c.l2ServiceCycles = v; },
                   {-4.0, kNaN, kInf}, {0.0, 4.0});
}

TEST(CoreModel, RejectsNegativeOrNonFiniteLlcService)
{
    expectRejected([](CoreConfig &c, double v) { c.llcServiceCycles = v; },
                   {-8.0, kNaN, kInf}, {0.0, 8.0});
}

TEST(CoreModel, RejectsNegativeBranchPenalty)
{
    expectRejected(
        [](CoreConfig &c, double v) { c.branchPenalty = int(v); },
        {-1.0, -12.0}, {0.0, 12.0});
}

TEST(CoreModel, ZeroMispredictRateNeverMispredicts)
{
    // Rate 0 used to be clamped to one mispredict per 10^6 branches;
    // past that many branches it must still never stall the front end.
    auto cfg = primeConfig();
    cfg.branchMispredictRate = 0.0;
    constexpr uint64_t kBranches = 1024000;
    trace::PackedTrace::Builder builder;
    for (uint64_t id = 1; id <= kBranches; ++id) {
        Instr br;
        br.id = id;
        br.cls = InstrClass::Branch;
        br.fu = Fu::Branch;
        br.latency = 1;
        builder.add(br);
    }
    const auto r = simulateTrace(builder.finish(), cfg, 0);
    EXPECT_EQ(r.instrs, kBranches);
    EXPECT_EQ(r.feStallPct, 0.0);
}

namespace
{

/** Sets the mispredict rate of every model at its first boundary. */
struct RateSetter final : ReplayObserver
{
    double rate;
    explicit RateSetter(double r) : rate(r) {}
    uint64_t nextBoundary(uint64_t pos) override
    {
        return pos == 0 ? 1 : kNoBoundary;
    }
    void
    atBoundary(uint64_t, std::span<CoreModel *const> models) override
    {
        for (CoreModel *m : models)
            setBranchMispredictRate(*m, rate);
    }
};

} // namespace

TEST(CoreModel, ReplayPayloadsGetTheSameMispredictRateRule)
{
    std::vector<Instr> prog;
    uint64_t id = 0;
    for (int i = 0; i < 4000; ++i) {
        prog.push_back(alu(++id));
        Instr br;
        br.id = ++id;
        br.cls = InstrClass::Branch;
        br.fu = Fu::Branch;
        br.latency = 1;
        prog.push_back(br);
    }
    const auto packed = trace::PackedTrace::pack(prog);
    for (double bad : {-0.5, 1.5, kNaN}) {
        CoreModel model(primeConfig());
        CoreModel *mp = &model;
        RateSetter payload(bad);
        EXPECT_THROW(replay(packed, std::span<CoreModel *const>(&mp, 1),
                            &payload),
                     std::invalid_argument)
            << bad;
    }
    // Rate 0 from a payload means never, like rate 0 in the config.
    CoreModel model(primeConfig());
    CoreModel *mp = &model;
    RateSetter payload(0.0);
    model.beginMeasurement();
    replay(packed, std::span<CoreModel *const>(&mp, 1), &payload);
    EXPECT_EQ(model.finish().feStallPct, 0.0);
}
