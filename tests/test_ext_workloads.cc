/**
 * @file
 * Integration tests for the future-ISA extension studies
 * (workloads/ext): every variant must verify against its scalar
 * reference, and the instruction-stream relations the studies exist to
 * demonstrate must hold — gathers shrink the look-up-table kernels,
 * FCMLA shrinks the complex MAC, strided loads shrink stride-8 access,
 * and predication restores tail-lane utilization.
 */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim/configs.hh"
#include "swan/session.hh"
#include "trace/stats.hh"
#include "workloads/ext/ext.hh"

using namespace swan;
using workloads::ext::ComplexImpl;
using workloads::ext::LutImpl;
using workloads::ext::StrideImpl;
using workloads::ext::TailImpl;

namespace
{

core::Options
testOptions()
{
    core::Options o;
    o.audioSamples = 512;
    o.bufferBytes = 2048;
    return o;
}

/** Capture a variant's Neon trace and return mix statistics. */
trace::MixStats
neonMix(core::Workload &w, int vec_bits = 128)
{
    auto instrs = core::Runner::capture(w, core::Impl::Neon, vec_bits);
    trace::MixStats mix;
    mix.addTrace(instrs);
    return mix;
}

} // namespace

// ---------------------------------------------------------------------
// LUT / gather studies.
// ---------------------------------------------------------------------

class LutVariantTest : public ::testing::TestWithParam<LutImpl>
{
};

TEST_P(LutVariantTest, LutTransformVerifies)
{
    auto w = workloads::ext::makeLutTransform(testOptions(), GetParam());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

TEST_P(LutVariantTest, DesGatherVerifies)
{
    auto w = workloads::ext::makeDesGather(testOptions(), GetParam());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

TEST_P(LutVariantTest, VariantsVerifyUnderTracing)
{
    auto w = workloads::ext::makeLutTransform(testOptions(), GetParam());
    w->runScalar();
    (void)neonMix(*w);
    EXPECT_TRUE(w->verify());
}

INSTANTIATE_TEST_SUITE_P(AllLutImpls, LutVariantTest,
                         ::testing::Values(LutImpl::LaneExport,
                                           LutImpl::Gather),
                         [](const auto &info) {
                             return info.param == LutImpl::Gather
                                        ? "Gather" : "LaneExport";
                         });

TEST(LutStudy, GatherShrinksInstructionStream)
{
    auto opts = testOptions();
    auto lane = workloads::ext::makeLutTransform(opts,
                                                 LutImpl::LaneExport);
    auto gather = workloads::ext::makeLutTransform(opts, LutImpl::Gather);
    const auto laneMix = neonMix(*lane);
    const auto gatherMix = neonMix(*gather);
    // Lane export costs ~3 instructions per element (UMOV, scalar load,
    // INS); the gather replaces all of them with one vector load.
    EXPECT_LT(gatherMix.total() * 2, laneMix.total());
    // The lane-export path's look-up traffic is scalar loads + lane
    // moves; the gather path has no scalar loads in the loop at all.
    EXPECT_EQ(gatherMix.count(trace::InstrClass::SLoad), 0u);
    EXPECT_GT(laneMix.count(trace::InstrClass::SLoad), 0u);
    EXPECT_GT(gatherMix.count(trace::StrideKind::Gather), 0u);
}

TEST(LutStudy, DesGatherRemovesLaneTraffic)
{
    auto opts = testOptions();
    auto lane = workloads::ext::makeDesGather(opts, LutImpl::LaneExport);
    auto gather = workloads::ext::makeDesGather(opts, LutImpl::Gather);
    const auto laneMix = neonMix(*lane);
    const auto gatherMix = neonMix(*gather);
    // The paper: 73% of the DES Neon instructions are look-up traffic.
    const double lut_share =
        double(laneMix.count(trace::InstrClass::VMisc) +
               laneMix.count(trace::InstrClass::SLoad)) /
        double(laneMix.total());
    EXPECT_GT(lut_share, 0.5);
    EXPECT_LT(gatherMix.total() * 2, laneMix.total());
}

TEST(LutStudy, GatherBeatsScalarInSimulatedCycles)
{
    // The paper's point: with gather intrinsics the LUT kernels keep
    // their tables *and* their vector speedup.
    const Session session;
    const auto cfg = sim::primeConfig();
    auto w = workloads::ext::makeLutTransform(testOptions(), LutImpl::Gather);
    auto s = session.run(*w, core::Impl::Scalar, cfg);
    auto n = session.run(*w, core::Impl::Neon, cfg);
    EXPECT_TRUE(w->verify());
    EXPECT_GT(double(s.sim.cycles) / double(n.sim.cycles), 1.5);
}

// ---------------------------------------------------------------------
// Complex MAC study.
// ---------------------------------------------------------------------

class ComplexVariantTest : public ::testing::TestWithParam<ComplexImpl>
{
};

TEST_P(ComplexVariantTest, ZConvolveVerifies)
{
    auto w = workloads::ext::makeZConvolve(testOptions(), GetParam());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

INSTANTIATE_TEST_SUITE_P(
    AllComplexImpls, ComplexVariantTest,
    ::testing::Values(ComplexImpl::Portable, ComplexImpl::Fmla,
                      ComplexImpl::Fcmla),
    [](const auto &info) {
        switch (info.param) {
          case ComplexImpl::Portable: return "Portable";
          case ComplexImpl::Fmla: return "Fmla";
          default: return "Fcmla";
        }
    });

TEST(ComplexStudy, InstructionBudgetsAreOrdered)
{
    auto opts = testOptions();
    auto portable =
        workloads::ext::makeZConvolve(opts, ComplexImpl::Portable);
    auto fmla = workloads::ext::makeZConvolve(opts, ComplexImpl::Fmla);
    auto fcmla = workloads::ext::makeZConvolve(opts, ComplexImpl::Fcmla);
    const auto p = neonMix(*portable);
    const auto f = neonMix(*fmla);
    const auto c = neonMix(*fcmla);
    // Section 6.5's ordering: portable > fused > FCMLA.
    EXPECT_GT(p.total(), f.total());
    EXPECT_GT(f.total(), c.total());
    // FCMLA needs no permutes; the permuted recipes do.
    EXPECT_EQ(c.count(trace::StrideKind::Trn), 0u);
    EXPECT_GT(p.count(trace::StrideKind::Trn), 0u);
}

TEST(ComplexStudy, FusedAndFcmlaArithmeticBudgets)
{
    auto opts = testOptions();
    auto portable =
        workloads::ext::makeZConvolve(opts, ComplexImpl::Portable);
    auto fmla = workloads::ext::makeZConvolve(opts, ComplexImpl::Fmla);
    auto fcmla = workloads::ext::makeZConvolve(opts, ComplexImpl::Fcmla);
    const auto p = neonMix(*portable);
    const auto f = neonMix(*fmla);
    const auto c = neonMix(*fcmla);
    // Per register of complex pairs: portable spends 4 FP ops
    // (MUL/MUL/ADD/ADD), fused spends 2 (FMLA/FMLA), FCMLA spends 2 —
    // FCMLA's win over fused is the dropped permute/sign preamble.
    EXPECT_EQ(p.count(trace::InstrClass::VFloat),
              2 * f.count(trace::InstrClass::VFloat));
    EXPECT_EQ(c.count(trace::InstrClass::VFloat),
              f.count(trace::InstrClass::VFloat));
    EXPECT_EQ(c.count(trace::InstrClass::VMisc), 0u);
    EXPECT_GT(f.count(trace::InstrClass::VMisc), 0u);
}

// ---------------------------------------------------------------------
// Stride-8 study.
// ---------------------------------------------------------------------

class StrideVariantTest : public ::testing::TestWithParam<StrideImpl>
{
};

TEST_P(StrideVariantTest, Deinterleave8Verifies)
{
    auto w = workloads::ext::makeDeinterleave8(testOptions(), GetParam());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

TEST_P(StrideVariantTest, ChannelExtractVerifies)
{
    auto w = workloads::ext::makeChannelExtract(testOptions(), GetParam());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

INSTANTIATE_TEST_SUITE_P(AllStrideImpls, StrideVariantTest,
                         ::testing::Values(StrideImpl::NeonUnzip,
                                           StrideImpl::StridedLoad),
                         [](const auto &info) {
                             return info.param == StrideImpl::NeonUnzip
                                        ? "NeonUnzip" : "StridedLoad";
                         });

TEST(StrideStudy, StridedLoadCutsExtractTrafficEightfold)
{
    auto opts = testOptions();
    auto neon =
        workloads::ext::makeChannelExtract(opts, StrideImpl::NeonUnzip);
    auto rvv =
        workloads::ext::makeChannelExtract(opts, StrideImpl::StridedLoad);
    const auto n = neonMix(*neon);
    const auto r = neonMix(*rvv);
    // The VLD4-pair recipe loads all 8 channels to keep one.
    EXPECT_EQ(n.loadBytes(), 8 * r.loadBytes());
    EXPECT_LT(r.total(), n.total());
    EXPECT_GT(r.count(trace::StrideKind::LdS), 0u);
}

TEST(StrideStudy, FullDeinterleaveKeepsNeonCompetitive)
{
    // When every loaded byte is used, VLD4+UZP is already efficient:
    // the strided path wins instructions only modestly.
    auto opts = testOptions();
    auto neon =
        workloads::ext::makeDeinterleave8(opts, StrideImpl::NeonUnzip);
    auto rvv =
        workloads::ext::makeDeinterleave8(opts, StrideImpl::StridedLoad);
    const auto n = neonMix(*neon);
    const auto r = neonMix(*rvv);
    EXPECT_EQ(n.loadBytes(), r.loadBytes());
    EXPECT_LT(r.total(), n.total());
    EXPECT_GT(2 * r.total(), n.total());
}

// ---------------------------------------------------------------------
// Predication study.
// ---------------------------------------------------------------------

class TailWidthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TailWidthTest, BothTailStrategiesVerify)
{
    for (auto impl : {TailImpl::NarrowTail, TailImpl::Predicated}) {
        auto w = workloads::ext::makeAxpyTail(testOptions(), impl);
        w->runScalar();
        w->runNeon(GetParam());
        EXPECT_TRUE(w->verify()) << "width " << GetParam();
    }
}

TEST_P(TailWidthTest, PredicationNeverLowersMachineUtilization)
{
    auto opts = testOptions();
    auto narrow =
        workloads::ext::makeAxpyTail(opts, TailImpl::NarrowTail);
    auto pred =
        workloads::ext::makeAxpyTail(opts, TailImpl::Predicated);
    const auto n = neonMix(*narrow, GetParam());
    const auto p = neonMix(*pred, GetParam());
    const int machineBytes = GetParam() / 8;
    EXPECT_GE(p.machineUtilization(machineBytes) + 1e-9,
              n.machineUtilization(machineBytes))
        << "width " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, TailWidthTest,
                         ::testing::Values(128, 256, 512, 1024),
                         [](const auto &info) {
                             return "w" + std::to_string(info.param);
                         });

TEST(TailStudy, UtilizationGapGrowsWithWidth)
{
    // Section 7.1: the narrow-tail utilization drop grows with register
    // width (GEMM: 98% at 128 b -> 89% at 1024 b); predication holds
    // utilization near the DLP limit at every width.
    auto opts = testOptions();
    auto narrow =
        workloads::ext::makeAxpyTail(opts, TailImpl::NarrowTail);
    auto pred = workloads::ext::makeAxpyTail(opts, TailImpl::Predicated);
    const double n128 = neonMix(*narrow, 128).machineUtilization(16);
    const double n1024 = neonMix(*narrow, 1024).machineUtilization(128);
    const double p1024 = neonMix(*pred, 1024).machineUtilization(128);
    EXPECT_LT(n1024, n128);
    EXPECT_GT(p1024, 2.0 * n1024);
}

TEST(TailStudy, PredicationShrinksWideTailInstructionStream)
{
    // At 1024 bits a 27-element row fits no full vector: the Neon
    // cascade runs 512/256/64-bit chunks plus a scalar remainder where
    // predication runs one governed full-width iteration.
    auto opts = testOptions();
    auto narrow =
        workloads::ext::makeAxpyTail(opts, TailImpl::NarrowTail);
    auto pred = workloads::ext::makeAxpyTail(opts, TailImpl::Predicated);
    const auto n = neonMix(*narrow, 1024);
    const auto p = neonMix(*pred, 1024);
    EXPECT_LT(p.total(), n.total());
}

TEST(TailStudy, PredicatedLoopEmitsWhileltPerIteration)
{
    auto opts = testOptions();
    opts.bufferBytes = 256;
    auto pred = workloads::ext::makeAxpyTail(opts, TailImpl::Predicated);
    auto instrs = core::Runner::capture(*pred, core::Impl::Neon, 128);
    bool sawPredicate = false;
    for (const auto &i : instrs) {
        if (i.cls == trace::InstrClass::VInt && i.latency == 1 &&
            !i.isMem())
            sawPredicate = true;
    }
    EXPECT_TRUE(sawPredicate);
}

// ---------------------------------------------------------------------
// Uncountable-loop (first-fault) study.
// ---------------------------------------------------------------------

using workloads::ext::ScanImpl;

class ScanVariantTest : public ::testing::TestWithParam<ScanImpl>
{
};

TEST_P(ScanVariantTest, StrlenScanVerifies)
{
    auto w = workloads::ext::makeStrlenScan(testOptions(), GetParam());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

TEST_P(ScanVariantTest, StrlenScanVerifiesUnderTracing)
{
    auto w = workloads::ext::makeStrlenScan(testOptions(), GetParam());
    w->runScalar();
    (void)neonMix(*w);
    EXPECT_TRUE(w->verify());
}

INSTANTIATE_TEST_SUITE_P(AllScanImpls, ScanVariantTest,
                         ::testing::Values(ScanImpl::NeonOverread,
                                           ScanImpl::SveFirstFault),
                         [](const auto &info) {
                             return info.param == ScanImpl::NeonOverread
                                        ? "NeonOverread"
                                        : "SveFirstFault";
                         });

TEST(ScanStudy, FirstFaultCutsLaneExportTraffic)
{
    auto opts = testOptions();
    auto neon = workloads::ext::makeStrlenScan(opts,
                                               ScanImpl::NeonOverread);
    auto sve = workloads::ext::makeStrlenScan(opts,
                                              ScanImpl::SveFirstFault);
    const auto n = neonMix(*neon);
    const auto s = neonMix(*sve);
    // The Neon locate path exports up to 16 lanes per string; the SVE
    // path uses one BRKB/CNTP-style op. Both beat scalar instruction
    // counts, but SVE's stream is strictly smaller.
    EXPECT_LT(s.count(trace::InstrClass::VMisc),
              n.count(trace::InstrClass::VMisc));
    EXPECT_LT(s.total(), n.total());
}

TEST(ScanStudy, BothVectorScansBeatScalarInstructionCount)
{
    auto opts = testOptions();
    for (auto impl : {ScanImpl::NeonOverread, ScanImpl::SveFirstFault}) {
        auto w = workloads::ext::makeStrlenScan(opts, impl);
        auto scalarTrace =
            core::Runner::capture(*w, core::Impl::Scalar, 128);
        trace::MixStats scalar;
        scalar.addTrace(scalarTrace);
        const auto vec = neonMix(*w);
        EXPECT_GT(scalar.total(), 2 * vec.total());
        EXPECT_TRUE(w->verify());
    }
}
