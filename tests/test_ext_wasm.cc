/**
 * @file
 * Integration tests for the Section 9 WebAssembly SIMD porting study
 * (workloads/ext/wasm_study.cc): every port must verify against its
 * scalar reference under every target ISA, and the instruction-stream
 * relations the study exists to demonstrate must hold — shuffle
 * cascades replace VLD3, horizontal folds replace ADDV, mul+add
 * replaces FMLA until relaxed-simd restores it, and the wasm SHA-256
 * carries no crypto instructions.
 */

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "sim/configs.hh"
#include "swan/session.hh"
#include "trace/stats.hh"
#include "workloads/ext/ext.hh"

using namespace swan;
using workloads::ext::WasmIsa;

namespace
{

core::Options
testOptions()
{
    core::Options o;
    o.imageWidth = 64;
    o.imageHeight = 24;
    o.audioSamples = 512;
    o.bufferBytes = 2048;
    return o;
}

/** Capture a port's vector-implementation trace mix. */
trace::MixStats
portMix(core::Workload &w)
{
    auto instrs = core::Runner::capture(w, core::Impl::Neon, 128);
    trace::MixStats mix;
    mix.addTrace(instrs);
    return mix;
}

using Factory = std::unique_ptr<core::Workload> (*)(const core::Options &,
                                                    WasmIsa);

struct PortCase
{
    const char *name;
    Factory make;
};

const PortCase kPorts[] = {
    {"rgb_to_y", &workloads::ext::makeWasmRgbToY},
    {"adler32", &workloads::ext::makeWasmAdler32},
    {"fir_filter", &workloads::ext::makeWasmFirFilter},
    {"sha256", &workloads::ext::makeWasmSha256},
};

} // namespace

// ---------------------------------------------------------------------
// Correctness: every port, every ISA.
// ---------------------------------------------------------------------

class WasmPortTest
    : public ::testing::TestWithParam<std::tuple<int, WasmIsa>>
{
  protected:
    const PortCase &port() const
    {
        return kPorts[size_t(std::get<0>(GetParam()))];
    }
    WasmIsa isa() const { return std::get<1>(GetParam()); }
};

TEST_P(WasmPortTest, VerifiesAgainstScalar)
{
    auto w = port().make(testOptions(), isa());
    w->runScalar();
    w->runNeon(128);
    EXPECT_TRUE(w->verify()) << port().name;
}

TEST_P(WasmPortTest, VectorizedPortReducesInstructions)
{
    // Every port except the wasm SHA-256 (which must fall back to
    // scalar rounds) should still beat the scalar instruction count.
    auto w = port().make(testOptions(), isa());
    auto scalar = core::Runner::capture(*w, core::Impl::Scalar);
    auto vec = core::Runner::capture(*w, core::Impl::Neon, 128);
    const bool scalar_fallback =
        std::string(port().name) == "sha256" &&
        isa() != WasmIsa::NeonNative;
    if (scalar_fallback)
        EXPECT_GE(vec.size(), scalar.size());
    else
        EXPECT_LT(vec.size(), scalar.size()) << port().name;
}

using PortParam = std::tuple<int, WasmIsa>;

static std::string
portParamName(const ::testing::TestParamInfo<PortParam> &info)
{
    static const char *isa_names[] = {"Neon", "Simd128", "Relaxed"};
    return std::string(kPorts[size_t(std::get<0>(info.param))].name) +
           "_" + isa_names[size_t(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllPorts, WasmPortTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(WasmIsa::NeonNative,
                                         WasmIsa::Simd128,
                                         WasmIsa::Relaxed)),
    portParamName);

// ---------------------------------------------------------------------
// Instruction-stream relations.
// ---------------------------------------------------------------------

TEST(WasmStudy, RgbShuffleCascadeReplacesVld3)
{
    auto opts = testOptions();
    auto neon = workloads::ext::makeWasmRgbToY(opts, WasmIsa::NeonNative);
    auto wasm = workloads::ext::makeWasmRgbToY(opts, WasmIsa::Simd128);
    auto nmix = portMix(*neon);
    auto wmix = portMix(*wasm);

    // Neon de-interleaves inside VLD3 (stride-3 tagged loads, no
    // permutes in the hot loop); the wasm port has three unit-stride
    // loads plus six shuffles per 16 pixels.
    EXPECT_GT(nmix.count(trace::StrideKind::Ld3), 0u);
    EXPECT_EQ(wmix.count(trace::StrideKind::Ld3), 0u);
    // Both variants widen with VMisc-class moves; the wasm port adds
    // six shuffles per 16 pixels on top (roughly +2/3 more VMisc).
    EXPECT_GT(double(wmix.count(trace::InstrClass::VMisc)),
              1.4 * double(nmix.count(trace::InstrClass::VMisc)));
    EXPECT_GT(wmix.count(trace::InstrClass::VLoad),
              nmix.count(trace::InstrClass::VLoad));
    // And wasm needs more total vector work (extmul+add vs VMLAL).
    EXPECT_GT(wmix.vectorInstrs(), nmix.vectorInstrs());
}

TEST(WasmStudy, AdlerHorizontalFoldCostsMoreThanAddv)
{
    auto opts = testOptions();
    auto neon = workloads::ext::makeWasmAdler32(opts, WasmIsa::NeonNative);
    auto wasm = workloads::ext::makeWasmAdler32(opts, WasmIsa::Simd128);
    auto nmix = portMix(*neon);
    auto wmix = portMix(*wasm);
    // No ADDV/VPADAL: the wasm accumulation needs extra adds and the
    // block reduction needs shuffles.
    EXPECT_GT(wmix.count(trace::InstrClass::VMisc),
              nmix.count(trace::InstrClass::VMisc));
    EXPECT_GT(wmix.vectorInstrs(), nmix.vectorInstrs());
}

TEST(WasmStudy, RelaxedMaddRestoresFirInstructionBudget)
{
    auto opts = testOptions();
    auto neon =
        workloads::ext::makeWasmFirFilter(opts, WasmIsa::NeonNative);
    auto base = workloads::ext::makeWasmFirFilter(opts, WasmIsa::Simd128);
    auto relaxed =
        workloads::ext::makeWasmFirFilter(opts, WasmIsa::Relaxed);
    const auto n = portMix(*neon).count(trace::InstrClass::VFloat);
    const auto b = portMix(*base).count(trace::InstrClass::VFloat);
    const auto r = portMix(*relaxed).count(trace::InstrClass::VFloat);
    // Base proposal: mul + add per tap (7 FP ops per vector); relaxed
    // and Neon: 4 fused ops.
    EXPECT_GT(b, r);
    EXPECT_EQ(r, n);
    EXPECT_GE(double(b), 1.6 * double(r));
}

TEST(WasmStudy, WasmSha256HasNoCryptoInstructions)
{
    auto opts = testOptions();
    auto neon = workloads::ext::makeWasmSha256(opts, WasmIsa::NeonNative);
    auto wasm = workloads::ext::makeWasmSha256(opts, WasmIsa::Simd128);
    auto nmix = portMix(*neon);
    auto wmix = portMix(*wasm);
    EXPECT_GT(nmix.count(trace::InstrClass::VCrypto), 0u);
    EXPECT_EQ(wmix.count(trace::InstrClass::VCrypto), 0u);
    EXPECT_EQ(wmix.vectorInstrs(), 0u); // falls back to scalar rounds
    EXPECT_GT(wmix.total(), nmix.total());
}

// ---------------------------------------------------------------------
// End-to-end timing relations on the Prime core model.
// ---------------------------------------------------------------------

TEST(WasmStudy, PortedKernelsStillBeatScalarOnPrime)
{
    auto opts = testOptions();
    const Session session;
    const auto cfg = sim::primeConfig();
    for (const auto &pc : kPorts) {
        if (std::string(pc.name) == "sha256")
            continue; // wasm port is scalar by construction
        auto w = pc.make(opts, WasmIsa::Simd128);
        auto scalar = session.run(*w, core::Impl::Scalar, cfg);
        auto vec = session.run(*w, core::Impl::Neon, cfg);
        EXPECT_LT(vec.sim.cycles, scalar.sim.cycles) << pc.name;
    }
}

TEST(WasmStudy, NeonNativeIsAtLeastAsFastAsWasmPort)
{
    auto opts = testOptions();
    const Session session;
    const auto cfg = sim::primeConfig();
    for (const auto &pc : kPorts) {
        auto wn = pc.make(opts, WasmIsa::NeonNative);
        auto ww = pc.make(opts, WasmIsa::Simd128);
        auto neon = session.run(*wn, core::Impl::Neon, cfg);
        auto wasm = session.run(*ww, core::Impl::Neon, cfg);
        EXPECT_LE(neon.sim.cycles, wasm.sim.cycles) << pc.name;
    }
}
