/**
 * @file
 * Integration tests of the measurement harness: trace capture through
 * the Workload interface, and sanity of the derived metrics (speedups,
 * instruction reduction, energy) of measured points — Speedup rows of
 * an Experiment — on real kernels at tiny input sizes.
 */

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.hh"
#include "core/registry.hh"
#include "core/runner.hh"
#include "swan/experiment.hh"

using namespace swan;

namespace
{

core::Options
tinyOptions()
{
    core::Options o;
    o.imageWidth = 64;
    o.imageHeight = 32;
    o.audioSamples = 512;
    o.bufferBytes = 2048;
    o.gemmM = 8;
    o.gemmN = 12;
    o.gemmK = 16;
    o.videoBlocks = 2;
    return o;
}

/** @p kernel's @p impls on @p configs at the tiny working set. */
Results
measure(Session &session, const char *kernel,
        std::vector<core::Impl> impls,
        std::vector<std::string> configs = {"prime"})
{
    return Experiment(session)
        .kernel(kernel)
        .impls(std::move(impls))
        .configs(std::move(configs))
        .workingSet("tiny")
        .run();
}

/** The row of @p rows whose point is @p impl on @p config; null if
 *  absent. */
const Speedup *
rowFor(const std::vector<Speedup> &rows, core::Impl impl,
       std::string_view config = "prime")
{
    for (const auto &r : rows)
        if (r.point->point.impl == impl &&
            r.point->point.configName == config)
            return &r;
    return nullptr;
}

} // namespace

TEST(Runner, CaptureProducesNonEmptyTraces)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(tinyOptions());
    auto scalar = core::Runner::capture(*w, core::Impl::Scalar);
    auto neon = core::Runner::capture(*w, core::Impl::Neon);
    EXPECT_GT(scalar.size(), 0u);
    EXPECT_GT(neon.size(), 0u);
    EXPECT_LT(neon.size(), scalar.size()); // vector reduces instructions
    EXPECT_TRUE(w->verify());
}

TEST(Runner, TraceIdsAreProgramOrder)
{
    const auto *spec = core::Registry::instance().find("OR/memcpy");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(tinyOptions());
    auto instrs = core::Runner::capture(*w, core::Impl::Neon);
    for (size_t i = 0; i < instrs.size(); ++i) {
        EXPECT_EQ(instrs[i].id, i + 1);
        EXPECT_LE(instrs[i].dep0, instrs[i].id);
        EXPECT_LE(instrs[i].dep1, instrs[i].id);
        EXPECT_LE(instrs[i].dep2, instrs[i].id);
    }
}

TEST(Measurement, SpeedupMetricsSane)
{
    Session session;
    const Results r =
        measure(session, "ZL/crc32",
                {core::Impl::Scalar, core::Impl::Auto, core::Impl::Neon});
    const auto rows = r.speedupVs(core::Impl::Scalar);
    const Speedup *neon = rowFor(rows, core::Impl::Neon);
    ASSERT_NE(neon, nullptr);
    EXPECT_GT(neon->speedup(), 1.0);
    EXPECT_GT(neon->instrReduction(), 1.0);
    EXPECT_GT(neon->energyImprovement(), 1.0);
    EXPECT_GT(neon->baseline->run.sim.powerW, 0.1);
    EXPECT_LT(neon->baseline->run.sim.powerW, 10.0);

    // The paper's output check, on one instance running all three.
    auto w = core::Registry::instance().find("ZL/crc32")->make(
        core::Options::tiny());
    w->runScalar();
    w->runAuto();
    w->runNeon(128);
    EXPECT_TRUE(w->verify());
}

TEST(Measurement, AutoDefaultsToScalarWhenVectorizationFails)
{
    // adler32's verdict is "does not vectorize" with no dedicated Auto
    // implementation, so Auto == Scalar instruction-for-instruction.
    Session session;
    const Results r = measure(session, "ZL/adler32",
                              {core::Impl::Scalar, core::Impl::Auto});
    const auto rows = r.speedupVs(core::Impl::Scalar);
    const Speedup *autovec = rowFor(rows, core::Impl::Auto);
    ASSERT_NE(autovec, nullptr);
    EXPECT_EQ(autovec->point->run.mix.total(),
              autovec->baseline->run.mix.total());
    EXPECT_NEAR(autovec->speedup(), 1.0, 0.02);
}

TEST(Measurement, VectorizedAutoBeatsScalar)
{
    const auto *spec = core::Registry::instance().find("LP/defilter_up");
    ASSERT_NE(spec, nullptr);
    ASSERT_TRUE(spec->info.autovec.vectorizes);
    Session session;
    const Results r = measure(session, "LP/defilter_up",
                              {core::Impl::Scalar, core::Impl::Auto});
    const auto rows = r.speedupVs(core::Impl::Scalar);
    const Speedup *autovec = rowFor(rows, core::Impl::Auto);
    ASSERT_NE(autovec, nullptr);
    EXPECT_GT(autovec->speedup(), 1.05);
}

TEST(Runner, GeomeanHelpers)
{
    EXPECT_DOUBLE_EQ(core::geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(core::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(core::mean({1.0, 3.0}), 2.0);
}

TEST(Measurement, SilverVsPrimeEnergy)
{
    Session session;
    const Results r =
        measure(session, "WA/gain_node",
                {core::Impl::Scalar, core::Impl::Neon}, {"prime", "silver"});
    const auto rows = r.speedupVs(core::Impl::Scalar);
    const Speedup *prime = rowFor(rows, core::Impl::Neon, "prime");
    const Speedup *silver = rowFor(rows, core::Impl::Neon, "silver");
    ASSERT_NE(prime, nullptr);
    ASSERT_NE(silver, nullptr);
    // Each Neon point pairs with the Scalar point of its own core.
    EXPECT_EQ(prime->baseline->point.configName, "prime");
    EXPECT_EQ(silver->baseline->point.configName, "silver");
    // Both cores should show Neon gains; Prime runs are faster in
    // absolute time.
    EXPECT_GT(prime->speedup(), 1.2);
    EXPECT_GT(silver->speedup(), 1.0);
    EXPECT_LT(prime->point->run.sim.timeSec,
              silver->point->run.sim.timeSec);
}
