/**
 * @file
 * Tests of the swan::Experiment façade (swan/experiment.hh): fluent
 * spec accumulation, error paths (unknown kernel / config / working
 * set, empty grids) through both the throwing and non-throwing run()
 * forms, the Results view (find / where / emit), the aggregation over
 * it (speedupVs / geomeanBy / valueFor), byte-identity of a façade run
 * against the direct sweep::runSweep path it wraps, and equality of
 * its rows with Session::run on one reused workload instance.
 */

#include <bit>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "swan/swan.hh"

using namespace swan;

namespace
{

/** Every SimResult field bit for bit, and the mix counters. */
void
expectSameRun(const core::KernelRun &want, const core::KernelRun &got)
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

TEST(ApiExperiment, FluentCallsAccumulateIntoTheSpec)
{
    Session session(SessionOptions{}.withWarmupPasses(3));
    Experiment e(session);
    e.kernel("ZL/adler32")
        .kernel("ZL/crc32")
        .library("ZL")
        .widerOnly(false)
        .includeExcluded()
        .impls({core::Impl::Scalar, core::Impl::Neon})
        .vecBits({128, 256})
        .configs({"prime", "silver"})
        .workingSet("tiny");

    const sweep::SweepSpec &spec = e.spec();
    ASSERT_EQ(spec.kernels.names.size(), 2u);
    EXPECT_EQ(spec.kernels.names[0], "ZL/adler32");
    EXPECT_EQ(spec.kernels.names[1], "ZL/crc32");
    EXPECT_EQ(spec.kernels.library, "ZL");
    EXPECT_FALSE(spec.kernels.widerOnly);
    EXPECT_TRUE(spec.kernels.includeExcluded);
    ASSERT_EQ(spec.impls.size(), 2u);
    EXPECT_EQ(spec.vecBits, (std::vector<int>{128, 256}));
    EXPECT_EQ(spec.configs,
              (std::vector<std::string>{"prime", "silver"}));
    EXPECT_EQ(spec.workingSets, (std::vector<std::string>{"tiny"}));
    // Session warm-up is the default; an explicit call overrides it.
    EXPECT_EQ(spec.warmupPasses, 3);
    e.warmupPasses(2);
    EXPECT_EQ(e.spec().warmupPasses, 2);
}

TEST(ApiExperiment, UnknownKernelReportsAndThrows)
{
    Session session;
    Experiment e(session);
    e.kernel("ZL/no_such_kernel").workingSet("tiny");

    std::string err;
    const Results r = e.run(&err);
    EXPECT_TRUE(r.empty());
    EXPECT_NE(err.find("unknown kernel"), std::string::npos) << err;

    EXPECT_THROW(e.run(), Error);
    try {
        e.run();
    } catch (const Error &ex) {
        EXPECT_NE(std::string(ex.what()).find("no_such_kernel"),
                  std::string::npos);
    }
}

TEST(ApiExperiment, BadGridAxesReport)
{
    Session session;

    std::string err;
    EXPECT_TRUE(Experiment(session)
                    .kernel("ZL/adler32")
                    .config("turbo9000")
                    .run(&err)
                    .empty());
    EXPECT_NE(err.find("unknown core config"), std::string::npos) << err;

    err.clear();
    EXPECT_TRUE(Experiment(session)
                    .kernel("ZL/adler32")
                    .workingSet("galactic")
                    .run(&err)
                    .empty());
    EXPECT_NE(err.find("unknown working set"), std::string::npos) << err;

    err.clear();
    EXPECT_TRUE(
        Experiment(session).library("NOPE").run(&err).empty());
    EXPECT_NE(err.find("matches no kernels"), std::string::npos) << err;

    err.clear();
    EXPECT_TRUE(Experiment(session)
                    .kernel("ZL/adler32")
                    .impls({})
                    .run(&err)
                    .empty());
    EXPECT_NE(err.find("empty axis"), std::string::npos) << err;

    err.clear();
    EXPECT_TRUE(Experiment(session)
                    .kernel("ZL/adler32")
                    .vecBits({192})
                    .run(&err)
                    .empty());
    EXPECT_NE(err.find("128/256/512/1024"), std::string::npos) << err;
}

TEST(ApiExperiment, ResultsViewFindWhereEmit)
{
    Session session;
    const Results results = Experiment(session)
                                .kernel("ZL/adler32")
                                .impls({core::Impl::Scalar,
                                        core::Impl::Neon})
                                .config("prime")
                                .workingSet("tiny")
                                .run();
    ASSERT_EQ(results.size(), 2u);

    const auto *scalar =
        results.find("ZL/adler32", core::Impl::Scalar, 128);
    const auto *neon = results.find("ZL/adler32", core::Impl::Neon, 128);
    ASSERT_NE(scalar, nullptr);
    ASSERT_NE(neon, nullptr);
    EXPECT_GT(scalar->run.sim.cycles, neon->run.sim.cycles);
    EXPECT_EQ(results.find("ZL/adler32", core::Impl::Auto, 128), nullptr);

    const Results neonOnly = results.where([](const auto &r) {
        return r.point.impl == core::Impl::Neon;
    });
    ASSERT_EQ(neonOnly.size(), 1u);
    EXPECT_EQ(neonOnly[0].point.impl, core::Impl::Neon);

    std::ostringstream table, csv;
    results.emit(table, sweep::Format::Table);
    results.emit(csv, sweep::Format::Csv);
    EXPECT_NE(table.str().find("ZL/adler32"), std::string::npos);
    EXPECT_NE(csv.str().find("ZL/adler32,Scalar"), std::string::npos);

    // The run snapshots the session cache counters: two cold points.
    EXPECT_EQ(results.cacheStats().misses, 2u);
    EXPECT_EQ(results.cacheStats().stores, 2u);
    EXPECT_NE(results.cacheSummary().find("2 misses"),
              std::string::npos)
        << results.cacheSummary();
}

TEST(ApiExperiment, ByteIdenticalToDirectSchedulerPath)
{
    // The façade must add nothing to the measurement: the same grid
    // run through Experiment::run() and through sweep::runSweep with
    // the session's own SchedulerConfig must agree bit-for-bit through
    // the emitters (the session cache is shared, so the second pass is
    // served from it — which *is* the equivalence guarantee the cache
    // documents for warm replays).
    Session session;
    Experiment e(session);
    e.kernels({"ZL/adler32", "LJ/rgb_to_ycbcr"})
        .impls({core::Impl::Scalar, core::Impl::Neon})
        .configs({"prime", "silver"})
        .workingSet("tiny");

    const Results viaFacade = e.run();

    std::string err;
    const auto direct =
        sweep::runSweep(e.spec(), session.schedulerConfig(), &err);
    ASSERT_FALSE(direct.empty()) << err;
    ASSERT_EQ(direct.size(), viaFacade.size());

    std::ostringstream a, b;
    sweep::emitResults(a, viaFacade.points(), sweep::Format::JsonLines);
    sweep::emitResults(b, direct, sweep::Format::JsonLines);
    EXPECT_EQ(a.str(), b.str());

    // And per-point, the raw cycle counts match exactly.
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(direct[i].run.sim.cycles,
                  viaFacade[i].run.sim.cycles)
            << "point " << i;
}

TEST(ApiExperiment, SpeedupVsPairsTheExactWidthElseThe128BitBaseline)
{
    Session session;
    const Results r = Experiment(session)
                          .kernel("ZL/adler32")
                          .impls({core::Impl::Scalar, core::Impl::Neon})
                          .vecBits({128, 256})
                          .workingSet("tiny")
                          .run();
    ASSERT_EQ(r.size(), 3u); // Scalar has no width axis: one point
    const auto *scalar = r.find("ZL/adler32", core::Impl::Scalar, 128);
    const auto *neon128 = r.find("ZL/adler32", core::Impl::Neon, 128);
    const auto *neon256 = r.find("ZL/adler32", core::Impl::Neon, 256);
    ASSERT_TRUE(scalar && neon128 && neon256);

    // Both widths fall back to, or match, the one 128-bit Scalar point.
    const auto overScalar = r.speedupVs(core::Impl::Scalar);
    ASSERT_EQ(overScalar.size(), 2u);
    EXPECT_EQ(overScalar[0].point, neon128);
    EXPECT_EQ(overScalar[0].baseline, scalar);
    EXPECT_EQ(overScalar[1].point, neon256);
    EXPECT_EQ(overScalar[1].baseline, scalar);
    EXPECT_EQ(overScalar[1].speedup(),
              double(scalar->run.sim.cycles) /
                  double(neon256->run.sim.cycles));

    // A baseline of the point's own width wins over the 128-bit one,
    // even when the 128-bit one comes first in the stream.
    std::vector<sweep::SweepResult> rows = r.points();
    sweep::SweepResult scalar256 = *scalar;
    scalar256.point.vecBits = 256;
    rows.push_back(scalar256);
    const Results widened(std::move(rows), r.cacheStats());
    const auto exact = widened.speedupVs(core::Impl::Scalar);
    ASSERT_EQ(exact.size(), 2u);
    EXPECT_EQ(exact[0].baseline, &widened[0]);
    EXPECT_EQ(exact[1].point, &widened[2]);
    EXPECT_EQ(exact[1].baseline, &widened[3]);

    // Against Neon, the Scalar point pairs with Neon's 128-bit point.
    const auto overNeon = r.speedupVs(core::Impl::Neon);
    ASSERT_EQ(overNeon.size(), 1u);
    EXPECT_EQ(overNeon[0].point, scalar);
    EXPECT_EQ(overNeon[0].baseline, neon128);
}

TEST(ApiExperiment, SpeedupVsDropsPointsWithoutABaseline)
{
    Session session;
    const Results r = Experiment(session)
                          .kernel("ZL/adler32")
                          .impls({core::Impl::Scalar, core::Impl::Neon})
                          .configs({"prime", "silver"})
                          .workingSet("tiny")
                          .run();
    ASSERT_EQ(r.size(), 4u);
    // Without silver's Scalar point, silver's Neon point has no
    // baseline (another config's Scalar point is no substitute).
    const Results noSilverScalar =
        r.where([](const sweep::SweepResult &p) {
            return p.point.impl == core::Impl::Neon ||
                   p.point.configName == "prime";
        });
    const auto rows = noSilverScalar.speedupVs(core::Impl::Scalar);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].point->point.configName, "prime");
    EXPECT_EQ(rows[0].baseline->point.configName, "prime");
    EXPECT_TRUE(noSilverScalar.where([](const sweep::SweepResult &p) {
                                   return p.point.impl == core::Impl::Neon;
                               })
                    .speedupVs(core::Impl::Scalar)
                    .empty());
}

TEST(ApiExperiment, GeomeanByGroupsInFirstOccurrenceOrder)
{
    Session session;
    const Results r = Experiment(session)
                          .kernels({"ZL/adler32", "OR/memcpy", "ZL/crc32"})
                          .impls({core::Impl::Scalar, core::Impl::Neon})
                          .workingSet("tiny")
                          .run();
    const auto rows = r.speedupVs(core::Impl::Scalar);
    ASSERT_EQ(rows.size(), 3u);
    const auto bySymbol = [](const Speedup &s) {
        return s.point->point.spec->info.symbol;
    };
    std::map<std::string, int> sizes;
    const auto cells = geomeanBy(rows, bySymbol, [&](const Speedup &s) {
        ++sizes[bySymbol(s)];
        return s.speedup();
    });
    // ZL first although OR sorts before it, and the ZL kernels on
    // either side of OR/memcpy form one group.
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].first, "ZL");
    EXPECT_EQ(cells[1].first, "OR");
    EXPECT_EQ(sizes["ZL"], 2);
    EXPECT_EQ(sizes["OR"], 1);
    // Each group's geomean runs over its rows in row order.
    EXPECT_EQ(cells[0].second,
              core::geomean({rows[0].speedup(), rows[2].speedup()}));
    EXPECT_EQ(cells[1].second, rows[1].speedup());
    EXPECT_GT(cells[0].second, 1.0);

    EXPECT_TRUE(geomeanBy({}, bySymbol, [](const Speedup &s) {
                    return s.speedup();
                }).empty());
}

TEST(ApiExperiment, ValueForFallsBackForAbsentGroups)
{
    const std::vector<std::pair<std::string, double>> cells = {
        {"ZL", 3.5}, {"OR", 2.0}};
    EXPECT_EQ(valueFor(cells, "OR"), 2.0);
    EXPECT_EQ(valueFor(cells, "ZL", -1.0), 3.5);
    EXPECT_EQ(valueFor(cells, "BS"), 0.0);
    EXPECT_EQ(valueFor(cells, "BS", -1.0), -1.0);
    EXPECT_EQ(valueFor({}, "ZL", 7.0), 7.0);
}

TEST(ApiExperiment, RowsEqualSessionRunsOnOneReusedInstance)
{
    // An Experiment captures every point from a fresh workload
    // instance; a caller of Session::run may reuse one instance
    // for Scalar, then Auto, then Neon. Both must measure the same
    // thing, or the single-point path and the grids would disagree.
    // adler32 has no Auto code, defilter_up's Auto vectorizes, and
    // aes_encrypt loads tables its constructor registers.
    const std::vector<std::string> kernels = {
        "ZL/adler32", "LP/defilter_up", "BS/aes_encrypt"};
    const std::vector<std::string> configs = {"prime", "silver"};
    const core::Impl impls[] = {core::Impl::Scalar, core::Impl::Auto,
                                core::Impl::Neon};
    Session session;
    const Results grid = Experiment(session)
                             .kernels(kernels)
                             .impls({impls[0], impls[1], impls[2]})
                             .configs(configs)
                             .workingSet("tiny")
                             .run();
    ASSERT_EQ(grid.size(), kernels.size() * configs.size() * 3);
    for (const auto &name : kernels) {
        const auto *spec = core::Registry::instance().find(name);
        ASSERT_NE(spec, nullptr) << name;
        for (const auto &config : configs) {
            sim::CoreConfig cfg;
            ASSERT_TRUE(sweep::configForName(config, 128, &cfg));
            auto w = spec->make(core::Options::tiny());
            for (const core::Impl impl : impls) {
                SCOPED_TRACE(name + " " + config + " " +
                             std::string(core::name(impl)));
                const auto *row = grid.find(name, impl, 128, config);
                ASSERT_NE(row, nullptr);
                expectSameRun(row->run, session.run(*w, impl, cfg));
            }
        }
    }
}
