/**
 * @file
 * Tests of the swan::Experiment façade (swan/experiment.hh): fluent
 * spec accumulation, error paths (unknown kernel / config / working
 * set, empty grids) through both the throwing and non-throwing run()
 * forms, the Results view (find / where / emit), and byte-identity of
 * a façade run against the direct sweep::runSweep path it wraps.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "swan/swan.hh"

using namespace swan;

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
