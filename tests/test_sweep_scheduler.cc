/**
 * @file
 * Tests of the parallel sweep executor (sweep/scheduler.hh): result
 * ordering, 1-thread vs N-thread equality (the determinism contract),
 * trace memoization across core configs, cache interplay and the
 * registration-closed invariant.
 */

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"

using namespace swan;

namespace
{

/** A small but multi-kernel, multi-config grid. */
sweep::SweepSpec
smallGrid()
{
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32", "ZL/crc32", "OR/memcpy"};
    spec.impls = {core::Impl::Scalar, core::Impl::Neon};
    spec.configs = {"prime", "silver"};
    spec.workingSets = {"tiny"};
    return spec;
}

std::string
render(const std::vector<sweep::SweepResult> &results)
{
    std::ostringstream os;
    sweep::emitResults(os, results, sweep::Format::JsonLines);
    return os.str();
}

} // namespace

TEST(SweepScheduler, ResultsLandInPointOrder)
{
    std::string err;
    auto points = sweep::expand(smallGrid(), &err);
    ASSERT_EQ(points.size(), 12u) << err;
    sweep::SchedulerConfig sc;
    sc.jobs = 4;
    auto results = sweep::runSweep(points, sc);
    ASSERT_EQ(results.size(), points.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].point.index, i);
        EXPECT_EQ(results[i].point.spec, points[i].spec);
        EXPECT_GT(results[i].run.sim.cycles, 0u);
        EXPECT_GT(results[i].run.mix.total(), 0u);
    }
}

TEST(SweepScheduler, OneThreadAndManyThreadsAgreeByteForByte)
{
    std::string err;
    auto points = sweep::expand(smallGrid(), &err);
    ASSERT_FALSE(points.empty()) << err;

    // The compared sweeps replay traces pinned on disk (primed once
    // with a different warm-up-pass count so the RESULT cache never
    // hits and every run actually schedules and simulates): with the
    // instruction streams fixed, any cross-jobs difference can only
    // come from the scheduler itself — grouping, unit hand-out,
    // result placement, the power pass. Fresh-capture identity across
    // --jobs and processes is tests/test_determinism.cc's job.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("swan_sched_jobs_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
        sweep::ResultCache prime(dir.string());
        sweep::SchedulerConfig sc;
        sc.jobs = 1;
        sc.cache = &prime;
        sc.warmupPasses = 2;
        sweep::runSweep(points, sc);
    }

    std::string serial;
    for (int jobs : {1, 2, 4, 8}) {
        // Drop stored results (keep the traces) so every run
        // simulates instead of replaying the result cache.
        for (const auto &e : std::filesystem::directory_iterator(dir))
            if (e.path().extension() == ".swr")
                std::filesystem::remove(e.path());
        sweep::ResultCache cache(dir.string());
        sweep::SchedulerConfig sc;
        sc.jobs = jobs;
        sc.cache = &cache;
        const auto out = render(sweep::runSweep(points, sc));
        EXPECT_EQ(cache.stats().traceHits, 6u) << "jobs=" << jobs;
        if (jobs == 1)
            serial = out;
        else
            EXPECT_EQ(serial, out) << "jobs=" << jobs;
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepScheduler, SchedulerMatchesDirectRunnerSimulation)
{
    // The engine's (capture once, simulate per config) pipeline must
    // reproduce what a hand-rolled capture+simulate of the same trace
    // yields: same instruction counts, same non-zero cycles.
    std::string err;
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 1u) << err;

    auto results = sweep::runSweep(points, {});
    ASSERT_EQ(results.size(), 1u);

    auto w = points[0].spec->make(points[0].options);
    auto instrs =
        core::Runner::capture(*w, core::Impl::Neon, 128);
    EXPECT_EQ(results[0].run.mix.total(), instrs.size());
}

TEST(SweepScheduler, SharedCacheServesRepeatedPointsWithoutRerun)
{
    std::string err;
    auto points = sweep::expand(smallGrid(), &err);
    ASSERT_FALSE(points.empty()) << err;

    sweep::ResultCache cache;
    sweep::SchedulerConfig sc;
    sc.jobs = 4;
    sc.cache = &cache;
    const auto cold = render(sweep::runSweep(points, sc));
    const auto coldStats = cache.stats();
    EXPECT_EQ(coldStats.misses, points.size());

    const auto warm = render(sweep::runSweep(points, sc));
    const auto warmStats = cache.stats();
    EXPECT_EQ(warmStats.misses, coldStats.misses); // nothing re-simulated
    EXPECT_EQ(warmStats.hits, points.size());
    EXPECT_EQ(cold, warm);
}

TEST(SweepScheduler, FindResultSelectsOnAxes)
{
    std::string err;
    auto points = sweep::expand(smallGrid(), &err);
    ASSERT_FALSE(points.empty()) << err;
    auto results = sweep::runSweep(points, {});

    const auto *r = sweep::findResult(results, "ZL/crc32",
                                      core::Impl::Neon, 128, "silver");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->point.spec->info.name, "crc32");
    EXPECT_EQ(r->point.configName, "silver");
    EXPECT_EQ(r->point.impl, core::Impl::Neon);

    EXPECT_EQ(sweep::findResult(results, "ZL/crc32", core::Impl::Neon,
                                512),
              nullptr);
    EXPECT_EQ(sweep::findResult(results, "XX/nope", core::Impl::Neon,
                                128),
              nullptr);
}

TEST(SweepScheduler, RunningASweepClosesRegistration)
{
    std::string err;
    sweep::SweepSpec spec;
    spec.kernels.names = {"OR/memcpy"};
    spec.workingSets = {"tiny"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 1u) << err;
    sweep::runSweep(points, {});
    EXPECT_TRUE(core::Registry::instance().registrationClosed());
}

TEST(SweepScheduler, EmittersShareOneSchema)
{
    std::string err;
    sweep::SweepSpec spec;
    spec.kernels.names = {"ZL/adler32"};
    spec.workingSets = {"tiny"};
    auto points = sweep::expand(spec, &err);
    ASSERT_EQ(points.size(), 1u) << err;
    auto results = sweep::runSweep(points, {});

    std::ostringstream table, csv, jsonl;
    sweep::emitResults(table, results, sweep::Format::Table);
    sweep::emitResults(csv, results, sweep::Format::Csv);
    sweep::emitResults(jsonl, results, sweep::Format::JsonLines);

    const std::string t = table.str(), c = csv.str(), j = jsonl.str();
    for (const char *needle : {"kernel", "cycles", "energy_mj"}) {
        EXPECT_NE(t.find(needle), std::string::npos) << needle;
        EXPECT_NE(c.find(needle), std::string::npos) << needle;
        EXPECT_NE(j.find(needle), std::string::npos) << needle;
    }
    EXPECT_NE(c.find("ZL/adler32"), std::string::npos);
    EXPECT_NE(j.find("\"kernel\":\"ZL/adler32\""), std::string::npos);

    // CSV: header + one row; JSONL: one object per point.
    EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 2);
    EXPECT_EQ(std::count(j.begin(), j.end(), '\n'), 1);
}
