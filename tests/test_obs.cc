/**
 * @file
 * Tests of swan::obs (obs/telemetry.hh, obs/report.hh): the span
 * registry lifecycle, overflow accounting, report aggregation and the
 * two built-in sinks — plus the properties the rest of the engine
 * depends on, checked end-to-end on pinned traces:
 *
 *  - emitter output is byte-identical with a collector attached or
 *    not, for any job count;
 *  - onRow streams every row exactly once, strictly in point-index
 *    order, with truthful origins.
 *
 * The registry is process-global, so every test that starts a
 * collector releases it before returning (ObsFixture enforces this).
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "sweep/cache.hh"
#include "sweep/emit.hh"
#include "sweep/scheduler.hh"

using namespace swan;

namespace
{

/** Guard: no test may leak the process-global registry. */
class ObsFixture : public ::testing::Test
{
  protected:
    void SetUp() override { ASSERT_EQ(obs::Telemetry::instance(), nullptr); }
    void TearDown() override { obs::Telemetry::release(); }
};

obs::SpanRec
rec(obs::Phase phase, uint64_t t0, uint64_t t1, uint64_t arg = 0)
{
    obs::SpanRec r;
    r.phase = phase;
    r.t0Ns = t0;
    r.t1Ns = t1;
    r.cpuNs = (t1 - t0) / 2;
    r.arg = arg;
    r.tid = 7;
    return r;
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(ObsPhase, NamesAreStableAndDistinct)
{
    std::vector<std::string> seen;
    for (size_t i = 0; i < obs::kPhaseCount; ++i) {
        const auto n = obs::name(obs::Phase(i));
        EXPECT_FALSE(n.empty());
        EXPECT_EQ(std::count(seen.begin(), seen.end(), std::string(n)), 0)
            << n;
        seen.emplace_back(n);
    }
    EXPECT_EQ(obs::name(obs::Phase::Replay), "replay");
    EXPECT_EQ(obs::name(obs::Phase::GridExpand), "grid_expand");
}

TEST_F(ObsFixture, SpanIsInertWithoutACollector)
{
    ASSERT_EQ(obs::Telemetry::active(), nullptr);
    {
        obs::Span s(obs::Phase::Capture, 123);
        s.addArg(1);
    } // must not crash, must record nowhere
    EXPECT_EQ(obs::Telemetry::active(), nullptr);
    EXPECT_EQ(obs::Telemetry::instance(), nullptr);
}

TEST_F(ObsFixture, LifecycleStartStopRelease)
{
    ASSERT_TRUE(obs::Telemetry::start(16));
    EXPECT_FALSE(obs::Telemetry::start(16)) << "second start must refuse";
    auto *t = obs::Telemetry::active();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t, obs::Telemetry::instance());

    { obs::Span s(obs::Phase::Pack, 42); }
    EXPECT_EQ(t->count(), 1u);

    obs::Telemetry::stop();
    EXPECT_EQ(obs::Telemetry::active(), nullptr);
    { obs::Span s(obs::Phase::Pack); } // post-stop spans are inert
    EXPECT_EQ(t->count(), 1u);
    EXPECT_EQ(obs::Telemetry::instance(), t) << "readable until release";

    const auto snap = t->snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].phase, obs::Phase::Pack);
    EXPECT_EQ(snap[0].arg, 42u);
    EXPECT_GE(snap[0].t1Ns, snap[0].t0Ns);

    obs::Telemetry::release();
    EXPECT_EQ(obs::Telemetry::instance(), nullptr);
    ASSERT_TRUE(obs::Telemetry::start(16)) << "fresh start after release";
}

TEST_F(ObsFixture, NestedSpansRecordInnerFirstWithinOuterWindow)
{
    ASSERT_TRUE(obs::Telemetry::start(16));
    {
        obs::Span outer(obs::Phase::Sweep);
        {
            obs::Span inner(obs::Phase::Replay, 5);
        }
    }
    auto *t = obs::Telemetry::instance();
    const auto snap = t->snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // Guards close at scope exit: the inner span lands first, and its
    // window nests inside the outer one.
    EXPECT_EQ(snap[0].phase, obs::Phase::Replay);
    EXPECT_EQ(snap[1].phase, obs::Phase::Sweep);
    EXPECT_GE(snap[0].t0Ns, snap[1].t0Ns);
    EXPECT_LE(snap[0].t1Ns, snap[1].t1Ns);
}

TEST_F(ObsFixture, OverflowDropsAndCounts)
{
    ASSERT_TRUE(obs::Telemetry::start(4));
    for (int i = 0; i < 10; ++i)
        obs::Span s(obs::Phase::Publish);
    auto *t = obs::Telemetry::instance();
    EXPECT_EQ(t->count(), 4u);
    EXPECT_EQ(t->dropped(), 6u);
    EXPECT_EQ(t->snapshot().size(), 4u);
}

TEST(ObsReport, AggregatesPerPhase)
{
    std::vector<obs::SpanRec> records = {
        rec(obs::Phase::Sweep, 0, 1000),
        rec(obs::Phase::Replay, 100, 400, 10),
        rec(obs::Phase::Replay, 200, 300, 30),
        rec(obs::Phase::Replay, 150, 650, 60),
    };
    obs::RunMeta meta;
    meta.points = 4;
    meta.units = 2;
    sweep::CacheStats cache;
    cache.misses = 4;
    const auto report = obs::buildReport(records, meta, 9, cache);

    const auto &replay = report.phases[size_t(obs::Phase::Replay)];
    EXPECT_EQ(replay.count, 3u);
    EXPECT_EQ(replay.wallNs, 300u + 100u + 500u);
    EXPECT_EQ(replay.minNs, 100u);
    EXPECT_EQ(replay.maxNs, 500u);
    EXPECT_EQ(replay.argTotal, 100u);
    EXPECT_EQ(report.phases[size_t(obs::Phase::Capture)].count, 0u);
    EXPECT_EQ(report.droppedSpans, 9u);
    EXPECT_EQ(report.wallNs, 1000u) << "the Sweep envelope";
    EXPECT_EQ(report.cache.misses, 4u);
    // replay throughput = argTotal / wall seconds, in M/s.
    EXPECT_NEAR(report.replayMinstrPerS(), 100.0 * 1e3 / 900.0, 1e-9);
}

TEST(ObsReport, JsonAndChromeTraceSerialize)
{
    std::vector<obs::SpanRec> records = {
        rec(obs::Phase::Sweep, 1000, 3000),
        rec(obs::Phase::Replay, 1100, 1400, 10),
        rec(obs::Phase::Replay, 1200, 1300, 30),
    };
    obs::RunMeta meta;
    const auto report =
        obs::buildReport(records, meta, 0, sweep::CacheStats{});

    std::ostringstream js;
    obs::writeReportJson(js, report);
    const std::string j = js.str();
    EXPECT_NE(j.find("\"swan_obs_version\""), std::string::npos);
    EXPECT_NE(j.find("\"phase\": \"replay\""), std::string::npos);
    EXPECT_NE(j.find("\"misses\": 0"), std::string::npos)
        << "stable spacing: CI greps this";
    EXPECT_EQ(j.find("\"phase\": \"capture\""), std::string::npos)
        << "phases with no spans are skipped";

    std::ostringstream ct;
    obs::writeChromeTrace(ct, records);
    const std::string c = ct.str();
    // One complete event per record, on the recording thread's track.
    size_t events = 0;
    for (size_t at = c.find("\"ph\": \"X\""); at != std::string::npos;
         at = c.find("\"ph\": \"X\"", at + 1))
        ++events;
    EXPECT_EQ(events, records.size());
    EXPECT_NE(c.find("\"name\": \"replay\""), std::string::npos);
    EXPECT_NE(c.find("\"tid\": 7"), std::string::npos);
    // Timestamps are normalized to the earliest t0 (microseconds).
    EXPECT_NE(c.find("\"ts\": 0.000"), std::string::npos);
    EXPECT_NE(c.find("\"dur\": 0.300"), std::string::npos);
}

TEST(ObsReport, CacheObjectCarriesTierCounters)
{
    // The run-report "cache" object is the machine-readable face of
    // the cache counters: CI greps these exact `"key": value`
    // spellings, so the shape is pinned here.
    sweep::CacheStats cache;
    cache.evictions = 7;
    cache.corruptEntriesQuarantined = 8;
    const auto report = obs::buildReport(std::vector<obs::SpanRec>{},
                                         obs::RunMeta{}, 0, cache);
    std::ostringstream js;
    obs::writeReportJson(js, report);
    const std::string j = js.str();
    EXPECT_NE(j.find("\"evictions\": 7"), std::string::npos) << j;
    EXPECT_NE(j.find("\"corrupt_quarantined\": 8"), std::string::npos)
        << j;
    // The cache has no far tier: no far_ key remains.
    EXPECT_EQ(j.find("\"far_"), std::string::npos) << j;
}

TEST_F(ObsFixture, CollectorFeedsSinksAndReleases)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("swan_obs_sink_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);

    obs::Collector collector;
    ASSERT_TRUE(collector.start(64));
    EXPECT_TRUE(collector.active());
    { obs::Span s(obs::Phase::Replay, 1000); }
    collector.addSink(std::make_unique<obs::ReportSink>(
        (dir / "r.report.json").string()));
    collector.addSink(std::make_unique<obs::ChromeTraceSink>(
        (dir / "r.trace.jsonl").string()));
    std::string err;
    EXPECT_TRUE(collector.finish(sweep::CacheStats{}, &err)) << err;
    EXPECT_EQ(obs::Telemetry::instance(), nullptr) << "finish releases";

    const std::string report = slurp(dir / "r.report.json");
    EXPECT_NE(report.find("\"phase\": \"replay\""), std::string::npos);
    const std::string trace = slurp(dir / "r.trace.jsonl");
    EXPECT_NE(trace.find("\"name\": \"replay\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST_F(ObsFixture, CollectorReportsSinkFailure)
{
    obs::Collector collector;
    ASSERT_TRUE(collector.start(64));
    collector.addSink(std::make_unique<obs::ReportSink>(
        "/nonexistent-dir-for-swan-obs/x.json"));
    std::string err;
    EXPECT_FALSE(collector.finish(sweep::CacheStats{}, &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------
// End-to-end properties on pinned traces: prime the trace tier with a
// different warm-up count so every compared run actually schedules and
// simulates.
// ---------------------------------------------------------------------

namespace
{

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

class ObsSweepFixture : public ObsFixture
{
  protected:
    void
    SetUp() override
    {
        ObsFixture::SetUp();
        std::string err;
        points_ = sweep::expand(smallGrid(), &err);
        ASSERT_FALSE(points_.empty()) << err;
        dir_ = std::filesystem::temp_directory_path() /
               ("swan_obs_sweep_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        sweep::ResultCache prime(dir_.string());
        sweep::SchedulerConfig sc;
        sc.cache = &prime;
        sc.warmupPasses = 2;
        sweep::runSweep(points_, sc);
        dropResults();
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
        ObsFixture::TearDown();
    }

    void
    dropResults()
    {
        for (const auto &e : std::filesystem::directory_iterator(dir_))
            if (e.path().extension() == ".swr")
                std::filesystem::remove(e.path());
    }

    struct RunOutcome
    {
        std::string emitted;
        std::vector<obs::SpanRec> spans; //!< empty unless collected
        obs::RunMeta meta;
        sweep::CacheStats stats;
    };

    RunOutcome
    runWith(int jobs, bool collect, sweep::RowCallback on_row = nullptr)
    {
        dropResults();
        RunOutcome out;
        if (collect) {
            EXPECT_TRUE(obs::Telemetry::start());
        }
        {
            sweep::ResultCache cache(dir_.string());
            sweep::SchedulerConfig sc;
            sc.jobs = jobs;
            sc.cache = &cache;
            sc.onRow = std::move(on_row);
            out.emitted = render(sweep::runSweep(points_, sc));
            out.stats = cache.stats();
        }
        if (collect) {
            auto *t = obs::Telemetry::instance();
            obs::Telemetry::stop();
            out.spans = t->snapshot();
            out.meta = t->meta();
            obs::Telemetry::release();
        }
        return out;
    }

    obs::PhaseStats
    phaseTotal(const std::vector<obs::SpanRec> &spans, obs::Phase phase)
    {
        obs::PhaseStats total;
        for (const auto &r : spans)
            if (r.phase == phase)
                total.add(r);
        return total;
    }

    std::vector<sweep::SweepPoint> points_;
    std::filesystem::path dir_;
};

} // namespace

TEST_F(ObsSweepFixture, CollectionNeverChangesEmitterOutput)
{
    const std::string reference = runWith(1, false).emitted;
    ASSERT_FALSE(reference.empty());

    for (int jobs : {1, 2, 4})
        EXPECT_EQ(reference, runWith(jobs, true).emitted)
            << "jobs=" << jobs;
}

TEST_F(ObsSweepFixture, ThreadedRunRecordsTheWholePipeline)
{
    const auto run = runWith(2, true);
    ASSERT_FALSE(run.spans.empty());
    EXPECT_EQ(phaseTotal(run.spans, obs::Phase::Sweep).count, 1u);
    // 6 pinned trace groups: 6 disk probes (hits), 6 fused replays, 6
    // publishes — and zero captures or packs.
    EXPECT_EQ(phaseTotal(run.spans, obs::Phase::Replay).count, 6u);
    EXPECT_EQ(phaseTotal(run.spans, obs::Phase::Publish).count, 6u);
    EXPECT_GT(phaseTotal(run.spans, obs::Phase::Replay).argTotal, 0u);
    EXPECT_EQ(phaseTotal(run.spans, obs::Phase::Capture).count, 0u);
    EXPECT_EQ(phaseTotal(run.spans, obs::Phase::Pack).count, 0u);
    EXPECT_EQ(run.meta.points, points_.size());
    EXPECT_EQ(run.meta.units, 6u);
    EXPECT_EQ(run.meta.jobs, 2);
}

TEST_F(ObsSweepFixture, ColdRunRecordsCaptureAndPack)
{
    // A second cache dir with no pinned traces: the capture window
    // itself must be spanned (malloc-free guards make that legal).
    const auto cold = std::filesystem::temp_directory_path() /
                      ("swan_obs_cold_" + std::to_string(::getpid()));
    std::filesystem::remove_all(cold);
    ASSERT_TRUE(obs::Telemetry::start());
    {
        sweep::ResultCache cache(cold.string());
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points_, sc);
    }
    auto *t = obs::Telemetry::instance();
    obs::Telemetry::stop();
    const auto spans = t->snapshot();
    obs::Telemetry::release();
    std::filesystem::remove_all(cold);

    EXPECT_EQ(phaseTotal(spans, obs::Phase::Capture).count, 6u);
    EXPECT_EQ(phaseTotal(spans, obs::Phase::Pack).count, 6u);
    EXPECT_GT(phaseTotal(spans, obs::Phase::Capture).argTotal, 0u)
        << "arg = instructions captured";
}

TEST_F(ObsSweepFixture, OnRowStreamsEveryRowInPointOrder)
{
    struct Seen
    {
        size_t index;
        sweep::RowOrigin::Kind kind;
    };
    const auto collect = [&](std::vector<Seen> *seen) {
        return [seen](const sweep::SweepResult &r,
                      const sweep::RowOrigin &o) {
            seen->push_back({r.point.index, o.kind});
            EXPECT_EQ(o.done, seen->size());
            EXPECT_EQ(o.total, 0u + 12u);
        };
    };

    // Cold-cache path: every row computed in-process.
    std::vector<Seen> computed;
    runWith(4, false, collect(&computed));
    ASSERT_EQ(computed.size(), points_.size());
    for (size_t i = 0; i < computed.size(); ++i) {
        EXPECT_EQ(computed[i].index, i);
        EXPECT_EQ(computed[i].kind, sweep::RowOrigin::Kind::Computed);
    }

    // Fully-warm path: the previous run stored every result, so now
    // every row streams as a cache hit (runWith drops results first,
    // so re-prime by running once more without dropping).
    {
        sweep::ResultCache cache(dir_.string());
        sweep::SchedulerConfig sc;
        sc.cache = &cache;
        sweep::runSweep(points_, sc);
        std::vector<Seen> warm;
        sc.onRow = collect(&warm);
        sweep::runSweep(points_, sc);
        ASSERT_EQ(warm.size(), points_.size());
        for (size_t i = 0; i < warm.size(); ++i) {
            EXPECT_EQ(warm[i].index, i);
            EXPECT_EQ(warm[i].kind, sweep::RowOrigin::Kind::Cache);
        }
    }

    const sweep::RowOrigin cacheOrigin{sweep::RowOrigin::Kind::Cache};
    EXPECT_EQ(sweep::describe(cacheOrigin), "cache");
    const sweep::RowOrigin computedOrigin{sweep::RowOrigin::Kind::Computed};
    EXPECT_EQ(sweep::describe(computedOrigin), "computed");
}
