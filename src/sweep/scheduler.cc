#include "sweep/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/registry.hh"
#include "obs/telemetry.hh"
#include "trace/packed.hh"
#include "trace/stats.hh"

namespace swan::sweep
{

namespace
{

/**
 * One work unit: every pending point that shares a capture identity
 * (kernel, impl, width, working set). The unit captures (or fetches)
 * one packed trace and streams it through all of its core
 * configurations in a single fused traversal (sim::simulateTraceMany
 * -> sim::replay: one varint decode per instruction, every config's
 * model stepped from the same decoded registers).
 */
struct Unit
{
    TraceKey key;                         //!< the shared capture identity
    std::vector<size_t> points;           //!< point indices, ascending
    std::vector<sim::CoreConfig> configs; //!< parallel to points
};

/** Units are found by TraceKey; the map is probed, never iterated. */
struct TraceKeyHash
{
    size_t operator()(const TraceKey &k) const { return k.hash(); }
};

} // namespace

std::string
describe(const RowOrigin &origin)
{
    return origin.kind == RowOrigin::Kind::Cache ? "cache" : "computed";
}

std::vector<SweepResult>
runSweep(const std::vector<SweepPoint> &points, const SchedulerConfig &cfg)
{
    // Workers read KernelSpec references concurrently; freeze the
    // registry so the backing vector can never reallocate under them.
    core::Registry::instance().closeRegistration();

    std::vector<SweepResult> results(points.size());
    if (points.empty())
        return results;

    // The whole-sweep telemetry envelope (malloc-free guard; a single
    // relaxed load when no collector is active — see obs/telemetry.hh).
    obs::Span sweepSpan(obs::Phase::Sweep, points.size());

    int jobs = cfg.jobs;
    if (jobs <= 0)
        jobs = int(std::thread::hardware_concurrency());
    if (jobs < 1)
        jobs = 1;

    // Lookups (serial, point-index order): the result cache.
    std::vector<size_t> pending;
    {
        obs::Span lookupSpan(obs::Phase::CacheLookup, points.size());
        for (size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            SweepResult &r = results[i];
            r.point = p;
            if (cfg.cache &&
                cfg.cache->lookup(keyFor(p, cfg.warmupPasses), &r.run)) {
                r.cacheHit = true;
                continue;
            }
            pending.push_back(i);
        }
    }

    // Row streaming (cfg.onRow): completion states per point, emitted
    // strictly in point-index order behind an advancing frontier.
    // Encoding: 0 pending, 1 cache hit, 2 computed.
    std::mutex rowMu;
    std::vector<uint8_t> rowState;
    size_t rowNext = 0;
    // Emit every ready row at the frontier; call with rowMu held.
    const auto rowFlush = [&]() {
        while (rowNext < rowState.size() && rowState[rowNext]) {
            RowOrigin o;
            o.kind = rowState[rowNext] == 1 ? RowOrigin::Kind::Cache
                                            : RowOrigin::Kind::Computed;
            o.total = rowState.size();
            o.done = rowNext + 1;
            cfg.onRow(results[rowNext], o);
            ++rowNext;
        }
    };
    const auto rowComplete = [&](size_t idx) {
        if (rowState.empty())
            return;
        std::lock_guard<std::mutex> lock(rowMu);
        rowState[idx] = 2;
        rowFlush();
    };
    if (cfg.onRow) {
        // Drain the leading cache hits (all of them on a warm sweep).
        rowState.assign(points.size(), 0);
        for (size_t i = 0; i < points.size(); ++i)
            if (results[i].cacheHit)
                rowState[i] = 1;
        std::lock_guard<std::mutex> lock(rowMu);
        rowFlush();
    }
    if (pending.empty())
        return results;

    // Grouping: one work unit per capture identity, in first-occurrence
    // (point-index) order.
    std::vector<Unit> units;
    {
        std::unordered_map<TraceKey, size_t, TraceKeyHash> unitOf;
        for (size_t idx : pending) {
            const SweepPoint &p = points[idx];
            TraceKey key = traceKeyFor(p);
            auto [it, inserted] = unitOf.try_emplace(key, units.size());
            if (inserted)
                units.push_back(Unit{std::move(key), {}, {}});
            Unit &u = units[it->second];
            u.points.push_back(idx);
            u.configs.push_back(p.config);
        }
    }
    jobs = int(std::min<size_t>(size_t(jobs), units.size()));

    std::mutex errMu;
    std::string firstError;
    const auto recordError = [&](const char *what) {
        std::lock_guard<std::mutex> lock(errMu);
        if (firstError.empty())
            firstError = what;
    };

    // A unit's packed trace: the trace tier when warm, else a fresh
    // workload instance captured on this thread, encoded on emit and
    // stored for the next run. Addresses are canonical (trace/canon.hh),
    // so the trace is the same whichever thread or process captures
    // it, and whatever ran before.
    const auto acquireTrace = [&](const SweepPoint &p, const TraceKey &key,
                                  trace::MixStats *mix) {
        trace::PackedTrace t;
        {
            // Packed-trace tier probe (and, on a hit, the disk read);
            // arg = bytes served.
            obs::Span probe(obs::Phase::CacheLookup);
            if (cfg.cache && cfg.cache->lookupTrace(key, &t, mix)) {
                probe.addArg(t.byteSize());
                return t;
            }
        }
        trace::PackedTrace::Builder builder(mix);
        {
            auto w = p.spec->make(p.options);
            obs::Span capture(obs::Phase::Capture);
            core::Runner::captureInto(*w, p.impl, p.vecBits, &builder);
            capture.addArg(builder.size());
        }
        {
            obs::Span pack(obs::Phase::Pack);
            t = builder.finish();
            pack.addArg(t.byteSize());
        }
        if (cfg.cache)
            cfg.cache->storeTrace(key, t, *mix);
        return t;
    };

    // One work unit, start to finish, on whichever thread takes it:
    // trace, fused replay through every configuration, publish, rows.
    // The trace dies with the unit. Results land by
    // point index power-complete (the power model is fused into the
    // replay's finish path — see sim::CoreModel::finish).
    const auto executeUnit = [&](size_t ui) {
        try {
            const Unit &u = units[ui];
            trace::MixStats mix;
            const trace::PackedTrace t =
                acquireTrace(points[u.points.front()], u.key, &mix);
            // Partition the unit's points by fault scenario: a fused
            // traversal perturbs every model it steps, so points with
            // different faults (or none) replay in separate traversals
            // over the SAME trace — capture identity is fault-blind
            // (faults perturb replay, never capture). Partition order is
            // first-occurrence point order, so results stay a pure
            // function of the grid.
            std::vector<sim::SimResult> sims(u.points.size());
            std::vector<char> simDone(u.points.size(), 0);
            for (size_t j = 0; j < u.points.size(); ++j) {
                if (simDone[j])
                    continue;
                const sim::FaultSpec &fault = points[u.points[j]].fault;
                const uint64_t fp = fault.fingerprint();
                std::vector<size_t> part;
                std::vector<sim::CoreConfig> partCfgs;
                for (size_t k = j; k < u.points.size(); ++k) {
                    if (simDone[k] ||
                        points[u.points[k]].fault.fingerprint() != fp)
                        continue;
                    simDone[k] = 1;
                    part.push_back(k);
                    partCfgs.push_back(u.configs[k]);
                }
                auto partSims = sim::simulateTraceMany(t, partCfgs, fault,
                                                       cfg.warmupPasses);
                for (size_t k = 0; k < part.size(); ++k)
                    sims[part[k]] = std::move(partSims[k]);
            }
            {
                obs::Span publish(obs::Phase::Publish, u.points.size());
                for (size_t j = 0; j < u.points.size(); ++j) {
                    const size_t idx = u.points[j];
                    SweepResult &r = results[idx];
                    r.run = core::KernelRun{};
                    r.run.mix = mix;
                    r.run.sim = std::move(sims[j]);
                    if (cfg.cache)
                        cfg.cache->store(
                            keyFor(points[idx], cfg.warmupPasses), r.run);
                }
            }
            for (size_t idx : u.points)
                rowComplete(idx);
        } catch (const std::exception &e) {
            recordError(e.what());
        }
    };

    // Stamp the run's shape on the active telemetry instance.
    if (obs::Telemetry *t = obs::Telemetry::active()) {
        obs::RunMeta m;
        m.points = points.size();
        m.units = units.size();
        m.jobs = jobs;
        t->setMeta(m);
    }

    // The calling thread and jobs - 1 workers take unit indices in
    // order from one counter until it passes the last unit. Results
    // land by point index, so which thread runs a unit never shows.
    std::atomic<size_t> nextUnit{0};
    const auto work = [&] {
        for (size_t ui = nextUnit++; ui < units.size(); ui = nextUnit++)
            executeUnit(ui);
    };
    {
        // jthread joins on destruction, also when a later spawn throws.
        std::vector<std::jthread> workers;
        workers.reserve(size_t(jobs - 1));
        for (int w = 1; w < jobs; ++w)
            workers.emplace_back(work);
        work();
    }
    if (!firstError.empty())
        throw std::runtime_error("sweep worker failed: " + firstError);
    return results;
}

std::vector<SweepResult>
runSweep(const SweepSpec &spec, const SchedulerConfig &cfg, std::string *err)
{
    std::vector<SweepPoint> points;
    {
        obs::Span span(obs::Phase::GridExpand);
        points = expand(spec, err);
        span.addArg(points.size());
    }
    if (points.empty())
        return {};
    SchedulerConfig c = cfg;
    c.warmupPasses = spec.warmupPasses;
    return runSweep(points, c);
}

const SweepResult *
findResult(const std::vector<SweepResult> &results,
           std::string_view kernel_qualified, core::Impl impl, int vec_bits,
           std::string_view config, std::string_view working_set)
{
    for (const auto &r : results) {
        if (r.point.spec->info.qualifiedName() != kernel_qualified)
            continue;
        if (r.point.impl != impl || r.point.vecBits != vec_bits)
            continue;
        if (!config.empty() && r.point.configName != config)
            continue;
        if (!working_set.empty() && r.point.workingSetName != working_set)
            continue;
        return &r;
    }
    return nullptr;
}

} // namespace swan::sweep
