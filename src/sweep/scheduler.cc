#include "sweep/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SWAN_HAVE_GETPID 1
#endif

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
    std::vector<size_t> points;           //!< point indices, ascending
    std::vector<sim::CoreConfig> configs; //!< parallel to points
};

/** Capture identity: which points may share one trace. */
using GroupKey = std::tuple<std::string, int, int, uint64_t>;

GroupKey
groupKeyFor(const SweepPoint &p)
{
    return {p.spec->info.qualifiedName(), int(p.impl), p.vecBits,
            fingerprint(p.options)};
}

/** Process-unique token for the private shard-transport directory. */
uint64_t
processToken()
{
#ifdef SWAN_HAVE_GETPID
    return uint64_t(::getpid());
#else
    static const int anchor = 0;
    return uint64_t(reinterpret_cast<uintptr_t>(&anchor));
#endif
}

} // namespace

std::string
describe(const RowOrigin &origin)
{
    switch (origin.kind) {
      case RowOrigin::Kind::Cache:
        return "cache";
      case RowOrigin::Kind::Computed:
        return "computed";
      case RowOrigin::Kind::Shard:
        return origin.shard < 0 ? "shard ?"
                                : "shard " + std::to_string(origin.shard);
    }
    return "unknown";
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
    // Encoding: 0 pending, 1 cache hit, 2 computed in-process, 3+k
    // merged from shard k-1 (3 = unknown shard).
    std::mutex rowMu;
    std::vector<uint16_t> rowState;
    size_t rowNext = 0;
    // Emit every ready row at the frontier; call with rowMu held.
    const auto rowFlush = [&]() {
        while (rowNext < rowState.size() && rowState[rowNext]) {
            const uint16_t s = rowState[rowNext];
            RowOrigin o;
            o.total = rowState.size();
            o.done = rowNext + 1;
            if (s == 1) {
                o.kind = RowOrigin::Kind::Cache;
            } else if (s == 2) {
                o.kind = RowOrigin::Kind::Computed;
            } else {
                o.kind = RowOrigin::Kind::Shard;
                o.shard = int(s) - 4;
            }
            cfg.onRow(results[rowNext], o);
            ++rowNext;
        }
    };
    const auto rowComplete = [&](size_t idx, uint16_t st) {
        // Shard children skip: their rows surface in the parent merge.
        if (rowState.empty() || obs::Telemetry::shard() >= 0)
            return;
        std::lock_guard<std::mutex> lock(rowMu);
        rowState[idx] = st;
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
        std::map<GroupKey, size_t> unitOf;
        for (size_t idx : pending) {
            const SweepPoint &p = points[idx];
            auto [it, inserted] =
                unitOf.emplace(groupKeyFor(p), units.size());
            if (inserted)
                units.emplace_back();
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

    // Where executed results are stored. Normally the configured
    // cache; a sharded run re-points this at a cache that owns a disk
    // tier (the session's, or a private per-run directory) so shard
    // children can publish results the parent merges — resolved with
    // the backend below.
    ResultCache *storeCache = cfg.cache;

    // A unit's packed trace: the trace tier when warm, else a fresh
    // workload instance captured on this thread, encoded on emit and
    // stored for the next run. Addresses are canonical (trace/canon.hh),
    // so the trace is the same whichever worker, shard or process
    // captures it, and whatever ran before.
    const auto acquireTrace = [&](const SweepPoint &p,
                                  trace::MixStats *mix) {
        const TraceKey key = traceKeyFor(p);
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
        if (cfg.cache) {
            cfg.cache->storeTrace(key, t, *mix);
            cfg.cache->publishTraceFar(key, &t, *mix);
        }
        return t;
    };

    // One work unit, start to finish, on whichever worker (or shard
    // child) runs it: trace, fused replay through every configuration,
    // publish, rows. The trace dies with the unit. Results land by
    // point index power-complete (the power model is fused into the
    // replay's finish path — see sim::CoreModel::finish).
    const auto executeUnit = [&](size_t ui) {
        try {
            const Unit &u = units[ui];
            trace::MixStats mix;
            const trace::PackedTrace t =
                acquireTrace(points[u.points.front()], &mix);
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
                const sim::FaultSpec &fault = points[u.points[j]].fault();
                const uint64_t fp = fault.fingerprint();
                std::vector<size_t> part;
                std::vector<sim::CoreConfig> partCfgs;
                for (size_t k = j; k < u.points.size(); ++k) {
                    if (simDone[k] ||
                        points[u.points[k]].fault().fingerprint() != fp)
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
                    const CacheKey key = keyFor(points[idx], cfg.warmupPasses);
                    if (storeCache)
                        storeCache->store(key, r.run);
                    // A private shard-transport cache substitutes for
                    // a memory-only session cache; keep the session
                    // tier warm too (dead weight in a shard child,
                    // which takes its copy of the session map to
                    // _exit, but exactly what a threaded run would
                    // have stored in the parent and in parent-side
                    // recovery).
                    if (cfg.cache && cfg.cache != storeCache)
                        cfg.cache->store(key, r.run);
                }
            }
            for (size_t idx : u.points)
                rowComplete(idx, 2);
        } catch (const std::exception &e) {
            recordError(e.what());
        }
    };

    // Resolve the backend: shards > 1 upgrades the default threaded
    // backend to the sharded one; explicit Inline/Sharded always win.
    Backend kind = cfg.backend;
    if (kind == Backend::Threaded && cfg.shards > 1)
        kind = Backend::Sharded;

    // A sharded run needs a disk tier the shard children and the
    // parent share. When the session cache is memory-only (or absent),
    // a private per-run directory substitutes — it exists purely as
    // the shard transport and is deleted after the merge.
    std::optional<ResultCache> privateShare;
    std::string privateShareDir;
    if (kind == Backend::Sharded &&
        (!storeCache || storeCache->diskDir().empty())) {
        static std::atomic<uint64_t> shardRunSeq{0};
        std::error_code ec;
        const auto tmp = std::filesystem::temp_directory_path(ec);
        if (!ec) {
            privateShareDir =
                (tmp / ("swan-shards-" + std::to_string(processToken()) +
                        "-" + std::to_string(shardRunSeq++)))
                    .string();
            // The transport cache inherits the session's far tier so
            // the parent-side merge can still sync T2 (shard children
            // never publish far; see ResultCache::setFarPublishEnabled).
            privateShare.emplace(privateShareDir, uint64_t(0),
                                 cfg.cache ? cfg.cache->farDir()
                                           : std::string());
        }
        if (privateShare && !privateShare->diskDir().empty()) {
            storeCache = &*privateShare;
        } else {
            // Unusable temp directory: stay in-process (results are
            // byte-identical either way; only the fan-out is lost).
            kind = Backend::Threaded;
            privateShare.reset();
        }
    }

    // Stamp the run's shape on the active telemetry instance, now
    // that the backend choice is final.
    if (obs::Telemetry *t = obs::Telemetry::active()) {
        obs::RunMeta m;
        m.points = points.size();
        m.units = units.size();
        m.jobs = jobs;
        m.shards = kind == Backend::Sharded
                       ? std::clamp(cfg.shards, 1,
                                    ShardedBackend::kMaxShards)
                       : 1;
        const std::string_view nm = name(kind);
        std::snprintf(m.backend, sizeof m.backend, "%.*s",
                      int(nm.size()), nm.data());
        t->setMeta(m);
    }

    // Content-stable unit identities for cross-process claims: a hash
    // of every point key the unit produces (kernel, impl, width,
    // config and options fingerprints, warm-up) — equal between any
    // two processes executing the same grid, distinct between grids.
    // Precomputed once (sharded runs only): the backend reads tokens
    // per unit per process, and the keys hash strings.
    std::vector<uint64_t> unitTokens;
    if (kind == Backend::Sharded) {
        unitTokens.resize(units.size());
        for (size_t ui = 0; ui < units.size(); ++ui) {
            uint64_t h = kFnv64Seed;
            for (size_t idx : units[ui].points)
                h = fnvMix64(h,
                             keyFor(points[idx], cfg.warmupPasses).hash());
            unitTokens[ui] = h;
        }
    }
    const auto unitToken = [&](size_t ui) { return unitTokens[ui]; };

    // Parent-side merge of one unit from the shared disk tier —
    // quietly: these are results this very run computed in a shard
    // child, not cache traffic (the children's own counters are
    // absorbed separately). False when any point is missing; the
    // backend then re-executes the whole unit via executeUnit — a
    // fresh capture whose canonical trace is bit-identical to the dead
    // shard's — which overwrites every point and stores what the dead
    // shard could not.
    const auto serveUnit = [&](size_t ui, int shard) -> bool {
        const Unit &u = units[ui];
        std::vector<CacheKey> keys;
        keys.reserve(u.points.size());
        // Probe every point before the commit loop below, so a
        // partially published unit never half-stores into the session
        // tier before recovery re-executes (and re-stores) all of it.
        for (size_t idx : u.points) {
            keys.push_back(keyFor(points[idx], cfg.warmupPasses));
            if (!storeCache->lookupQuiet(keys.back(), &results[idx].run))
                return false;
        }
        for (size_t j = 0; j < u.points.size(); ++j) {
            SweepResult &r = results[u.points[j]];
            r.cacheHit = false; // simulated by this run, in a child
            if (cfg.cache && cfg.cache != storeCache)
                cfg.cache->store(keys[j], r.run);
            // One far writer per entry: children publish to the shared
            // T1 only, the parent syncs T2 here, once per merged unit.
            storeCache->publishFar(keys[j]);
        }
        if (cfg.cache)
            cfg.cache->publishTraceFar(traceKeyFor(points[u.points.front()]),
                                       nullptr, trace::MixStats{});
        for (size_t idx : u.points)
            rowComplete(idx, uint16_t(4 + std::max(shard, -1)));
        return true;
    };

    {
        using Exec = decltype(executeUnit);
        using Token = decltype(unitToken);
        using Serve = decltype(serveUnit);
        struct Hooks
        {
            const Exec *exec;
            const Token *token;
            const Serve *serve;
        } hooks{&executeUnit, &unitToken, &serveUnit};

        BackendJob job;
        job.units = units.size();
        job.jobs = jobs;
        job.arg = &hooks;
        job.execute = [](void *a, size_t u) {
            (*static_cast<const Hooks *>(a)->exec)(u);
        };
        job.token = [](void *a, size_t u) {
            return (*static_cast<const Hooks *>(a)->token)(u);
        };
        job.serve = [](void *a, size_t u, int shard) {
            return (*static_cast<const Hooks *>(a)->serve)(u, shard);
        };
        job.shareCache = kind == Backend::Sharded ? storeCache : nullptr;

        switch (kind) {
          case Backend::Inline: {
            InlineBackend backend;
            backend.run(job);
            break;
          }
          case Backend::Sharded: {
            ShardedBackend backend(cfg.shards, cfg.shardTimeoutMs,
                                   cfg.shardBatch);
            backend.run(job);
            break;
          }
          case Backend::Threaded:
          default: {
            ThreadedBackend backend;
            backend.run(job);
            break;
          }
        }
    }
    if (privateShare) {
        // The sharded-run bookkeeping counters (stale-claim sweeps,
        // crash-recovered units) landed in the private transport
        // cache; carry them over so the session's stats see them
        // before the transport directory disappears.
        if (cfg.cache) {
            const CacheStats ps = privateShare->stats();
            if (ps.staleClaimsSwept || ps.recoveredUnits ||
                ps.corruptEntriesQuarantined || ps.farStores) {
                CacheStats d;
                d.staleClaimsSwept = ps.staleClaimsSwept;
                d.recoveredUnits = ps.recoveredUnits;
                d.corruptEntriesQuarantined = ps.corruptEntriesQuarantined;
                // Far publishes the parent merge made through the
                // transport cache belong to the session's story too.
                d.farStores = ps.farStores;
                cfg.cache->absorbStats(d);
            }
        }
        privateShare.reset();
        std::error_code ec;
        std::filesystem::remove_all(privateShareDir, ec);
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
