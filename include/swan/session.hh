/**
 * @file
 * swan::Session — the runtime-policy root of the public API. A Session
 * owns everything about *how* experiments execute (worker threads,
 * result-cache location and size cap, cache warm-up passes) as
 * explicit options, replacing the scattered SWAN_* getenv calls that
 * benches and the CLI used to hand-wire. The
 * environment variables still work, but only as *defaults*:
 * Session::fromEnv() reads them once into a SessionOptions value, and
 * anything set explicitly on that value wins (explicit > environment >
 * built-in default — see envDefaults()).
 *
 * A Session also owns the sweep ResultCache, so every Experiment run
 * through one Session shares in-memory results, and Sessions pointed
 * at the same cacheDir share results across processes.
 *
 * Layering (see docs/api.md):
 *
 *   Session (policy)  ->  Experiment (what to run)  ->  Results (view)
 *        |                      |
 *        +-- sweep::ResultCache +-- sweep::{expand, runSweep}
 */

#ifndef SWAN_SESSION_HH
#define SWAN_SESSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.hh"
#include "core/runner.hh"
#include "sweep/cache.hh"
#include "sweep/scheduler.hh"

namespace swan
{

/**
 * Explicit runtime policy. Field defaults are the library defaults;
 * Session::envDefaults() overlays the SWAN_* environment on top of
 * them, and the withX() setters make one-line explicit overrides
 * chainable: Session(Session::envDefaults().withJobs(8)).
 */
struct SessionOptions
{
    /** Sweep threads, the calling thread included; 1 runs every work
     *  unit on the calling thread, <= 0 means all hardware threads.
     *  Results are byte-identical for any value. [env: SWAN_JOBS] */
    int jobs = 1;

    /** Cache warm-up passes fed to the core model before the measured
     *  replay (paper Section 4.3). */
    int warmupPasses = 1;

    /** Directory of the on-disk result + packed-trace cache,
     *  shared across processes; empty = in-memory cache only.
     *  [env: SWAN_SWEEP_CACHE_DIR] */
    std::string cacheDir;

    /** Size cap for the on-disk cache directory: after every store the
     *  least recently used entries (by the cache's logical clock, never
     *  file mtimes) are pruned until the directory fits. 0 = unbounded.
     *  [env: SWAN_SWEEP_CACHE_MAX_BYTES] */
    uint64_t cacheMaxBytes = 0;

    /**
     * Default fault-scenario axis for Experiments run through this
     * session (each `scenario[:key=value]...` string is one sweep-axis
     * value — see swan/faults.hh and `swan sweep --faults=help`).
     * Empty = clean simulation only. An Experiment's own faults() axis
     * overrides this entirely.
     */
    std::vector<std::string> faults;

    /** Workload input sizes for single-point runs (Session::run /
     *  Session::compare) and anywhere else a driver needs a concrete
     *  problem size. [env: SWAN_FULL / SWAN_FAST via
     *  core::Options::fromEnv] */
    core::Options workload = core::Options::defaults();

    /**
     * Telemetry output stem: when non-empty, every Experiment::run()
     * through the session collects swan::obs spans and writes
     * `<stem>.report.json` (per-phase wall/CPU aggregate, replay
     * throughput, cache traffic) and
     * `<stem>.trace.jsonl` (Chrome trace events — load in Perfetto or
     * chrome://tracing; see docs/observability.md). Collection is
     * malloc-free on the recording path, so emitter output stays
     * byte-identical with metrics on or off. Empty = no collection
     * (spans compile to a single relaxed load). [env: SWAN_METRICS]
     */
    std::string metricsOut;

    SessionOptions &
    withJobs(int n)
    {
        jobs = n;
        return *this;
    }
    SessionOptions &
    withWarmupPasses(int n)
    {
        warmupPasses = n;
        return *this;
    }
    SessionOptions &
    withCacheDir(std::string dir)
    {
        cacheDir = std::move(dir);
        return *this;
    }
    SessionOptions &
    withCacheMaxBytes(uint64_t n)
    {
        cacheMaxBytes = n;
        return *this;
    }
    SessionOptions &
    withFaults(std::vector<std::string> scenarios)
    {
        faults = std::move(scenarios);
        return *this;
    }
    SessionOptions &
    withWorkload(core::Options opts)
    {
        workload = opts;
        return *this;
    }
    SessionOptions &
    withMetricsOut(std::string stem)
    {
        metricsOut = std::move(stem);
        return *this;
    }
};

/**
 * One configured library instance: policy options plus the result
 * cache they imply. Create one per process (or per isolated cache
 * scope) and run any number of Experiments through it. Immobile — the
 * cache is stateful, holds a mutex, and is shared by reference; the
 * factory functions return prvalues, which C++17 constructs in place.
 */
class Session
{
  public:
    /** Library defaults; ignores the environment entirely. */
    Session() : Session(SessionOptions{}) {}

    /** Explicit options (the usual embedding entry point). */
    explicit Session(SessionOptions opts);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * The SWAN_* environment overlaid on the library defaults:
     * SWAN_JOBS, SWAN_SWEEP_CACHE_DIR, SWAN_SWEEP_CACHE_MAX_BYTES,
     * SWAN_METRICS. Counts are plain decimal digits (no sign, blank or
     * suffix). Unset, unparsable, out-of-range or (for SWAN_JOBS) zero
     * values leave the built-in default untouched: all-cores fan-out
     * is an explicit option (jobs <= 0), never an ambient environment
     * one.
     */
    static SessionOptions envDefaults();

    /** Session(envDefaults()) — the CLI/bench entry point. */
    static Session fromEnv() { return Session(envDefaults()); }

    const SessionOptions &options() const { return opts_; }

    /** The session-lifetime result cache (see sweep/cache.hh). */
    sweep::ResultCache &cache() const { return cache_; }

    /**
     * Single-point legacy path: capture + simulate + apply the power
     * model for one (kernel, implementation, core, width) using this
     * session's workload options and warm-up passes — the
     * Session-aware form of what drivers used to hand-wire with
     * core::Runner(Options::fromEnv()). Makes a fresh workload from
     * the spec; use the Workload overload to share one instance
     * across calls.
     */
    core::KernelRun run(const core::KernelSpec &spec, core::Impl impl,
                        const sim::CoreConfig &cfg,
                        int vec_bits = 128) const;

    /** run() on an existing workload instance. */
    core::KernelRun run(core::Workload &w, core::Impl impl,
                        const sim::CoreConfig &cfg,
                        int vec_bits = 128) const;

    /** Scalar vs Auto vs Neon on one core, outputs verified (the CLI
     *  'compare' subcommand's path). */
    core::Comparison compare(const core::KernelSpec &spec,
                             const sim::CoreConfig &cfg) const;

    /**
     * The scheduler configuration this session's options imply, for
     * code that drives sweep::runSweep directly. Experiment::run()
     * uses exactly this, so façade and direct-engine runs are
     * byte-identical by construction.
     */
    sweep::SchedulerConfig schedulerConfig() const;

  private:
    SessionOptions opts_;
    // Inline, and mutable so a const Session can serve cache lookups.
    mutable sweep::ResultCache cache_;
};

} // namespace swan

#endif // SWAN_SESSION_HH
