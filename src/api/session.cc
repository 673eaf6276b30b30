#include "swan/session.hh"

#include <climits>
#include <cstdlib>

namespace swan
{

namespace
{

/**
 * Parse a positive int env var as plain decimal digits
 * (sweep::parseByteCount's rules); @p fallback when unset, unparsable,
 * zero or above INT_MAX. SWAN_JOBS deliberately cannot express "all
 * cores": an environment default silently fanning a sweep out to every
 * hardware thread is a footgun, so all-cores stays an explicit choice
 * (SessionOptions::jobs <= 0, or `--jobs 0` on the CLI).
 */
int
envInt(const char *name, int fallback)
{
    uint64_t n = 0;
    if (!sweep::parseByteCount(std::getenv(name), &n) || n == 0 ||
        n > uint64_t(INT_MAX))
        return fallback;
    return int(n);
}

} // namespace

Session::Session(SessionOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheDir, opts_.cacheMaxBytes)
{
}

SessionOptions
Session::envDefaults()
{
    // One parser per variable: the cache statics already own theirs,
    // so a format change cannot drift between the façade and the
    // engine.
    SessionOptions o;
    o.jobs = envInt("SWAN_JOBS", o.jobs);
    o.cacheDir = sweep::ResultCache::envDiskDir();
    o.cacheMaxBytes = sweep::ResultCache::envMaxDiskBytes();
    o.workload = core::Options::fromEnv();
    if (const char *v = std::getenv("SWAN_METRICS"); v && *v)
        o.metricsOut = v;
    return o;
}

core::KernelRun
Session::run(core::Workload &w, core::Impl impl,
             const sim::CoreConfig &cfg, int vec_bits) const
{
    const core::Runner runner(opts_.workload);
    return runner.run(w, impl, cfg, vec_bits, opts_.warmupPasses);
}

core::KernelRun
Session::run(const core::KernelSpec &spec, core::Impl impl,
             const sim::CoreConfig &cfg, int vec_bits) const
{
    auto w = spec.make(opts_.workload);
    return run(*w, impl, cfg, vec_bits);
}

core::Comparison
Session::compare(const core::KernelSpec &spec,
                 const sim::CoreConfig &cfg) const
{
    // One workload instance for all three implementations, like
    // core::Runner::compare, but honoring the session's warm-up
    // passes and workload policy.
    core::Comparison c;
    c.info = spec.info;
    auto w = spec.make(opts_.workload);
    c.scalar = run(*w, core::Impl::Scalar, cfg);
    c.autovec = run(*w, core::Impl::Auto, cfg);
    c.neon = run(*w, core::Impl::Neon, cfg);
    c.verified = w->verify();
    return c;
}

sweep::SchedulerConfig
Session::schedulerConfig() const
{
    sweep::SchedulerConfig sc;
    sc.jobs = opts_.jobs;
    sc.cache = &cache_;
    sc.warmupPasses = opts_.warmupPasses;
    return sc;
}

} // namespace swan
