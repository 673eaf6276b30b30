#include "swan/experiment.hh"

#include <stdexcept>
#include <utility>

#include "obs/report.hh"
#include "swan/error.hh"
#include "sweep/scheduler.hh"

namespace swan
{

Experiment::Experiment(Session &session) : session_(&session)
{
    spec_.warmupPasses = session.options().warmupPasses;
    spec_.faults = session.options().faults;
}

Experiment &
Experiment::kernels(std::vector<std::string> names)
{
    spec_.kernels.names = std::move(names);
    return *this;
}

Experiment &
Experiment::kernel(std::string name)
{
    spec_.kernels.names.push_back(std::move(name));
    return *this;
}

Experiment &
Experiment::library(std::string symbol)
{
    spec_.kernels.library = std::move(symbol);
    return *this;
}

Experiment &
Experiment::widerOnly(bool on)
{
    spec_.kernels.widerOnly = on;
    return *this;
}

Experiment &
Experiment::includeExcluded(bool on)
{
    spec_.kernels.includeExcluded = on;
    return *this;
}

Experiment &
Experiment::impls(std::vector<core::Impl> impls)
{
    spec_.impls = std::move(impls);
    return *this;
}

Experiment &
Experiment::impl(core::Impl impl)
{
    spec_.impls = {impl};
    return *this;
}

Experiment &
Experiment::vecBits(std::vector<int> bits)
{
    spec_.vecBits = std::move(bits);
    return *this;
}

Experiment &
Experiment::configs(std::vector<std::string> names)
{
    spec_.configs = std::move(names);
    return *this;
}

Experiment &
Experiment::config(std::string name)
{
    spec_.configs = {std::move(name)};
    return *this;
}

Experiment &
Experiment::workingSets(std::vector<std::string> names)
{
    spec_.workingSets = std::move(names);
    return *this;
}

Experiment &
Experiment::workingSet(std::string name)
{
    spec_.workingSets = {std::move(name)};
    return *this;
}

Experiment &
Experiment::warmupPasses(int passes)
{
    spec_.warmupPasses = passes;
    return *this;
}

Experiment &
Experiment::faults(std::vector<std::string> scenarios)
{
    spec_.faults = std::move(scenarios);
    return *this;
}

Experiment &
Experiment::fault(std::string scenario)
{
    spec_.faults.push_back(std::move(scenario));
    return *this;
}

Experiment &
Experiment::onRow(sweep::RowCallback callback)
{
    onRow_ = std::move(callback);
    return *this;
}

Results
Experiment::run(std::string *err) const
{
    sweep::SchedulerConfig sc = session_->schedulerConfig();
    sc.onRow = onRow_;

    // Telemetry scope (SessionOptions::metricsOut / SWAN_METRICS):
    // activated BEFORE the sweep so the grid-expand and capture spans
    // are covered, flushed after the last result lands. The collector
    // allocates nothing on the recording path (obs/telemetry.hh), so
    // results are byte-identical with metrics on or off; if another
    // collector already owns the registry this run simply goes
    // uncollected.
    // Activation only — the files are named and written at finish().
    const std::string &stem = session_->options().metricsOut;
    obs::Collector collector;
    if (!stem.empty())
        collector.start();

    std::vector<sweep::SweepResult> results;
    try {
        results = sweep::runSweep(spec_, sc, err);
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return Results(); // ~Collector releases without flushing
    }
    if (collector.active()) {
        // Metrics failures are advisory: the sweep's results are
        // valid either way, so surface the diagnostic without
        // emptying the return.
        std::string merr;
        if (!collector.finish(stem, session_->cache().stats(), &merr) &&
            err && err->empty())
            *err = merr;
    }
    if (results.empty())
        return Results();
    return Results(std::move(results), session_->cache().stats());
}

Results
Experiment::run() const
{
    std::string err;
    Results r = run(&err);
    if (r.empty())
        throw Error(err.empty() ? "experiment matched no points" : err);
    return r;
}

} // namespace swan
