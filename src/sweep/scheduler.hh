/**
 * @file
 * Parallel sweep executor: lookups -> grouping -> units on `jobs`
 * threads. The result cache is probed serially in point-index order;
 * the pending points are grouped by capture identity (kernel, impl,
 * width, working set) into work units, and the calling thread plus
 * `jobs - 1` worker threads take unit indices in order from one shared
 * counter. Each unit runs its whole pipeline on the thread that took
 * it: trace-tier hit or a fresh workload captured and encoded on emit,
 * trace store, one fused replay through every core configuration of
 * the unit (sim::simulateTraceMany), result publish and row streaming;
 * then the trace is dropped. Capture, pack and replay of different
 * units therefore overlap on all threads, and the first row lands
 * after one unit.
 *
 * Traces record canonical addresses (trace/canon.hh), so a unit's
 * trace — and every result simulated from it — is a pure function of
 * the unit, not of which thread, process or run captured it or what
 * ran before. Results land in a pre-sized vector at their point index,
 * so every `--jobs` value produces byte-equal reports; the same
 * determinism (seeded inputs, canonical trace-driven model) is what
 * makes the result cache sound.
 */

#ifndef SWAN_SWEEP_SCHEDULER_HH
#define SWAN_SWEEP_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runner.hh"
#include "sweep/cache.hh"
#include "sweep/grid.hh"

namespace swan::sweep
{

/** One finished experiment point. */
struct SweepResult
{
    SweepPoint point;
    core::KernelRun run;
    bool cacheHit = false;  //!< served by the cache, not simulated
};

/** Where a streamed row's result came from (SchedulerConfig::onRow). */
struct RowOrigin
{
    enum class Kind
    {
        Cache,    //!< served by the result cache, not simulated
        Computed, //!< simulated by this sweep
    };

    Kind kind = Kind::Computed;
    size_t done = 0; //!< rows emitted so far, this one included
    size_t total = 0;
};

/** "cache" or "computed", for tickers and logs. */
std::string describe(const RowOrigin &origin);

/**
 * Row-streaming callback: one finished point, in point-index order.
 * See SchedulerConfig::onRow for the invocation contract.
 */
using RowCallback =
    std::function<void(const SweepResult &, const RowOrigin &)>;

/** Scheduler knobs. */
struct SchedulerConfig
{
    /** Threads that run work units, the calling thread included; <= 0
     *  means std::thread::hardware_concurrency. 1 runs every unit on
     *  the calling thread. */
    int jobs = 1;
    /** Optional result cache shared across sweeps / benches. */
    ResultCache *cache = nullptr;
    /** Cache warm-up passes fed to the core model (paper Section 4.3). */
    int warmupPasses = 1;

    /**
     * Stream every finished row, strictly in point-index order, as
     * results land (cache hits first, then each computed point as soon
     * as every lower-indexed point is done). Invoked from whichever
     * thread finished the row, serialized by the scheduler:
     * implementations need no locking of their own but must not block
     * for long. Null = no streaming (zero overhead).
     */
    RowCallback onRow;
};

/**
 * Execute every point. Closes kernel registration (see Registry) before
 * workers may touch the registry concurrently. Within one sweep, points
 * sharing a (kernel, impl, width, working set) capture form one work
 * unit and reuse one trace across core configs, so a Figure-5(b)-style
 * sweep captures each kernel once, not once per config. Throws
 * std::runtime_error if a worker fails.
 *
 * @return one SweepResult per input point, in point-index order.
 */
std::vector<SweepResult> runSweep(const std::vector<SweepPoint> &points,
                                  const SchedulerConfig &cfg = {});

/** expand() + runSweep() in one call; empty + *err on a bad spec. */
std::vector<SweepResult> runSweep(const SweepSpec &spec,
                                  const SchedulerConfig &cfg,
                                  std::string *err);

/**
 * First result matching the given axes; null if absent. Empty @p config
 * / @p working_set match any value (the common single-config case).
 */
const SweepResult *
findResult(const std::vector<SweepResult> &results,
           std::string_view kernel_qualified, core::Impl impl, int vec_bits,
           std::string_view config = {}, std::string_view working_set = {});

} // namespace swan::sweep

#endif // SWAN_SWEEP_SCHEDULER_HH
