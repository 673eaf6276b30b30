/**
 * @file
 * Shared helpers for the per-table/per-figure bench binaries, written
 * against the public swan API only (include/swan/): a bench is a
 * Session (policy from the SWAN_* environment), one or more fluent
 * Experiments, and report formatting over the Results.
 */

#ifndef SWAN_BENCH_BENCH_COMMON_HH
#define SWAN_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "swan/swan.hh"

namespace swan::bench
{

/**
 * Run one experiment grid for a bench binary: results come through the
 * shared engine and the session's result cache (SWAN_SWEEP_CACHE_DIR
 * enables the on-disk tier, so identical points are shared across
 * bench binaries and reruns). Prints the cache summary to stderr,
 * keeping stdout byte-comparable between cold and warm runs. Exits on
 * a bad grid.
 */
inline Results
runExperiment(const Experiment &experiment, const char *who)
{
    std::string err;
    Results results = experiment.run(&err);
    if (results.empty()) {
        std::cerr << who << ": " << err << "\n";
        std::exit(1);
    }
    std::cerr << who << ": " << results.cacheSummary() << "\n";
    return results;
}

/** Headline kernels (the paper's 59; DES-style study kernels excluded). */
inline std::vector<const core::KernelSpec *>
headlineKernels()
{
    std::vector<const core::KernelSpec *> out;
    for (const auto &k : core::Registry::instance().kernels())
        if (!k.info.excluded)
            out.push_back(&k);
    return out;
}

/** Library symbols in Table 2 order of registration. */
inline std::vector<std::string>
librarySymbols()
{
    return core::Registry::instance().symbols();
}

/** Whether two replays agree on the integers the perf benches check. */
inline bool
sameSim(const sim::SimResult &a, const sim::SimResult &b)
{
    return a.instrs == b.instrs && a.cycles == b.cycles &&
           a.dramReads == b.dramReads && a.dramWrites == b.dramWrites &&
           a.l1Accesses == b.l1Accesses && a.byClass == b.byClass;
}

/**
 * Instruction steps a payload-free simulateTraceMany with one warm-up
 * pass takes over @p n instructions and @p configs configurations:
 * each steps the measured pass and the stepped tail of the warm-up
 * (its last sim::kWarmupStepTail instructions; the rest only walks the
 * caches), as the Replay span's arg counts them.
 */
inline double
replaySteps(size_t n, size_t configs)
{
    return double(n + std::min<size_t>(n, sim::kWarmupStepTail)) *
           double(configs);
}

/** A number as a bench's hand-written JSON report prints it. */
inline std::string
fmtJson(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

/**
 * CPU seconds the calling thread spends in one call of @p fn. Unlike
 * wall time, it leaves out the time the thread waits while other
 * threads or processes run, so a ratio of two single-threaded arms
 * shifts less on a busy host.
 */
inline double
cpuSecondsOnce(const std::function<void()> &fn)
{
    const auto now = [] {
        timespec ts;
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
    };
    const double t0 = now();
    fn();
    return now() - t0;
}

/** Median of @p v (the mean of the middle two for an even count). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/**
 * The CPU-time ratio of single-threaded arm @p a over arm @p b,
 * measured in interleaved trials: each trial times both arms once,
 * alternating which runs first, so drift in host speed lands on both
 * arms of a trial alike. Gates read the median; min and max show the
 * spread.
 */
struct Ratio
{
    std::vector<double> trials; //!< seconds(a) / seconds(b), per trial
    double median = 0, min = 0, max = 0;
    double aSeconds = 0, bSeconds = 0; //!< median CPU seconds per arm

    Ratio(const std::function<void()> &a, const std::function<void()> &b,
          int count)
    {
        std::vector<double> ta, tb;
        for (int k = 0; k < count; ++k) {
            if (k % 2) {
                tb.push_back(cpuSecondsOnce(b));
                ta.push_back(cpuSecondsOnce(a));
            } else {
                ta.push_back(cpuSecondsOnce(a));
                tb.push_back(cpuSecondsOnce(b));
            }
            trials.push_back(ta.back() / tb.back());
        }
        median = bench::median(trials);
        min = *std::min_element(trials.begin(), trials.end());
        max = *std::max_element(trials.begin(), trials.end());
        aSeconds = bench::median(ta);
        bSeconds = bench::median(tb);
    }

    /** {"trials": [...], "median": m, "min": lo, "max": hi} */
    std::string
    json() const
    {
        std::string out = "{\"trials\": [";
        for (size_t k = 0; k < trials.size(); ++k)
            out += (k ? ", " : "") + fmtJson(trials[k]);
        return out + "], \"median\": " + fmtJson(median) +
               ", \"min\": " + fmtJson(min) + ", \"max\": " + fmtJson(max) +
               "}";
    }
};

} // namespace swan::bench

#endif // SWAN_BENCH_BENCH_COMMON_HH
