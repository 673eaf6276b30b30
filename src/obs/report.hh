/**
 * @file
 * swan::obs reports — what happens to recorded spans after a run.
 *
 * The registry (obs/telemetry.hh) only accumulates fixed-size records;
 * everything with a memory or format opinion lives here, on the cold
 * side of the run: buildReport() folds the records into per-phase
 * aggregates, writeReportJson() serializes them as a run-report JSON
 * (per-phase wall/CPU time, replay throughput, cache traffic), and
 * writeChromeTrace() writes the raw records as Chrome trace-event
 * JSON, one event per line, loadable directly in Perfetto
 * (ui.perfetto.dev) or chrome://tracing with one track per recording
 * thread.
 *
 * The Collector ties it together: start() before the work, finish()
 * after — stop, aggregate, write both files under one stem, release.
 * Experiment::run() drives one of these when SessionOptions::metricsOut
 * is set.
 */

#ifndef SWAN_OBS_REPORT_HH
#define SWAN_OBS_REPORT_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "sweep/cache.hh"

namespace swan::obs
{

/** Aggregate of every span of one phase. */
struct PhaseStats
{
    uint64_t count = 0;
    uint64_t wallNs = 0;  //!< sum of span durations
    uint64_t cpuNs = 0;   //!< sum of span thread-CPU time
    uint64_t minNs = 0;   //!< shortest span (0 when count == 0)
    uint64_t maxNs = 0;   //!< longest span
    uint64_t argTotal = 0; //!< sum of phase payloads (see SpanRec::arg)

    void add(const SpanRec &r);
};

/** One finished run, aggregated. */
struct RunReport
{
    RunMeta meta;
    std::array<PhaseStats, kPhaseCount> phases{};
    sweep::CacheStats cache; //!< the session cache's counters
    uint64_t droppedSpans = 0;
    uint64_t wallNs = 0; //!< the Sweep envelope's wall time

    /** Fused-replay throughput over the whole run, in millions of
     *  instruction steps taken (stepped instruction x config; a
     *  warm-up instruction that only walks the caches is no step) per
     *  second of replay wall time; 0 when nothing replayed. */
    double replayMinstrPerS() const;
};

RunReport buildReport(const std::vector<SpanRec> &records,
                      const RunMeta &meta, uint64_t dropped_spans,
                      const sweep::CacheStats &cache);

/** Serialize @p report as the stable run-report JSON object. */
void writeReportJson(std::ostream &os, const RunReport &report);

/** Serialize raw records as Chrome trace-event JSON (one event per
 *  line; complete "X" events in microseconds, tid = recording
 *  thread). */
void writeChromeTrace(std::ostream &os,
                      const std::vector<SpanRec> &records);

/**
 * One run's collection scope. start() activates the process-wide
 * registry (false and inert when another collector already owns it),
 * finish() stops it, aggregates, writes the run's files and releases
 * the registry. The destructor releases without writing — an
 * exception between start() and finish() must not leave a dangling
 * active registry.
 */
class Collector
{
  public:
    Collector() = default;
    ~Collector();

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    bool start(size_t capacity = Telemetry::kDefaultCapacity);

    bool active() const { return owned_; }

    /**
     * Stop, aggregate with @p cache folded in, write the run-report
     * JSON to @p stem + ".report.json" and the Chrome trace-event JSONL
     * to @p stem + ".trace.jsonl", then release the registry.
     * @return false when a file could not be written (the first
     * diagnostic, which names the file, lands in @p err); no-op
     * returning true when start() never owned the registry.
     */
    bool finish(const std::string &stem, const sweep::CacheStats &cache,
                std::string *err = nullptr);

  private:
    bool owned_ = false;
};

} // namespace swan::obs

#endif // SWAN_OBS_REPORT_HH
