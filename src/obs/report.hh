/**
 * @file
 * swan::obs sinks — what happens to recorded spans after a run.
 *
 * The registry (obs/telemetry.hh) only accumulates fixed-size records;
 * everything with a memory or format opinion lives here, on the cold
 * side of the run: buildReport() folds the records into per-phase
 * aggregates, and Sink implementations serialize them — ReportSink as
 * a run-report JSON (per-phase wall/CPU time, replay throughput, cache
 * traffic) and ChromeTraceSink as Chrome trace-event JSON, one event
 * per line, loadable directly in Perfetto (ui.perfetto.dev) or
 * chrome://tracing with one track per recording thread.
 *
 * The Collector ties it together for the common case: start() before
 * the work, addSink() any number of sinks, finish() after — stop,
 * aggregate, feed every sink, release. Experiment::run() drives one
 * of these when SessionOptions::metricsOut is set.
 */

#ifndef SWAN_OBS_REPORT_HH
#define SWAN_OBS_REPORT_HH

#include <array>
#include <cstdint>
#include <memory>
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

/** Consumes one finished run's telemetry. */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** @return false on failure, with @p err set (never throws). */
    virtual bool consume(const RunReport &report,
                         const std::vector<SpanRec> &records,
                         std::string *err) = 0;
};

/** Writes the run-report JSON to a file. */
class ReportSink final : public Sink
{
  public:
    explicit ReportSink(std::string path) : path_(std::move(path)) {}

    bool consume(const RunReport &report,
                 const std::vector<SpanRec> &records,
                 std::string *err) override;

  private:
    std::string path_;
};

/** Writes the Chrome trace-event JSONL to a file. */
class ChromeTraceSink final : public Sink
{
  public:
    explicit ChromeTraceSink(std::string path) : path_(std::move(path))
    {
    }

    bool consume(const RunReport &report,
                 const std::vector<SpanRec> &records,
                 std::string *err) override;

  private:
    std::string path_;
};

/**
 * One run's collection scope. start() activates the process-wide
 * registry (false and inert when another collector already owns it),
 * finish() stops it, aggregates, feeds every attached sink and
 * releases the registry. The destructor releases without flushing —
 * an exception between start() and finish() must not leave a dangling
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

    void addSink(std::unique_ptr<Sink> sink);

    /**
     * Stop, aggregate with @p cache folded in, run every sink, then
     * release the registry. @return false when any sink failed (the
     * first diagnostic lands in @p err); no-op returning true when
     * start() never owned the registry.
     */
    bool finish(const sweep::CacheStats &cache, std::string *err = nullptr);

  private:
    std::vector<std::unique_ptr<Sink>> sinks_;
    bool owned_ = false;
};

} // namespace swan::obs

#endif // SWAN_OBS_REPORT_HH
