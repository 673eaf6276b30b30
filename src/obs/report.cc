#include "obs/report.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "swan/internal/simd_dispatch.hh"

namespace swan::obs
{

namespace
{

void
writePhaseArray(std::ostream &os,
                const std::array<PhaseStats, kPhaseCount> &phases)
{
    os << "[";
    bool first = true;
    for (size_t i = 0; i < kPhaseCount; ++i) {
        const PhaseStats &p = phases[i];
        if (!p.count)
            continue;
        os << (first ? "\n" : ",\n") << "    {\"phase\": \""
           << name(Phase(i)) << "\", \"count\": " << p.count
           << ", \"wall_ns\": " << p.wallNs << ", \"cpu_ns\": " << p.cpuNs
           << ", \"min_ns\": " << p.minNs << ", \"max_ns\": " << p.maxNs
           << ", \"arg_total\": " << p.argTotal << "}";
        first = false;
    }
    os << (first ? "]" : "\n  ]");
}

} // namespace

void
PhaseStats::add(const SpanRec &r)
{
    const uint64_t wall = r.t1Ns >= r.t0Ns ? r.t1Ns - r.t0Ns : 0;
    if (count == 0 || wall < minNs)
        minNs = wall;
    if (wall > maxNs)
        maxNs = wall;
    ++count;
    wallNs += wall;
    cpuNs += r.cpuNs;
    argTotal += r.arg;
}

double
RunReport::replayMinstrPerS() const
{
    const PhaseStats &r = phases[size_t(Phase::Replay)];
    if (!r.wallNs || !r.argTotal)
        return 0.0;
    return double(r.argTotal) * 1e3 / double(r.wallNs);
}

RunReport
buildReport(const std::vector<SpanRec> &records, const RunMeta &meta,
            uint64_t dropped_spans, const sweep::CacheStats &cache)
{
    RunReport rep;
    rep.meta = meta;
    rep.cache = cache;
    rep.droppedSpans = dropped_spans;
    for (const SpanRec &r : records) {
        const size_t pi = size_t(r.phase);
        if (pi < kPhaseCount)
            rep.phases[pi].add(r);
    }
    rep.wallNs = rep.phases[size_t(Phase::Sweep)].wallNs;
    return rep;
}

void
writeReportJson(std::ostream &os, const RunReport &rep)
{
    os << "{\n";
    os << "  \"swan_obs_version\": 1,\n";
    os << "  \"meta\": {\"points\": " << rep.meta.points
       << ", \"units\": " << rep.meta.units
       << ", \"jobs\": " << rep.meta.jobs << "},\n";
    // The replay engine's runtime ISA dispatch: which decode/step
    // kernels this run actually executed (matches `swan version`).
    const detail::SimdDispatch &simd = detail::simdDispatch();
    os << "  \"simd\": {\"isa\": \"" << simd.isa << "\", \"decode\": \""
       << simd.decodeKernel << "\", \"step\": \"" << simd.stepKernel
       << "\", \"forced\": " << (simd.forced ? "true" : "false")
       << "},\n";
    os << "  \"wall_ns\": " << rep.wallNs << ",\n";
    os << "  \"dropped_spans\": " << rep.droppedSpans << ",\n";
    char rate[64];
    std::snprintf(rate, sizeof rate, "%.3f", rep.replayMinstrPerS());
    os << "  \"replay_minstr_per_s\": " << rate << ",\n";
    os << "  \"phases\": ";
    writePhaseArray(os, rep.phases);
    os << ",\n";
    const sweep::CacheStats &c = rep.cache;
    os << "  \"cache\": {\"memory_hits\": " << c.hits
       << ", \"disk_hits\": " << c.diskHits << ", \"misses\": " << c.misses
       << ", \"stores\": " << c.stores << ", \"trace_hits\": "
       << c.traceHits << ", \"trace_misses\": " << c.traceMisses
       << ", \"trace_stores\": " << c.traceStores
       << ", \"evictions\": " << c.evictions
       << ", \"corrupt_quarantined\": " << c.corruptEntriesQuarantined
       << "}\n";
    os << "}\n";
}

void
writeChromeTrace(std::ostream &os, const std::vector<SpanRec> &records)
{
    // Normalize to the earliest open so timestamps start near zero —
    // Perfetto renders absolute CLOCK_MONOTONIC values fine but the
    // zoomed-out view is friendlier this way.
    uint64_t base = ~0ull;
    for (const SpanRec &r : records)
        base = std::min(base, r.t0Ns);
    if (records.empty())
        base = 0;

    os << "[\n";
    bool first = true;
    for (const SpanRec &r : records) {
        char ts[64], dur[64];
        const uint64_t wall = r.t1Ns >= r.t0Ns ? r.t1Ns - r.t0Ns : 0;
        std::snprintf(ts, sizeof ts, "%.3f",
                      double(r.t0Ns - base) / 1e3);
        std::snprintf(dur, sizeof dur, "%.3f", double(wall) / 1e3);
        os << (first ? "" : ",\n") << "{\"name\": \"" << name(r.phase)
           << "\", \"cat\": \"swan\", \"ph\": \"X\", \"ts\": " << ts
           << ", \"dur\": " << dur << ", \"pid\": 1, \"tid\": " << r.tid
           << ", \"args\": {\"arg\": " << r.arg << "}}";
        first = false;
    }
    os << "\n]\n";
}

bool
ReportSink::consume(const RunReport &report,
                    const std::vector<SpanRec> &records, std::string *err)
{
    (void)records;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (err)
            *err = "obs: cannot open report file " + path_;
        return false;
    }
    writeReportJson(out, report);
    out.flush();
    if (!out) {
        if (err)
            *err = "obs: short write to " + path_;
        return false;
    }
    return true;
}

bool
ChromeTraceSink::consume(const RunReport &report,
                         const std::vector<SpanRec> &records,
                         std::string *err)
{
    (void)report;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (err)
            *err = "obs: cannot open trace file " + path_;
        return false;
    }
    writeChromeTrace(out, records);
    out.flush();
    if (!out) {
        if (err)
            *err = "obs: short write to " + path_;
        return false;
    }
    return true;
}

Collector::~Collector()
{
    if (owned_)
        Telemetry::release();
}

bool
Collector::start(size_t capacity)
{
    if (owned_)
        return true;
    owned_ = Telemetry::start(capacity);
    return owned_;
}

void
Collector::addSink(std::unique_ptr<Sink> sink)
{
    if (sink)
        sinks_.push_back(std::move(sink));
}

bool
Collector::finish(const sweep::CacheStats &cache, std::string *err)
{
    if (!owned_)
        return true;
    Telemetry::stop();
    Telemetry *t = Telemetry::instance();
    bool ok = true;
    if (t) {
        const std::vector<SpanRec> records = t->snapshot();
        const RunReport rep =
            buildReport(records, t->meta(), t->dropped(), cache);
        for (auto &sink : sinks_) {
            std::string serr;
            if (!sink->consume(rep, records, &serr)) {
                if (ok && err)
                    *err = serr;
                ok = false;
            }
        }
    }
    Telemetry::release();
    owned_ = false;
    return ok;
}

} // namespace swan::obs
