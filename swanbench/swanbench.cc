/**
 * @file
 * swanbench — the child process of the swan benchmark (run.py drives
 * it). Every invocation runs one mode on one workload grid and prints
 * one JSON object on its last stdout line:
 *
 *   pass       one untraced sweep through the public API (Session +
 *              sweep::expand + sweep::runSweep + sweep::emitResults),
 *              as a one-shot CLI run would; monotonic timestamps let
 *              the parent derive wall, first-row and set-up times.
 *   setup      a pass that exits once it is ready to sweep (process
 *              start, Session construction, grid expansion).
 *   probe      result- and trace-cache lookups of the grid under a
 *              given seed against an existing cache directory (the
 *              "a second seed never hits the first seed's cache" check).
 *   reference  capture-only instruction counts per work unit, through
 *              core::Runner directly (the correctness oracle for the
 *              sweep engine's instrs column).
 *   layers     the traced run: the benchmark's own spans around direct
 *              calls into each layer (capture, pack, decode, replay,
 *              cache, grid, emit, process start), written at exit as a
 *              Chrome-trace JSON that opens in Perfetto.
 *
 * Timestamps are CLOCK_MONOTONIC seconds, the clock Python's
 * time.monotonic() reads on Linux, so the parent can subtract its own
 * spawn time from them.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "swan/swan.hh"

extern char **environ;

namespace
{

using namespace swan;

// ---- workload grids --------------------------------------------------

/** paper_cold / paper_warm: one or two headline kernels per Table-2
 *  library, sized so one cold pass takes a few seconds on 4 cores. */
const std::vector<std::string> kPaperKernels = {
    "BS/sha256",          "BS/aes_encrypt",      "LJ/rgb_to_ycbcr",
    "LO/pitch_autocorr",  "LO/lpc_filter",       "LP/expand_palette",
    "LV/fdct8x8",         "LV/sad16x16",         "LW/predict_tm",
    "OR/memchr",          "PF/fft_forward",      "SK/convolve_horizontally",
    "WA/vadd",            "WA/audible",          "XP/spmm_f32",
    "ZL/adler32",         "ZL/crc32",
};

/** fanout_full: kernels whose paper-size traces make replay the
 *  dominant layer while keeping peak memory small. */
const std::vector<std::string> kFanoutKernels = {
    "LJ/rgb_to_ycbcr",      "PF/fft_forward",      "LW/sharp_yuv_update",
    "SK/convolve_horizontally", "SK/rgba_premultiply", "XP/spmm_f16",
    "LP/defilter_up",       "LJ/smooth_row",       "LO/pitch_autocorr",
    "BS/chacha20",          "LW/predict_tm",       "LV/fdct8x8",
    "WA/vmul",              "ZL/adler32",
};

/** The nine Figure 4 / 5(b) core configurations: nine lanes per trace
 *  cross the fused engine's 8-lane block. */
const std::vector<std::string> kFanoutConfigs = {
    "prime", "gold", "silver", "4W-2V", "4W-4V",
    "4W-6V", "6W-6V", "4W-8V", "8W-8V",
};

sweep::SweepSpec
specFor(const std::string &workload)
{
    sweep::SweepSpec s;
    if (workload == "paper_cold" || workload == "paper_warm") {
        s.kernels.names = kPaperKernels;
        s.impls = {core::Impl::Scalar, core::Impl::Auto, core::Impl::Neon};
        s.configs = {"prime", "gold", "silver"};
        s.workingSets = {"default"};
    } else if (workload == "fanout_full") {
        s.kernels.names = kFanoutKernels;
        s.impls = {core::Impl::Neon};
        s.configs = kFanoutConfigs;
        s.workingSets = {"full"};
    } else {
        throw std::runtime_error("unknown workload '" + workload + "'");
    }
    return s;
}

/** expand() with the benchmark seed written into every point, so the
 *  program only ever sees inputs generated from that seed. */
std::vector<sweep::SweepPoint>
expandSeeded(const sweep::SweepSpec &spec, uint32_t seed)
{
    std::string err;
    std::vector<sweep::SweepPoint> points = sweep::expand(spec, &err);
    if (points.empty())
        throw std::runtime_error("grid expansion failed: " + err);
    for (auto &p : points)
        p.options.seed = seed;
    return points;
}

// ---- small helpers ----------------------------------------------------

double
monoNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::string
unitId(const sweep::SweepPoint &p)
{
    return p.spec->info.qualifiedName() + "/" +
           std::string(core::name(p.impl)) + "/" +
           std::to_string(p.vecBits);
}

/** Capture identity, as the scheduler groups points. */
using UnitKey = std::tuple<std::string, int, int, std::string>;

UnitKey
unitKey(const sweep::SweepPoint &p)
{
    return {p.spec->info.qualifiedName(), int(p.impl), int(p.vecBits),
            p.workingSetName};
}

struct Unit
{
    std::vector<size_t> points; //!< indices into the expanded grid
    std::vector<sim::CoreConfig> configs;
};

std::vector<Unit>
groupUnits(const std::vector<sweep::SweepPoint> &points)
{
    std::vector<Unit> units;
    std::map<UnitKey, size_t> at;
    for (size_t i = 0; i < points.size(); ++i) {
        auto [it, fresh] = at.emplace(unitKey(points[i]), units.size());
        if (fresh)
            units.emplace_back();
        units[it->second].points.push_back(i);
        units[it->second].configs.push_back(points[i].config);
    }
    return units;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t n = 0;
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
        std::error_code fec;
        if (it->is_regular_file(fec))
            n += it->file_size(fec);
    }
    return n;
}

/**
 * Peak resident set of this program in KiB: VmHWM of the current
 * address space. getrusage's ru_maxrss would also count the spawning
 * parent's pages, which the child shares until exec.
 */
uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return uint64_t(ru.ru_maxrss);
}

/** One row per point: the identity columns the correctness digest
 *  covers, then the simulated values the checks read. */
void
writeRows(const std::string &path, const std::vector<sweep::SweepPoint> &points,
          const std::vector<sim::SimResult> &sims)
{
    std::ofstream out(path);
    for (size_t i = 0; i < points.size() && i < sims.size(); ++i) {
        const sweep::SweepPoint &p = points[i];
        const sim::SimResult &s = sims[i];
        out << p.spec->info.qualifiedName() << '\t' << core::name(p.impl)
            << '\t' << p.vecBits << '\t' << p.configName << '\t'
            << p.workingSetName << '\t' << s.instrs << '\t' << s.cycles
            << '\t' << num(s.energyJ) << '\t' << num(s.l1HitRate) << '\t'
            << num(s.llcMpki) << '\t' << num(s.dramAccessPerKCycle) << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

// ---- command line -------------------------------------------------------

struct Args
{
    std::string mode, workload, cacheDir, rowsOut, traceOut, swanBin;
    uint32_t seed = 0;
    int jobs = 1;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::runtime_error("usage: swanbench pass|probe|reference|"
                                 "layers --workload W --seed N [...]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = uint32_t(std::stoul(v));
        else if (k == "--jobs")
            a.jobs = std::stoi(v);
        else if (k == "--cache-dir")
            a.cacheDir = v;
        else if (k == "--rows-out")
            a.rowsOut = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else if (k == "--swan-bin")
            a.swanBin = v;
        else
            throw std::runtime_error("unknown option " + k);
    }
    return a;
}

// ---- pass: one untraced sweep -------------------------------------------

int
cmdPass(const Args &a)
{
    SessionOptions so;
    so.withJobs(a.jobs).withCacheDir(a.cacheDir);
    Session session(so);
    const sweep::SweepSpec spec = specFor(a.workload);
    const std::vector<sweep::SweepPoint> points = expandSeeded(spec, a.seed);

    sweep::SchedulerConfig cfg = session.schedulerConfig();
    cfg.warmupPasses = spec.warmupPasses;
    size_t rows = 0;
    double tFirst = 0.0;
    cfg.onRow = [&](const sweep::SweepResult &, const sweep::RowOrigin &) {
        if (rows++ == 0)
            tFirst = monoNow();
    };

    const double tReady = monoNow();
    if (a.mode == "setup") {
        std::cout << "{\"t_ready\": " << num(tReady)
                  << ", \"points\": " << points.size() << "}" << std::endl;
        return 0;
    }
    const std::vector<sweep::SweepResult> results = sweep::runSweep(points, cfg);
    std::ostringstream os;
    sweep::emitResults(os, results, sweep::Format::JsonLines);
    const std::string emitted = os.str();
    const double tDone = monoNow();

    std::vector<sim::SimResult> sims;
    uint64_t instrs = 0;
    for (const auto &r : results) {
        sims.push_back(r.run.sim);
        instrs += r.run.sim.instrs;
    }
    if (!a.rowsOut.empty())
        writeRows(a.rowsOut, points, sims);
    const sweep::CacheStats cs = session.cache().stats();
    std::cout << "{\"t_ready\": " << num(tReady)
              << ", \"t_first_row\": " << num(tFirst)
              << ", \"t_done\": " << num(tDone)
              << ", \"points\": " << points.size()
              << ", \"rows\": " << rows << ", \"results\": " << results.size()
              << ", \"instrs\": " << instrs
              << ", \"emit_fnv\": " << jsonStr(hex64(fnv1a(emitted)))
              << ", \"result_hits\": " << cs.hits + cs.diskHits + cs.farHits
              << ", \"peak_rss_kb\": " << peakRssKb() << "}" << std::endl;
    return 0;
}

// ---- probe: lookups of the grid under another seed -------------------------

int
cmdProbe(const Args &a)
{
    const sweep::SweepSpec spec = specFor(a.workload);
    const std::vector<sweep::SweepPoint> points = expandSeeded(spec, a.seed);
    sweep::ResultCache cache(a.cacheDir);
    size_t hits = 0, traceHits = 0;
    for (const auto &p : points) {
        core::KernelRun run;
        hits += cache.lookup(sweep::keyFor(p, spec.warmupPasses), &run);
    }
    for (const Unit &u : groupUnits(points)) {
        trace::PackedTrace t;
        trace::MixStats mix;
        traceHits += cache.lookupTrace(sweep::traceKeyFor(points[u.points[0]]),
                                       &t, &mix);
    }
    std::cout << "{\"points\": " << points.size() << ", \"hits\": " << hits
              << ", \"trace_hits\": " << traceHits << "}" << std::endl;
    return 0;
}

// ---- reference: capture-only instruction counts ---------------------------

int
cmdReference(const Args &a)
{
    const sweep::SweepSpec spec = specFor(a.workload);
    const std::vector<sweep::SweepPoint> points = expandSeeded(spec, a.seed);
    std::vector<trace::Instr> buf;
    std::string out = "{\"units\": [";
    bool first = true;
    for (const Unit &u : groupUnits(points)) {
        const sweep::SweepPoint &p = points[u.points[0]];
        auto w = p.spec->make(p.options);
        core::Runner::captureInto(*w, p.impl, p.vecBits, &buf);
        out += std::string(first ? "" : ", ") + "[" +
               jsonStr(p.spec->info.qualifiedName()) + ", " +
               jsonStr(std::string(core::name(p.impl))) + ", " +
               std::to_string(p.vecBits) + ", " + jsonStr(p.workingSetName) +
               ", " + std::to_string(buf.size()) + "]";
        first = false;
    }
    std::cout << out << "], \"points\": " << points.size() << "}" << std::endl;
    return 0;
}

// ---- layers: the traced run ----------------------------------------------

/** One span of the traced run: kept in memory, written at exit. */
struct Span
{
    std::string name;  //!< layer
    std::string unit;  //!< kernel/impl/width, empty for whole-grid spans
    double start = 0.0, end = 0.0;
    int id = 0, parent = 0, tid = 0;

    double dur() const { return end - start; }
};

class SpanLog
{
  public:
    /** Open a span; returns its id (0 is the implicit root). */
    int
    begin(std::string name, std::string unit, int parent, int tid = 0)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = std::move(name);
        s.unit = std::move(unit);
        s.start = monoNow();
        s.id = int(spans_.size()) + 1;
        s.parent = parent;
        s.tid = tid;
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    end(int id)
    {
        const double t = monoNow();
        std::lock_guard<std::mutex> lock(mu_);
        Span &s = spans_[size_t(id - 1)];
        s.end = t;
        return s.dur();
    }

    /** Summed duration of every span named @p name. */
    double
    total(const std::string &name) const
    {
        double t = 0.0;
        for (const Span &s : spans_)
            if (s.name == name)
                t += s.dur();
        return t;
    }

    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> d;
        for (const Span &s : spans_)
            if (s.name == name)
                d.push_back(s.dur());
        return d;
    }

    /** The @p n longest unit spans of one layer, as a JSON list. */
    std::string
    longPoles(const std::string &name, size_t n) const
    {
        std::vector<const Span *> v;
        for (const Span &s : spans_)
            if (s.name == name && !s.unit.empty())
                v.push_back(&s);
        std::sort(v.begin(), v.end(), [](const Span *x, const Span *y) {
            return x->dur() > y->dur();
        });
        std::string out = "[";
        for (size_t i = 0; i < v.size() && i < n; ++i)
            out += std::string(i ? ", " : "") + "[" + jsonStr(v[i]->unit) +
                   ", " + num(v[i]->dur() * 1e3) + "]";
        return out + "]";
    }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    void
    writeChromeTrace(const std::string &path, double t0,
                     const std::string &meta) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << meta
            << ", \"traceEvents\": [\n";
        int maxTid = 0;
        for (const Span &s : spans_)
            maxTid = std::max(maxTid, s.tid);
        for (int t = 0; t <= maxTid; ++t)
            out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                   "\"tid\": "
                << t << ", \"args\": {\"name\": "
                << jsonStr(t ? "replay worker " + std::to_string(t)
                             : std::string("main"))
                << "}},\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
                << ", \"name\": "
                << jsonStr(s.unit.empty() ? s.name : s.name + " " + s.unit)
                << ", \"cat\": " << jsonStr(s.name)
                << ", \"ts\": " << num((s.start - t0) * 1e6)
                << ", \"dur\": " << num(s.dur() * 1e6)
                << ", \"args\": {\"id\": " << s.id
                << ", \"parent\": " << s.parent
                << ", \"unit\": " << jsonStr(s.unit) << "}}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Median wall milliseconds of spawning `swan version` @p n times. */
double
procStartMs(const std::string &swanBin, int n)
{
    std::vector<double> ms;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    for (int i = 0; i < n; ++i) {
        char arg0[] = "swan", arg1[] = "version";
        char *argv[] = {arg0, arg1, nullptr};
        const double t = monoNow();
        pid_t pid = 0;
        if (posix_spawn(&pid, swanBin.c_str(), &fa, nullptr, argv, environ) != 0)
            throw std::runtime_error("cannot spawn " + swanBin);
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("swan version failed");
        ms.push_back((monoNow() - t) * 1e3);
    }
    posix_spawn_file_actions_destroy(&fa);
    return quantile(ms, 0.5);
}

/**
 * Replay @p units on @p jobs threads (the scheduler's phase 2 shape),
 * one "replay" span per unit. Results land at their point index.
 */
void
replayUnits(const std::vector<Unit> &units,
            const std::vector<trace::PackedTrace> &traces,
            const std::vector<std::string> &ids, int warmup, int jobs,
            SpanLog &log, int parent, const char *spanName,
            std::vector<sim::SimResult> *sims)
{
    std::atomic<size_t> next{0};
    std::mutex errMu;
    std::string err;
    auto worker = [&](int tid) {
        for (size_t u = next++; u < units.size(); u = next++) {
            try {
                const int id = log.begin(spanName, ids[u], parent, tid);
                auto out = sim::simulateTraceMany(traces[u], units[u].configs,
                                                  warmup);
                log.end(id);
                for (size_t j = 0; j < units[u].points.size(); ++j)
                    (*sims)[units[u].points[j]] = std::move(out[j]);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errMu);
                err = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t <= std::max(1, jobs); ++t)
        pool.emplace_back(worker, t);
    for (auto &t : pool)
        t.join();
    if (!err.empty())
        throw std::runtime_error("replay failed: " + err);
}

int
cmdLayers(const Args &a)
{
    core::Registry::instance().closeRegistration();
    SpanLog log;
    const double t0 = monoNow();
    const int root = log.begin("layers", std::string(), 0);
    const sweep::SweepSpec spec = specFor(a.workload);
    const int warmup = spec.warmupPasses;

    // Grid: expand is deterministic and cheap; take the median of a few.
    std::vector<double> expandMs;
    std::vector<sweep::SweepPoint> points;
    for (int i = 0; i < 5; ++i) {
        const int id = log.begin("grid", std::string(), root);
        points = expandSeeded(spec, a.seed);
        expandMs.push_back(log.end(id) * 1e3);
    }
    const std::vector<Unit> units = groupUnits(points);

    // Capture, mix count and pack: serial, unit by unit, as the
    // scheduler's phase 1 does (one reused capture and pack scratch).
    std::vector<trace::PackedTrace> traces(units.size());
    std::vector<trace::MixStats> mixes(units.size());
    std::vector<std::string> ids(units.size());
    std::vector<trace::Instr> buf;
    trace::PackedTrace::Scratch scratch;
    uint64_t instrs = 0, packedBytes = 0, lanes = 0, instrCfgs = 0;
    double captureMax = 0.0;
    for (size_t u = 0; u < units.size(); ++u) {
        const sweep::SweepPoint &p = points[units[u].points[0]];
        ids[u] = unitId(p);
        auto w = p.spec->make(p.options);
        int id = log.begin("capture", ids[u], root);
        core::Runner::captureInto(*w, p.impl, p.vecBits, &buf);
        captureMax = std::max(captureMax, log.end(id));
        id = log.begin("mix", ids[u], root);
        mixes[u].addTrace(buf);
        log.end(id);
        id = log.begin("pack", ids[u], root);
        traces[u] = trace::PackedTrace::pack(buf, &scratch);
        log.end(id);
        instrs += buf.size();
        packedBytes += traces[u].byteSize();
        lanes += units[u].configs.size();
        instrCfgs += buf.size() * units[u].configs.size();
    }
    std::vector<trace::Instr>().swap(buf);

    // Decode only: the batch varint decoder alone, no core model.
    uint64_t decoded = 0;
    std::vector<trace::PackedTrace::Decoded> batch(trace::PackedTrace::kBlockInstrs);
    for (size_t u = 0; u < units.size(); ++u) {
        const int id = log.begin("decode", ids[u], root);
        trace::PackedTrace::Cursor c(traces[u]);
        while (size_t n = c.nextBatch(batch.data(), batch.size()))
            decoded += n;
        log.end(id);
        if (!c.ok())
            throw std::runtime_error("decode of " + ids[u] + " failed");
    }
    if (decoded != instrs)
        throw std::runtime_error("decode count differs from capture count");

    // Replay: every unit through all of its configs, on `jobs` threads.
    std::vector<sim::SimResult> sims(points.size());
    {
        const int id = log.begin("replay_phase", std::string(), root);
        replayUnits(units, traces, ids, warmup, a.jobs, log, id, "replay",
                    &sims);
        log.end(id);
    }

    std::vector<sweep::SweepResult> results(points.size());
    for (size_t u = 0; u < units.size(); ++u)
        for (size_t i : units[u].points) {
            results[i].point = points[i];
            results[i].run.sim = sims[i];
            results[i].run.mix = mixes[u];
        }

    // Emit: the jsonl report, as `swan sweep --format jsonl` renders it.
    std::vector<double> emitMs;
    for (int i = 0; i < 3; ++i) {
        const int id = log.begin("emit", std::string(), root);
        std::ostringstream os;
        sweep::emitResults(os, results, sweep::Format::JsonLines);
        emitMs.push_back(log.end(id) * 1e3);
    }

    // Cache: cold-run traffic (miss, store, trace miss, trace store) on
    // a fresh directory, then a fresh instance re-looking every point up
    // (the warm-run path), then the other-seed probe.
    const std::string cacheDir = a.cacheDir;
    std::filesystem::remove_all(cacheDir);
    std::vector<double> storeUs, storeTraceMs, lookupUs;
    double cacheColdS = 0.0, cacheWarmS = 0.0;
    size_t hits = 0;
    {
        sweep::ResultCache cache(cacheDir);
        for (size_t u = 0; u < units.size(); ++u) {
            const sweep::SweepPoint &p = points[units[u].points[0]];
            trace::PackedTrace t;
            trace::MixStats m;
            int id = log.begin("cache_lookup_trace", ids[u], root);
            if (cache.lookupTrace(sweep::traceKeyFor(p), &t, &m))
                throw std::runtime_error("fresh cache dir served a trace");
            cacheColdS += log.end(id);
            id = log.begin("cache_store_trace", ids[u], root);
            cache.storeTrace(sweep::traceKeyFor(p), traces[u], mixes[u]);
            const double d = log.end(id);
            cacheColdS += d;
            storeTraceMs.push_back(d * 1e3);
            for (size_t i : units[u].points) {
                const sweep::CacheKey key = sweep::keyFor(points[i], warmup);
                core::KernelRun run;
                id = log.begin("cache_lookup_miss", ids[u], root);
                if (cache.lookup(key, &run))
                    throw std::runtime_error("fresh cache dir served a result");
                cacheColdS += log.end(id);
                id = log.begin("cache_store", ids[u], root);
                cache.store(key, results[i].run);
                const double s = log.end(id);
                cacheColdS += s;
                storeUs.push_back(s * 1e6);
            }
        }
    }
    const uint64_t bytesWritten = dirBytes(cacheDir);
    size_t otherSeedHits = 0;
    {
        sweep::ResultCache cache(cacheDir);
        for (const sweep::SweepPoint &p : points) {
            core::KernelRun run;
            const int id = log.begin("cache_lookup", unitId(p), root);
            const bool hit = cache.lookup(sweep::keyFor(p, warmup), &run);
            const double d = log.end(id);
            cacheWarmS += d;
            lookupUs.push_back(d * 1e6);
            hits += hit && run.sim.cycles == results[p.index].run.sim.cycles;
        }
        for (const sweep::SweepPoint &p :
             expandSeeded(spec, a.seed ^ 0x9e3779b9u)) {
            core::KernelRun run;
            otherSeedHits += cache.lookup(sweep::keyFor(p, warmup), &run);
        }
    }
    std::filesystem::remove_all(cacheDir);

    const double procMs = procStartMs(a.swanBin, 15);
    log.end(root);

    // Modelled statistics (unvalidated model: no hardware reference).
    double cyclesTotal = 0.0, l1 = 0.0, llc = 0.0, dram = 0.0;
    for (const auto &s : sims) {
        cyclesTotal += double(s.cycles);
        l1 += s.l1HitRate;
        llc += s.llcMpki;
        dram += s.dramAccessPerKCycle;
    }
    const double n = double(points.size());
    // Scalar-over-Neon cycles on prime, per kernel and working set.
    std::map<std::pair<std::string, std::string>, std::pair<double, double>>
        prime;
    for (size_t i = 0; i < points.size(); ++i) {
        const sweep::SweepPoint &p = points[i];
        if (p.configName != "prime" || p.vecBits != 128)
            continue;
        auto &e = prime[{p.spec->info.qualifiedName(), p.workingSetName}];
        if (p.impl == core::Impl::Scalar)
            e.first = double(sims[i].cycles);
        if (p.impl == core::Impl::Neon)
            e.second = double(sims[i].cycles);
    }
    // Grids without a Scalar axis (fanout_full) take the ratio from a
    // companion Scalar + Neon replay on prime at the default working
    // set; those spans are "model_ref", outside every layer total.
    bool missingScalar = false;
    for (const auto &kv : prime)
        missingScalar = missingScalar || kv.second.first == 0.0;
    if (missingScalar) {
        sweep::SweepSpec ref;
        ref.kernels.names = spec.kernels.names;
        ref.impls = {core::Impl::Scalar, core::Impl::Neon};
        ref.configs = {"prime"};
        ref.workingSets = {"default"};
        const std::vector<sweep::SweepPoint> rp = expandSeeded(ref, a.seed);
        const std::vector<Unit> ru = groupUnits(rp);
        std::vector<trace::PackedTrace> rt(ru.size());
        std::vector<std::string> rids(ru.size());
        std::vector<trace::Instr> rbuf;
        for (size_t u = 0; u < ru.size(); ++u) {
            const sweep::SweepPoint &p = rp[ru[u].points[0]];
            rids[u] = unitId(p);
            const int id = log.begin("model_ref", rids[u], 0);
            auto w = p.spec->make(p.options);
            core::Runner::captureInto(*w, p.impl, p.vecBits, &rbuf);
            rt[u] = trace::PackedTrace::pack(rbuf, &scratch);
            log.end(id);
        }
        std::vector<sim::SimResult> rs(rp.size());
        replayUnits(ru, rt, rids, warmup, a.jobs, log, 0, "model_ref", &rs);
        prime.clear();
        for (size_t i = 0; i < rp.size(); ++i) {
            auto &e = prime[{rp[i].spec->info.qualifiedName(), "default"}];
            (rp[i].impl == core::Impl::Scalar ? e.first : e.second) =
                double(rs[i].cycles);
        }
    }
    double logSum = 0.0;
    size_t kernels = 0;
    for (const auto &kv : prime)
        if (kv.second.first > 0.0 && kv.second.second > 0.0) {
            logSum += std::log(kv.second.first / kv.second.second);
            ++kernels;
        }

    if (!a.rowsOut.empty())
        writeRows(a.rowsOut, points, sims);

    const double captureS = log.total("capture");
    const double packS = log.total("pack");
    const double mixS = log.total("mix");
    const double decodeS = log.total("decode");
    const double replayS = log.total("replay");
    const double emitS = quantile(emitMs, 0.5) / 1e3;
    const double expandS = quantile(expandMs, 0.5) / 1e3;
    const std::vector<double> unitMs = [&] {
        std::vector<double> v = log.durations("replay");
        for (double &d : v)
            d *= 1e3;
        return v;
    }();

    std::ostringstream m;
    m << "{\"capture.s\": " << num(captureS)
      << ", \"capture.minstr\": " << num(double(instrs) / 1e6)
      << ", \"capture.minstr_per_s\": " << num(double(instrs) / 1e6 / captureS)
      << ", \"capture.unit_max_s\": " << num(captureMax)
      << ", \"pack.s\": " << num(packS)
      << ", \"pack.minstr_per_s\": " << num(double(instrs) / 1e6 / packS)
      << ", \"pack.bytes_per_instr\": "
      << num(double(packedBytes) / double(instrs))
      << ", \"decode.minstr_per_s\": " << num(double(decoded) / 1e6 / decodeS)
      << ", \"replay.s\": " << num(replayS)
      << ", \"replay.minstr_cfg_per_s\": "
      << num(double(instrCfgs) / 1e6 / replayS)
      << ", \"replay.lanes\": " << num(double(lanes) / double(units.size()))
      << ", \"replay.unit_p50_ms\": " << num(quantile(unitMs, 0.5))
      << ", \"replay.unit_p90_ms\": " << num(quantile(unitMs, 0.9))
      << ", \"model.cycles_total\": " << num(cyclesTotal)
      << ", \"model.geomean_neon_speedup_prime\": "
      << num(kernels ? std::exp(logSum / double(kernels)) : 0.0)
      << ", \"model.l1_hit_rate_mean\": " << num(l1 / n)
      << ", \"model.llc_mpki_mean\": " << num(llc / n)
      << ", \"model.dram_per_kcycle_mean\": " << num(dram / n)
      << ", \"cache.lookup.count\": " << lookupUs.size()
      << ", \"cache.lookup_us_p50\": " << num(quantile(lookupUs, 0.5))
      << ", \"cache.lookup_us_p98\": " << num(quantile(lookupUs, 0.98))
      << ", \"cache.hit_ratio\": " << num(double(hits) / double(lookupUs.size()))
      << ", \"cache.store_us_p50\": " << num(quantile(storeUs, 0.5))
      << ", \"cache.store_trace_ms_p50\": " << num(quantile(storeTraceMs, 0.5))
      << ", \"cache.bytes_written\": " << bytesWritten
      << ", \"grid.expand_ms\": " << num(expandS * 1e3)
      << ", \"emit.ms\": " << num(emitS * 1e3)
      << ", \"proc.start_ms\": " << num(procMs)
      << ", \"sched.serial_s\": " << num(captureS + packS) << "}";

    // Layer busy time of what an untraced cold / warm pass does, for
    // the reconciliation against that pass's CPU time.
    const double coldBusy =
        expandS + captureS + mixS + packS + replayS + cacheColdS + emitS;
    const double warmBusy = procMs / 1e3 + expandS + cacheWarmS + emitS;

    const std::string poles =
        "{\"capture\": " + log.longPoles("capture", 10) +
        ", \"pack\": " + log.longPoles("pack", 10) +
        ", \"decode\": " + log.longPoles("decode", 10) +
        ", \"replay\": " + log.longPoles("replay", 10) + "}";
    if (!a.traceOut.empty())
        log.writeChromeTrace(a.traceOut, t0,
                             "{\"workload\": " + jsonStr(a.workload) +
                                 ", \"seed\": " + std::to_string(a.seed) +
                                 ", \"long_poles_ms\": " + poles + "}");

    std::cout << "{\"points\": " << points.size()
              << ", \"units\": " << units.size()
              << ", \"other_seed_hits\": " << otherSeedHits
              << ", \"busy_cold_s\": " << num(coldBusy)
              << ", \"busy_warm_s\": " << num(warmBusy)
              << ", \"long_poles_ms\": " << poles << ", \"metrics\": " << m.str()
              << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        if (a.mode == "pass" || a.mode == "setup")
            return cmdPass(a);
        if (a.mode == "probe")
            return cmdProbe(a);
        if (a.mode == "reference")
            return cmdReference(a);
        if (a.mode == "layers")
            return cmdLayers(a);
        throw std::runtime_error("unknown mode '" + a.mode + "'");
    } catch (const std::exception &e) {
        std::cerr << "swanbench: " << e.what() << "\n";
        return 1;
    }
}
