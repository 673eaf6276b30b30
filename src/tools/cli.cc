#include "tools/cli.hh"

#include <climits>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>

// The CLI is a consumer of the public API, not of src/ internals: every
// command goes through the same include/swan/ surface an out-of-tree
// embedding would use (the sweep forms through Session/Experiment).
#include "swan/faults.hh"
#include "swan/swan.hh"

namespace swan::tools
{

namespace
{

/**
 * `swan run --dump-trace` files: this magic, then the trace's
 * PackedTrace payload (appendPayload: FNV-checksummed, and a same-host
 * format like the sweep cache's `.swtp` entries).
 */
constexpr char kDumpMagic[8] = {'S', 'W', 'A', 'N', 'D', 'M', 'P', '1'};

constexpr const char *kUsage = R"(usage: swan <command> [options]

commands:
  list [--library SYM]         list registered kernels (optionally one
                               library symbol, e.g. ZL)
  info <kernel>                metadata of one kernel ("ZL/adler32")
  run <kernel> [options]       trace + simulate one implementation
  compare <kernel> [options]   Scalar vs Auto vs Neon on one core
  simulate <dump> [opts]       replay a 'run --dump-trace' file on a
                               core model (--core)
  sweep <kernel> --what X      sweep widths (Fig. 5a) or cores (Fig. 4)
  sweep [grid flags]           run a declarative experiment grid on the
                               parallel sweep engine (docs/sweep.md)
  version                      print the swan version (also --version, -V)
  help                         this text

options:
  --impl scalar|auto|neon      implementation for 'run' (default neon)
  --core prime|gold|silver     core model (default prime)
  --bits 128|256|512|1024      vector width for wider-register kernels
  --full                       paper-scale input sizes (Section 4.1)
  --dump-trace FILE            with 'run': also write the captured
                               trace to FILE as a packed trace (a
                               same-host format) for 'simulate'
  --what widths|cores          sweep axis for 'sweep <kernel>'

sweep grid flags (cartesian product of the axes):
  --kernels A,B                explicit kernels (default: all headline)
  --library SYM                restrict to one library symbol, e.g. ZL
  --wider                      only the eight Figure-5 kernels
  --impls scalar,auto,neon     implementation axis (default neon)
  --bits 128,256,...           vector-width axis (default 128)
  --cores prime,gold,4W-2V,..  core presets; also "wider" and "NW-MV"
  --ws default|full|tiny|scalability[,..]  working-set presets
  --faults LIST                fault-injection axis: comma-separated
                               scenario[:key=value]... specs, e.g.
                               "none,dram-spike:seed=7:intensity=16";
                               identical seeds give byte-identical
                               results for any --jobs, and faulted
                               points never share cache entries with
                               clean ones. --faults=help prints the
                               scenario catalog (docs/faults.md)
  --jobs N                     threads that run work units (default
                               1, 0 = all cores; same output for
                               any N)
  --format table|csv|jsonl     report format (default table)
  --progress                   stream one line per finished row to
                               stderr, in deterministic point order,
                               tagged with its origin (cache or
                               computed)
  --metrics-out STEM           collect swan::obs telemetry over the
                               sweep and write STEM.report.json
                               (per-phase times, throughput, cache
                               traffic) plus STEM.trace.jsonl
                               (Chrome trace events — open in Perfetto
                               or chrome://tracing); results stay
                               byte-identical (docs/observability.md)
  --cache-dir DIR              on-disk result + packed-trace cache
                               (also honors SWAN_SWEEP_CACHE_DIR);
                               hit/miss counters go to stderr
  --cache-max-bytes N          size cap for the on-disk cache: after
                               every store, the least recently used
                               entries (by the cache's own lookup and
                               store order — never file mtimes) are
                               pruned until the cache fits
                               (0 = unbounded)

environment (defaults only; explicit flags win — docs/api.md):
  SWAN_JOBS                    default --jobs (positive values only)
  SWAN_SWEEP_CACHE_DIR         default --cache-dir
  SWAN_SWEEP_CACHE_MAX_BYTES   default --cache-max-bytes
  SWAN_METRICS                 default --metrics-out stem
)";

/** Split a comma-separated flag value; empty segments dropped. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

struct Parsed
{
    std::string command;
    std::string kernel;
    std::string library;
    core::Impl impl = core::Impl::Neon;
    std::string coreName = "prime";
    int bits = 128;
    bool full = false;
    std::string dumpTrace;
    std::string what = "widths";

    // Sweep-grid flags.
    std::vector<std::string> kernelList;
    std::vector<std::string> implList;
    std::vector<int> bitsList;
    std::vector<std::string> coreList;
    std::vector<std::string> wsList;
    std::vector<std::string> faultList;
    bool faultsHelp = false;
    bool wider = false;
    int jobs = 1;
    bool jobsSet = false;
    std::string format = "table";
    std::string cacheDir;
    uint64_t cacheMaxBytes = 0;
    bool cacheMaxBytesSet = false;
    bool progress = false;
    std::string metricsOut;
};

/** Parse the argument vector; returns nullopt (after a message) on error. */
std::optional<Parsed>
parse(const std::vector<std::string> &args, std::ostream &err)
{
    Parsed p;
    if (args.empty()) {
        err << kUsage;
        return std::nullopt;
    }
    p.command = args[0];
    size_t i = 1;
    if ((p.command == "info" || p.command == "run" ||
         p.command == "compare" || p.command == "simulate")) {
        if (i >= args.size()) {
            err << "swan: '" << p.command << "' needs a "
                << (p.command == "simulate" ? "trace file" : "kernel name")
                << "\n";
            return std::nullopt;
        }
        p.kernel = args[i++];
    }
    // 'sweep' has two forms: the legacy per-kernel axis sweep
    // ("sweep ZL/adler32 --what cores") and the flag-only grid form.
    if (p.command == "sweep" && i < args.size() &&
        args[i].rfind("--", 0) != 0)
        p.kernel = args[i++];
    for (; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string * {
            if (i + 1 >= args.size()) {
                err << "swan: " << a << " needs a value\n";
                return nullptr;
            }
            return &args[++i];
        };
        if (a == "--full") {
            p.full = true;
        } else if (a == "--dump-trace") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.dumpTrace = *v;
        } else if (a == "--what") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            if (*v != "widths" && *v != "cores") {
                err << "swan: --what must be widths or cores\n";
                return std::nullopt;
            }
            p.what = *v;
        } else if (a == "--library") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.library = *v;
        } else if (a == "--impl") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            if (*v == "scalar")
                p.impl = core::Impl::Scalar;
            else if (*v == "auto")
                p.impl = core::Impl::Auto;
            else if (*v == "neon")
                p.impl = core::Impl::Neon;
            else {
                err << "swan: unknown --impl '" << *v << "'\n";
                return std::nullopt;
            }
        } else if (a == "--core") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            if (*v != "prime" && *v != "gold" && *v != "silver") {
                err << "swan: unknown --core '" << *v << "'\n";
                return std::nullopt;
            }
            p.coreName = *v;
        } else if (a == "--bits") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            // Single width for run/compare; a comma list is a sweep axis.
            for (const auto &tok : splitList(*v)) {
                uint64_t bits = 0;
                if (!sweep::parseByteCount(tok.c_str(), &bits) ||
                    (bits != 128 && bits != 256 && bits != 512 &&
                     bits != 1024)) {
                    err << "swan: --bits must be 128/256/512/1024\n";
                    return std::nullopt;
                }
                p.bitsList.push_back(int(bits));
            }
            if (p.bitsList.empty()) {
                err << "swan: --bits must be 128/256/512/1024\n";
                return std::nullopt;
            }
            p.bits = p.bitsList.front();
        } else if (a == "--kernels") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.kernelList = splitList(*v);
        } else if (a == "--impls") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.implList = splitList(*v);
        } else if (a == "--cores") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.coreList = splitList(*v);
        } else if (a == "--ws") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.wsList = splitList(*v);
        } else if (a == "--faults" || a == "--faults=help") {
            if (a == "--faults=help") {
                p.faultsHelp = true;
                continue;
            }
            const auto *v = value();
            if (!v)
                return std::nullopt;
            if (*v == "help") {
                p.faultsHelp = true;
                continue;
            }
            p.faultList = splitList(*v);
            // Validate here so a typo'd scenario prints the catalog
            // before any session or kernel work starts.
            for (const auto &spec : p.faultList) {
                sim::FaultSpec f;
                std::string ferr;
                if (!sim::FaultSpec::parse(spec, &f, &ferr)) {
                    err << "swan: " << ferr << "\n";
                    return std::nullopt;
                }
            }
        } else if (a == "--wider") {
            p.wider = true;
        } else if (a == "--jobs") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            uint64_t jobs = 0;
            if (!sweep::parseByteCount(v->c_str(), &jobs) ||
                jobs > uint64_t(INT_MAX)) {
                err << "swan: --jobs must be a number >= 0 "
                       "(0 = all cores)\n";
                return std::nullopt;
            }
            p.jobs = int(jobs);
            p.jobsSet = true;
        } else if (a == "--cache-max-bytes") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            if (!sweep::parseByteCount(v->c_str(), &p.cacheMaxBytes)) {
                err << "swan: --cache-max-bytes must be a byte count "
                       ">= 0\n";
                return std::nullopt;
            }
            p.cacheMaxBytesSet = true;
        } else if (a == "--format") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            sweep::Format f;
            if (!sweep::formatForName(*v, &f)) {
                err << "swan: --format must be table, csv or jsonl\n";
                return std::nullopt;
            }
            p.format = *v;
        } else if (a == "--cache-dir") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.cacheDir = *v;
        } else if (a == "--progress") {
            p.progress = true;
        } else if (a == "--metrics-out") {
            const auto *v = value();
            if (!v)
                return std::nullopt;
            p.metricsOut = *v;
        } else {
            err << "swan: unknown argument '" << a << "'\n";
            return std::nullopt;
        }
    }
    return p;
}

sim::CoreConfig
coreFor(const std::string &name)
{
    if (name == "gold")
        return sim::goldConfig();
    if (name == "silver")
        return sim::silverConfig();
    return sim::primeConfig();
}

/**
 * Session for every command that executes kernels — the single-point
 * run path, compare and both sweep forms. The SWAN_* environment
 * supplies the defaults, explicit flags override (explicit > env >
 * default); no command reads the environment directly.
 */
Session
sessionFor(const Parsed &p)
{
    SessionOptions opts = Session::envDefaults();
    if (p.jobsSet)
        opts.jobs = p.jobs == 0 ? -1 : p.jobs; // 0 = all cores
    if (!p.faultList.empty())
        opts.faults = p.faultList;
    if (!p.cacheDir.empty())
        opts.cacheDir = p.cacheDir;
    if (p.cacheMaxBytesSet)
        opts.cacheMaxBytes = p.cacheMaxBytes;
    if (!p.metricsOut.empty())
        opts.metricsOut = p.metricsOut;
    if (p.full)
        opts.workload = core::Options::full();
    return Session(std::move(opts));
}

std::string
patternList(uint32_t mask)
{
    using core::Pattern;
    std::string out;
    for (Pattern pat : {Pattern::Reduction, Pattern::RandomAccess,
                        Pattern::StridedAccess, Pattern::Transpose,
                        Pattern::VectorApi, Pattern::LoopDistribution}) {
        if (core::has(mask, pat)) {
            if (!out.empty())
                out += ", ";
            out += std::string(core::name(pat));
        }
    }
    return out.empty() ? "-" : out;
}

int
cmdList(const Parsed &p, std::ostream &out, std::ostream &err)
{
    const auto &reg = core::Registry::instance();
    core::Table t({"Kernel", "Library", "Domain", "Patterns", "Wider",
                   "Auto-vec"});
    int rows = 0;
    for (const auto &k : reg.kernels()) {
        if (!p.library.empty() && k.info.symbol != p.library)
            continue;
        t.addRow({k.info.qualifiedName(), k.info.library,
                  std::string(core::name(k.info.domain)),
                  patternList(k.info.patterns),
                  k.info.widerWidths ? "yes" : "-",
                  k.info.autovec.vectorizes ? "yes" : "no"});
        ++rows;
    }
    if (rows == 0) {
        err << "swan: no kernels for library '" << p.library << "'\n";
        return 2;
    }
    t.print(out);
    out << rows << " kernels\n";
    return 0;
}

/** " (reason, reason)" suffix for a failing auto-vectorization verdict. */
std::string
failReasonList(const autovec::Verdict &v)
{
    using autovec::Fail;
    if (v.vectorizes)
        return "";
    std::string out;
    for (Fail f : {Fail::Uncountable, Fail::IndirectMemory,
                   Fail::ComplexPhi, Fail::OtherLegality,
                   Fail::CostModel}) {
        if (autovec::has(v.failReasons, f)) {
            out += out.empty() ? " (" : ", ";
            out += std::string(autovec::name(f));
        }
    }
    return out.empty() ? "" : out + ")";
}

int
cmdInfo(const Parsed &p, std::ostream &out, std::ostream &err)
{
    const auto *spec = core::Registry::instance().find(p.kernel);
    if (!spec) {
        err << "swan: unknown kernel '" << p.kernel << "'\n";
        return 2;
    }
    const auto &info = spec->info;
    out << "kernel:    " << info.qualifiedName() << "\n"
        << "library:   " << info.library << " (" << info.symbol << ")\n"
        << "domain:    " << core::name(info.domain) << "\n"
        << "patterns:  " << patternList(info.patterns) << "\n"
        << "wider:     " << (info.widerWidths ? "128-1024 bit" : "128 bit")
        << "\n"
        << "auto-vec:  " << (info.autovec.vectorizes ? "vectorizes" : "fails")
        << failReasonList(info.autovec) << "\n"
        << "excluded:  " << (info.excluded ? "yes (study kernel)" : "no")
        << "\n";
    return 0;
}

/** The kernel run and compare measure at --bits, or nullptr once the
 *  usage error (an unknown kernel, or a width it has no code for) is
 *  printed. */
const core::KernelSpec *
kernelAtWidth(const Parsed &p, std::ostream &err)
{
    const auto *spec = core::Registry::instance().find(p.kernel);
    if (!spec) {
        err << "swan: unknown kernel '" << p.kernel << "'\n";
        return nullptr;
    }
    if (p.bits != 128 && !spec->info.widerWidths) {
        err << "swan: " << p.kernel
            << " has no wider-register implementation\n";
        return nullptr;
    }
    return spec;
}

int
cmdRun(const Parsed &p, std::ostream &out, std::ostream &err)
{
    const auto *spec = kernelAtWidth(p, err);
    if (!spec)
        return 2;
    // One capture, simulated here and dumped below: a dumped trace
    // replays to the cycle count reported here.
    const Session session = sessionFor(p);
    auto w = spec->make(session.options().workload);
    trace::MixStats mix;
    const auto packed =
        core::Runner::capturePacked(*w, p.impl, p.bits, &mix);
    const sim::SimResult s = sim::simulateTrace(
        packed, coreFor(p.coreName), session.options().warmupPasses);

    if (!p.dumpTrace.empty()) {
        std::string blob(kDumpMagic, sizeof kDumpMagic);
        packed.appendPayload(&blob);
        std::ofstream os(p.dumpTrace, std::ios::binary | std::ios::trunc);
        os.write(blob.data(), std::streamsize(blob.size()));
        os.close();
        if (!os) {
            err << "swan: cannot write " << p.dumpTrace << "\n";
            return 1;
        }
        out << "trace:         " << p.dumpTrace << " (" << packed.size()
            << " records)\n";
    }

    out << "kernel:        " << spec->info.qualifiedName() << " ["
        << core::name(p.impl) << ", " << p.coreName << ", " << p.bits
        << "-bit]\n";
    out << "instructions:  " << mix.total() << "\n"
        << "cycles:        " << s.cycles << "\n"
        << "IPC:           " << core::fmt(s.ipc, 2) << "\n"
        << "time:          " << core::fmt(s.timeSec * 1e6, 1) << " us\n"
        << "L1D MPKI:      " << core::fmt(s.l1Mpki, 1) << "\n"
        << "L2 MPKI:       " << core::fmt(s.l2Mpki, 1) << "\n"
        << "LLC MPKI:      " << core::fmt(s.llcMpki, 1) << "\n"
        << "FE stalls:     " << core::fmtPct(s.feStallPct) << "\n"
        << "BE stalls:     " << core::fmtPct(s.beStallPct) << "\n"
        << "power:         " << core::fmt(s.powerW, 2) << " W\n"
        << "energy:        " << core::fmt(s.energyJ * 1e3, 3) << " mJ\n";
    return 0;
}

/** Execute an experiment; shared by compare and both sweep forms. With
 *  --progress, stream one stderr line per finished row (deterministic
 *  point order, Experiment::onRow) tagged with the row's origin. A
 *  diagnostic that comes with rows (a metrics file that could not be
 *  written) is a warning: the rows are valid, so the exit code stays
 *  0. */
Results
runEngine(Experiment &experiment, bool progress, std::ostream &err,
          std::string *engineErr)
{
    if (progress)
        experiment.onRow([&err](const sweep::SweepResult &r,
                                const sweep::RowOrigin &o) {
            err << "swan: [" << o.done << "/" << o.total << "] "
                << r.point.spec->info.qualifiedName() << " "
                << core::name(r.point.impl) << " " << r.point.vecBits
                << "-bit " << r.point.configName << " "
                << r.point.workingSetName << " <- " << sweep::describe(o)
                << "\n";
        });
    Results results = experiment.run(engineErr);
    if (results.empty())
        return results;
    err << "swan: " << results.cacheSummary() << "\n";
    if (!engineErr->empty())
        err << "swan: warning: " << *engineErr << "\n";
    return results;
}

int
cmdCompare(const Parsed &p, std::ostream &out, std::ostream &err)
{
    const auto *spec = kernelAtWidth(p, err);
    if (!spec)
        return 2;
    // A comparison is of clean runs: --faults shapes sweeps only.
    Parsed clean = p;
    clean.faultList.clear();
    Session session = sessionFor(clean);
    const std::string qn = spec->info.qualifiedName();
    Experiment experiment(session);
    experiment.kernel(qn)
        .impls({core::Impl::Scalar, core::Impl::Auto, core::Impl::Neon})
        .vecBits({p.bits})
        .config(p.coreName)
        .workingSet(p.full ? "full" : "default");
    std::string gerr;
    const Results results = runEngine(experiment, p.progress, err, &gerr);
    if (results.empty()) {
        err << "swan: " << gerr << "\n";
        return 2;
    }
    const auto &scalar = results.find(qn, core::Impl::Scalar, 128)->run;
    const auto &neon = results.find(qn, core::Impl::Neon, p.bits)->run;

    // The paper's correctness check, untraced (full host speed).
    auto w = spec->make(session.options().workload);
    w->runScalar();
    w->runAuto();
    w->runNeon(p.bits);
    const bool verified = w->verify();

    core::Table t({"Impl", "Instructions", "Cycles", "IPC", "Speedup",
                   "Energy impr."});
    for (const auto &r : results) {
        const core::KernelRun &k = r.run;
        t.addRow({std::string(core::name(r.point.impl)),
                  std::to_string(k.mix.total()),
                  std::to_string(k.sim.cycles), core::fmt(k.sim.ipc, 2),
                  core::fmtX(double(scalar.sim.cycles) /
                             double(k.sim.cycles)),
                  core::fmtX(scalar.sim.energyJ / k.sim.energyJ)});
    }
    t.print(out);
    out << "instruction reduction (Scalar/Neon): "
        << core::fmtX(double(scalar.mix.total()) /
                      double(neon.mix.total()))
        << "\n"
        << "outputs verified: " << (verified ? "yes" : "NO") << "\n";
    return verified ? 0 : 1;
}

/** Legacy per-kernel axis sweep: widths (Fig. 5a) or cores (Fig. 4). */
int
cmdSweepKernel(const Parsed &p, std::ostream &out, std::ostream &err)
{
    const auto *spec = core::Registry::instance().find(p.kernel);
    if (!spec) {
        err << "swan: unknown kernel '" << p.kernel << "'\n";
        return 2;
    }
    const std::string ws = p.full ? "full" : "default";
    const std::string qn = spec->info.qualifiedName();

    if (p.what == "widths") {
        if (!spec->info.widerWidths) {
            err << "swan: " << p.kernel
                << " has no wider-register implementation (the eight "
                   "Figure-5 kernels do)\n";
            return 2;
        }
        Session session = sessionFor(p);
        std::string gerr;
        auto results =
            runEngine(Experiment(session)
                          .kernel(p.kernel)
                          .impls({core::Impl::Scalar, core::Impl::Neon})
                          .vecBits({128, 256, 512, 1024})
                          .config("wider")
                          .workingSet(ws),
                      p.progress, err, &gerr);
        if (results.empty()) {
            err << "swan: " << gerr << "\n";
            return 2;
        }
        // Scalar code has no width axis: one baseline point at 128.
        const auto *scalar = results.find(qn, core::Impl::Scalar, 128);
        const auto *base = results.find(qn, core::Impl::Neon, 128);
        core::Table t({"Width", "Cycles", "Speedup vs Scalar",
                       "Speedup vs 128-bit"});
        for (int bits : {128, 256, 512, 1024}) {
            const auto *r = results.find(qn, core::Impl::Neon, bits);
            t.addRow({std::to_string(bits),
                      std::to_string(r->run.sim.cycles),
                      core::fmtX(double(scalar->run.sim.cycles) /
                                 double(r->run.sim.cycles)),
                      core::fmtX(double(base->run.sim.cycles) /
                                 double(r->run.sim.cycles))});
        }
        t.print(out);
        return 0;
    }

    Session session = sessionFor(p);
    std::string gerr;
    auto results =
        runEngine(Experiment(session)
                      .kernel(p.kernel)
                      .impls({core::Impl::Scalar, core::Impl::Neon})
                      .vecBits({128})
                      .configs({"silver", "gold", "prime"})
                      .workingSet(ws),
                  p.progress, err, &gerr);
    if (results.empty()) {
        err << "swan: " << gerr << "\n";
        return 2;
    }
    core::Table t({"Core", "Scalar cycles", "Neon cycles",
                   "Neon speedup", "Energy impr."});
    for (const char *nm : {"silver", "gold", "prime"}) {
        const auto *s = results.find(qn, core::Impl::Scalar, 128, nm);
        const auto *n = results.find(qn, core::Impl::Neon, 128, nm);
        t.addRow({nm, std::to_string(s->run.sim.cycles),
                  std::to_string(n->run.sim.cycles),
                  core::fmtX(double(s->run.sim.cycles) /
                             double(n->run.sim.cycles)),
                  core::fmtX(s->run.sim.energyJ / n->run.sim.energyJ)});
    }
    t.print(out);
    return 0;
}

/** Flag-only grid form: fluent Experiment, parallel engine, emitters. */
int
cmdSweepGrid(const Parsed &p, std::ostream &out, std::ostream &err)
{
    Session session = sessionFor(p);
    Experiment experiment(session);
    experiment.kernels(p.kernelList)
        .library(p.library)
        .widerOnly(p.wider);
    if (!p.implList.empty()) {
        std::vector<core::Impl> impls;
        for (const auto &name : p.implList) {
            if (name == "scalar")
                impls.push_back(core::Impl::Scalar);
            else if (name == "auto")
                impls.push_back(core::Impl::Auto);
            else if (name == "neon")
                impls.push_back(core::Impl::Neon);
            else {
                err << "swan: unknown --impls entry '" << name << "'\n";
                return 2;
            }
        }
        experiment.impls(std::move(impls));
    }
    if (!p.bitsList.empty())
        experiment.vecBits(p.bitsList);
    if (!p.coreList.empty())
        experiment.configs(p.coreList);
    if (!p.wsList.empty())
        experiment.workingSets(p.wsList);
    else if (p.full)
        experiment.workingSet("full");

    std::string gerr;
    auto results = runEngine(experiment, p.progress, err, &gerr);
    if (results.empty()) {
        err << "swan: " << gerr << "\n";
        return 2;
    }
    sweep::Format fmt = sweep::Format::Table;
    sweep::formatForName(p.format, &fmt); // validated at parse time
    results.emit(out, fmt);
    return 0;
}

int
cmdSweep(const Parsed &p, std::ostream &out, std::ostream &err)
{
    if (p.faultsHelp) {
        out << sim::FaultSpec::catalog();
        return 0;
    }
    if (!p.kernel.empty())
        return cmdSweepKernel(p, out, err);
    return cmdSweepGrid(p, out, err);
}

int
cmdSimulate(const Parsed &p, std::ostream &out, std::ostream &err)
{
    const std::string &path = p.kernel;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        err << "swan: cannot open " << path << "\n";
        return 2;
    }
    const std::string blob((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    if (blob.size() < sizeof kDumpMagic ||
        std::memcmp(blob.data(), kDumpMagic, sizeof kDumpMagic) != 0) {
        err << "swan: " << path
            << ": not a trace dump (bad magic; write one with "
               "'swan run --dump-trace')\n";
        return 2;
    }
    trace::PackedTrace packed;
    std::string why;
    if (!trace::PackedTrace::parsePayload(
            reinterpret_cast<const uint8_t *>(blob.data()) +
                sizeof kDumpMagic,
            blob.size() - sizeof kDumpMagic, &packed, &why)) {
        err << "swan: " << path << ": " << why << "\n";
        return 2;
    }
    sim::SimResult r; // power-complete (fused)
    try {
        r = sim::simulateTrace(packed, coreFor(p.coreName));
    } catch (const std::runtime_error &) {
        err << "swan: " << path
            << ": malformed trace stream (checked decode failed)\n";
        return 2;
    }
    // The mix reads only shape fields: count the decoded records per
    // descriptor, then fold each descriptor's shape in once.
    std::vector<uint64_t> uses(packed.descCount());
    trace::PackedTrace::Cursor cur(packed);
    std::vector<trace::PackedTrace::Decoded> batch(
        trace::PackedTrace::kBlockInstrs);
    while (const size_t n = cur.nextBatch(batch.data(), batch.size()))
        for (size_t k = 0; k < n; ++k)
            ++uses[batch[k].desc];
    trace::MixStats mix;
    trace::Instr shape;
    for (uint32_t d = 0; d < packed.descCount(); ++d) {
        packed.expandDesc(d, &shape);
        mix.add(shape, uses[d]);
    }

    out << "trace:         " << path << " (" << packed.size()
        << " records, " << mix.vectorInstrs() << " vector)\n"
        << "core:          " << p.coreName << "\n"
        << "cycles:        " << r.cycles << "\n"
        << "IPC:           " << core::fmt(r.ipc, 2) << "\n"
        << "time:          " << core::fmt(r.timeSec * 1e6, 1) << " us\n"
        << "L1D MPKI:      " << core::fmt(r.l1Mpki, 1) << "\n"
        << "LLC MPKI:      " << core::fmt(r.llcMpki, 1) << "\n"
        << "power:         " << core::fmt(r.powerW, 2) << " W\n"
        << "energy:        " << core::fmt(r.energyJ * 1e3, 3) << " mJ\n";
    return 0;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    auto p = parse(args, err);
    if (!p)
        return 2;
    if (p->command == "help" || p->command == "--help") {
        out << kUsage;
        return 0;
    }
    if (p->command == "version" || p->command == "--version" ||
        p->command == "-V") {
        out << "swan " << versionString() << "\n";
        return 0;
    }
    if (p->command == "list")
        return cmdList(*p, out, err);
    if (p->command == "info")
        return cmdInfo(*p, out, err);
    if (p->command == "run")
        return cmdRun(*p, out, err);
    if (p->command == "compare")
        return cmdCompare(*p, out, err);
    if (p->command == "simulate")
        return cmdSimulate(*p, out, err);
    if (p->command == "sweep")
        return cmdSweep(*p, out, err);
    err << "swan: unknown command '" << p->command << "'\n" << kUsage;
    return 2;
}

} // namespace swan::tools
