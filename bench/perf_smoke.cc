/**
 * @file
 * Replay-pipeline perf smoke: measures simulated instructions per
 * second through the fused replay engine (sim::replay) the sweeps
 * spend their wall-clock in, and writes two machine-readable result
 * files so the perf trajectory is tracked run over run.
 *
 * BENCH_trace_replay.json (argv[1] overrides the path) — the packed
 * encoding: its bytes/instr against the 64-byte AoS record (>= 2x
 * memory reduction is a hard failure), the encoder's throughput
 * (pack_minstr_per_s, report-only: PackedTrace::pack of the
 * kernel-capture mix, median of kTrials), and replay throughput of
 * that mix over three core configurations, as three single-config
 * replays (multi_nx) and as one fused pass (multi_1pass).
 *
 * BENCH_sim_replay.json (argv[2] overrides the path) — what fusion
 * buys: one decode and one cache walk per hierarchy shared by N
 * configurations. Each gate is the CPU-time ratio of N separate
 * single-config replays (simulateTrace per configuration) over one
 * fused N-config replay (simulateTraceMany) of the same packed trace,
 * the median of kTrials interleaved trials (bench::Ratio). Three are
 * gated:
 *
 *   capture_mix_n3   the capture mix at N=3 (prime, gold, silver),
 *   capture_mix_n4   the same plus the 512-bit prime (half a lane
 *                    block, four lanes of one step-cost class),
 *   saturation_n3    a synthetic corpus that holds the ROB at capacity
 *                    behind DRAM-missing loads while ready bursts
 *                    oversubscribe the vector FU pool (full per-cycle
 *                    issue tables), at N=3.
 *
 * A fourth, report-only row replays a full-working-set capture (WA/vmul
 * Neon at the paper's input size) across the nine Figure 4 / 5(b)
 * core configurations, the regime of a fanout_full sweep unit: nine
 * models' host state competes for the host caches, so the model's own
 * memory footprint shows, which the cache-resident corpora hide.
 *
 * The ratios are measured inside one process, so they travel between
 * hosts better than absolute throughput does. Every host runs the
 * same decode and issue-slot code, so a shift between two runs' files
 * comes from the code or the host's speed. The gates are
 * report-only by default (CI machines are noisy); an optimized build
 * run with SWAN_PERF_ENFORCE=1 — which bench/run_all.sh sets — turns
 * them into hard failures. A fused result that differs from the
 * separate replays is always a hard failure.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_common.hh"
#include "swan/trace.hh"

using namespace swan;
using bench::fmtJson;

namespace
{

/** Interleaved trials per gated ratio: single trials ranged from 0.99x
 *  to 2.14x on a shared 4-vCPU VM, where medians of 11 stayed within
 *  0.15x of each other. */
constexpr int kTrials = 11;

/**
 * Synthetic saturation corpus (full-ROB / full-FU regime). Every 32nd
 * instruction is a vector load striding a fresh page (misses every
 * cache level, streams from DRAM); the 31 vector ops behind it all
 * depend on that outstanding miss, so the window fills while the load
 * is in flight and, the cycle it completes, a 31-op ready burst slams
 * the (2-3 unit) vector pool — per-cycle issue tables run full for
 * long stretches. This is where the issue-slot search scans furthest
 * from the cycle an op is ready; the capture-mix corpus barely
 * touches it.
 */
std::vector<trace::Instr>
buildSaturationTrace(size_t n)
{
    std::vector<trace::Instr> t;
    t.reserve(n);
    uint64_t id = 0;
    uint64_t lastLoad = 0;
    constexpr uint64_t kBase = 0x4000'0000;
    while (t.size() < n) {
        trace::Instr ld;
        ld.id = ++id;
        ld.cls = trace::InstrClass::VLoad;
        ld.fu = trace::Fu::Load;
        ld.latency = 4;
        ld.addr = kBase + uint64_t(t.size()) * 4096;
        ld.size = 16;
        ld.vecBytes = 16;
        ld.lanes = 4;
        ld.activeLanes = 4;
        ld.dep0 = lastLoad;
        lastLoad = ld.id;
        t.push_back(ld);
        for (int k = 0; k < 31 && t.size() < n; ++k) {
            trace::Instr v;
            v.id = ++id;
            v.cls = trace::InstrClass::VInt;
            v.fu = trace::Fu::VUnit;
            v.latency = 2;
            v.vecBytes = 16;
            v.lanes = 4;
            v.activeLanes = 4;
            v.dep0 = lastLoad;
            t.push_back(v);
        }
    }
    return t;
}

/** Each configuration replayed alone: the baseline fusion must beat. */
void
replaySeparately(const trace::PackedTrace &packed,
                 const std::vector<sim::CoreConfig> &cfgs)
{
    for (const auto &c : cfgs)
        sim::simulateTrace(packed, c, 1);
}

/** Whether the fused replay of @p cfgs matches replaying each alone. */
bool
fusedMatchesSeparate(const trace::PackedTrace &packed,
                     const std::vector<sim::CoreConfig> &cfgs)
{
    const auto fused = sim::simulateTraceMany(packed, cfgs, 1);
    for (size_t i = 0; i < cfgs.size(); ++i)
        if (!bench::sameSim(fused[i], sim::simulateTrace(packed, cfgs[i], 1)))
            return false;
    return true;
}

/** One gated ratio: N separate replays over one fused N-config one. */
struct Gate
{
    const char *name;
    const trace::PackedTrace *trace;
    const std::vector<sim::CoreConfig> *cfgs;
    double threshold;
    bench::Ratio ratio;

    Gate(const char *n, const trace::PackedTrace &t,
         const std::vector<sim::CoreConfig> &c, double thr)
        : name(n), trace(&t), cfgs(&c), threshold(thr),
          ratio([&] { replaySeparately(t, c); },
                [&] { sim::simulateTraceMany(t, c, 1); }, kTrials)
    {
    }

    /** Simulated instruction steps per second of arm @p seconds
     *  (stepped warm-up plus measured pass, every configuration). */
    double
    ips(double seconds) const
    {
        return bench::replaySteps(trace->size(), cfgs->size()) / seconds;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string traceJsonPath =
        argc > 1 ? argv[1] : "BENCH_trace_replay.json";
    const std::string simJsonPath =
        argc > 2 ? argv[2] : "BENCH_sim_replay.json";

    // A realistic mixed trace: compression + memcpy kernels, Neon and
    // Scalar, concatenated — memory ops, vector ops and long
    // dependency chains, like the sweeps replay all day. The capture
    // is tiled until its AoS form would exceed any plausible LLC
    // (replay-speed claims are about paper-scale traces that stream
    // from DRAM, not toy traces that sit in cache; SWAN_PERF_SMOKE_MB
    // overrides the target size). Tiles restart ids at 1, which the
    // fused engine must handle mid-stream.
    std::vector<trace::Instr> seed;
    for (const char *name : {"ZL/adler32", "ZL/crc32", "OR/memcpy"}) {
        const auto *spec = core::Registry::instance().find(name);
        if (!spec) {
            std::cerr << "perf_smoke: unknown kernel " << name << "\n";
            return 1;
        }
        for (auto impl : {core::Impl::Scalar, core::Impl::Neon}) {
            auto w = spec->make(core::Options::fromEnv());
            auto t = core::Runner::capture(*w, impl, 128);
            seed.insert(seed.end(), t.begin(), t.end());
        }
    }
    size_t targetMb = 192;
    if (const char *v = std::getenv("SWAN_PERF_SMOKE_MB"))
        if (std::atoi(v) > 0)
            targetMb = size_t(std::atoi(v));
    const size_t targetInstrs =
        targetMb * (size_t(1) << 20) / sizeof(trace::Instr);
    const size_t tiles = std::max<size_t>(targetInstrs / seed.size(), 1);
    std::vector<trace::Instr> tiled;
    tiled.reserve(tiles * seed.size());
    for (size_t k = 0; k < tiles; ++k)
        tiled.insert(tiled.end(), seed.begin(), seed.end());
    trace::PackedTrace packed;
    std::vector<double> packTimes;
    for (int k = 0; k < kTrials; ++k)
        packTimes.push_back(bench::cpuSecondsOnce(
            [&] { packed = trace::PackedTrace::pack(tiled); }));
    const size_t n = packed.size();
    const double packIps = double(n) / bench::median(packTimes);
    std::vector<trace::Instr>().swap(tiled); // replay runs without it

    const std::vector<sim::CoreConfig> cfgs = {
        sim::primeConfig(), sim::goldConfig(), sim::silverConfig()};
    // The fourth lane is the paper's Figure-5a wide-vector core —
    // prime's pipeline with 512-bit registers — keeping all four lanes
    // in one step-cost class, so the gate measures how the shared
    // decode and cache walk amortize with lane count.
    const std::vector<sim::CoreConfig> cfgs4 = {
        sim::primeConfig(), sim::goldConfig(), sim::silverConfig(),
        sim::widerVectorConfig(512)};
    // Saturation corpus at a quarter of the capture-mix length:
    // saturated simulation costs several host ops per stalled cycle.
    const auto satPacked = trace::PackedTrace::pack(
        buildSaturationTrace(std::max<size_t>(n / 4, 1u << 16)));

    // Host-memory corpus: one full-working-set capture over the nine
    // Figure 4 / 5(b) configurations, as a fanout_full unit replays it.
    const auto *vmul = core::Registry::instance().find("WA/vmul");
    if (!vmul) {
        std::cerr << "perf_smoke: unknown kernel WA/vmul\n";
        return 1;
    }
    auto vmulWork = vmul->make(core::Options::full());
    const auto fullPacked = core::Runner::capturePacked(
        *vmulWork, core::Impl::Neon, 128, nullptr);
    const std::vector<sim::CoreConfig> cfgs9 = {
        sim::primeConfig(),           sim::goldConfig(),
        sim::silverConfig(),          sim::scalabilityConfig(4, 2),
        sim::scalabilityConfig(4, 4), sim::scalabilityConfig(4, 6),
        sim::scalabilityConfig(6, 6), sim::scalabilityConfig(4, 8),
        sim::scalabilityConfig(8, 8)};

    // Byte identity first: every fused lane must equal its
    // configuration replayed alone.
    if (!fusedMatchesSeparate(packed, cfgs) ||
        !fusedMatchesSeparate(packed, cfgs4) ||
        !fusedMatchesSeparate(satPacked, cfgs) ||
        !fusedMatchesSeparate(fullPacked, cfgs9)) {
        std::cerr << "perf_smoke: fused and separate replays diverged\n";
        return 1;
    }

    // Thresholds sit below the lowest median of six runs on a 4-vCPU
    // x86-64 VM when the gates were set: medians ranged 1.33-1.43 at
    // N=3, 1.46-1.61 at N=4 and 1.33-1.41 on the saturation corpus.
    const Gate gates[] = {
        {"capture_mix_n3", packed, cfgs, 1.25},
        {"capture_mix_n4", packed, cfgs4, 1.25},
        {"saturation_n3", satPacked, cfgs, 1.2},
    };
    const Gate &mix3 = gates[0];

    std::vector<double> fullTimes;
    for (int k = 0; k < 3; ++k)
        fullTimes.push_back(bench::cpuSecondsOnce(
            [&] { sim::simulateTraceMany(fullPacked, cfgs9, 1); }));
    const double ipsFull9 = bench::replaySteps(fullPacked.size(),
                                               cfgs9.size()) /
                            bench::median(fullTimes);

    const double aosBytes = double(trace::PackedTrace::aosBytes(n));
    const double packedBytes = double(packed.byteSize());
    const double memReduction = aosBytes / packedBytes;

    core::banner(std::cout, "Trace replay perf smoke");
    std::cout << "trace: " << n << " instrs; " << aosBytes / double(n)
              << " B/instr AoS vs " << core::fmt(packedBytes / double(n), 2)
              << " B/instr packed (" << core::fmtX(memReduction, 1)
              << " smaller); pack " << core::fmt(packIps / 1e6, 1)
              << " Minstr/s\n";

    core::banner(std::cout, "Fused replay over separate single-config "
                            "replays (median of interleaved trials)");
    core::Table t({"corpus", "configs", "separate Minstr/s",
                   "fused Minstr/s", "ratio", "min-max", "gate"});
    for (const Gate &g : gates)
        t.addRow({g.name, std::to_string(g.cfgs->size()),
                  core::fmt(g.ips(g.ratio.aSeconds) / 1e6, 1),
                  core::fmt(g.ips(g.ratio.bSeconds) / 1e6, 1),
                  core::fmtX(g.ratio.median, 2),
                  core::fmt(g.ratio.min, 2) + "-" +
                      core::fmt(g.ratio.max, 2),
                  core::fmtX(g.threshold, 2)});
    t.print(std::cout);
    std::cout << "full working set (WA/vmul Neon, " << fullPacked.size()
              << " instrs) over the " << cfgs9.size()
              << " Figure 4/5(b) cores: fused "
              << core::fmt(ipsFull9 / 1e6, 1) << " Minstr/s ("
              << core::fmt(1e9 / ipsFull9, 1)
              << " ns per configuration step)\n";

    {
        std::ofstream os(traceJsonPath, std::ios::trunc);
        os << "{\n"
           << "  \"bench\": \"trace_replay\",\n"
           << "  \"n_instrs\": " << n << ",\n"
           << "  \"aos_bytes_per_instr\": " << fmtJson(aosBytes / double(n))
           << ",\n"
           << "  \"packed_bytes_per_instr\": "
           << fmtJson(packedBytes / double(n)) << ",\n"
           << "  \"mem_reduction_x\": " << fmtJson(memReduction) << ",\n"
           << "  \"pack_minstr_per_s\": " << fmtJson(packIps / 1e6) << ",\n"
           << "  \"multi_nx_instrs_per_sec\": "
           << fmtJson(mix3.ips(mix3.ratio.aSeconds)) << ",\n"
           << "  \"multi_1pass_instrs_per_sec\": "
           << fmtJson(mix3.ips(mix3.ratio.bSeconds)) << ",\n"
           << "  \"speedup_1pass_vs_nx\": " << fmtJson(mix3.ratio.median)
           << ",\n"
           << "  \"byte_identical\": true\n"
           << "}\n";
        if (!os) {
            std::cerr << "perf_smoke: cannot write " << traceJsonPath
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << traceJsonPath << "\n";
    }

#ifdef NDEBUG
    const char *enf = std::getenv("SWAN_PERF_ENFORCE");
    const bool gateEnforced = enf && enf[0] == '1';
#else
    const bool gateEnforced = false;
#endif
    {
        std::ofstream os(simJsonPath, std::ios::trunc);
        os << "{\n"
           << "  \"bench\": \"sim_replay\",\n"
           << "  \"gate_metric\": \"CPU time of N single-config replays "
              "(simulateTrace per config) over one fused N-config replay "
              "(simulateTraceMany) of the same packed trace; median of "
           << kTrials
           << " trials, alternating which arm runs first\",\n"
           << "  \"gate_basis\": \"thresholds sit below the lowest "
              "median of six runs on a 4-vCPU x86-64 VM when the gates "
              "were set: 1.33-1.43 at N=3, 1.46-1.61 at N=4, 1.33-1.41 "
              "on the saturation corpus, with single trials from 0.99 "
              "to 2.14; a ratio measured in one process depends less "
              "on the host than absolute throughput does\",\n"
           << "  \"gates\": [\n";
        for (size_t k = 0; k < std::size(gates); ++k) {
            const Gate &g = gates[k];
            os << "    {\"name\": \"" << g.name << "\", \"n_instrs\": "
               << g.trace->size() << ", \"n_configs\": " << g.cfgs->size()
               << ",\n     \"separate_instrs_per_sec\": "
               << fmtJson(g.ips(g.ratio.aSeconds))
               << ", \"fused_instrs_per_sec\": "
               << fmtJson(g.ips(g.ratio.bSeconds))
               << ",\n     \"ratio\": " << g.ratio.json()
               << ",\n     \"threshold\": " << fmtJson(g.threshold) << "}"
               << (k + 1 < std::size(gates) ? "," : "") << "\n";
        }
        os << "  ],\n"
           << "  \"fullws_n_instrs\": " << fullPacked.size() << ",\n"
           << "  \"fullws_n_configs\": " << cfgs9.size() << ",\n"
           << "  \"fullws_fused_9_instrs_per_sec\": " << fmtJson(ipsFull9)
           << ",\n"
           << "  \"gate_enforced\": " << (gateEnforced ? "true" : "false")
           << ",\n"
           << "  \"byte_identical\": true\n"
           << "}\n";
        if (!os) {
            std::cerr << "perf_smoke: cannot write " << simJsonPath
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << simJsonPath << "\n";
    }

    // Hard acceptance bars: the >= 2x packed memory reduction always;
    // the fusion gates when enforcement is on.
    if (memReduction < 2.0) {
        std::cerr << "perf_smoke: packed encoding only " << memReduction
                  << "x smaller (< 2x)\n";
        return 1;
    }
    int failed = 0;
    for (const Gate &g : gates) {
        if (g.ratio.median >= g.threshold)
            continue;
        std::cerr << "perf_smoke: " << g.name << ": fused replay only "
                  << core::fmtX(g.ratio.median, 3)
                  << " over separate replays (< " << g.threshold << "x)"
                  << (gateEnforced ? "" : " (report-only)") << "\n";
        failed += gateEnforced;
    }
    return failed ? 1 : 0;
}
