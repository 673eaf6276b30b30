/**
 * @file
 * Observability overhead smoke: the swan::obs contract is that
 * telemetry costs one relaxed atomic load per span site when no
 * collector is attached, and call-granularity recording (two clock
 * reads + one slot write per phase span, never a per-instruction
 * cost) when one is. This bench holds the fused replay engine —
 * the path the sweeps spend their wall-clock in — to that contract.
 * It times simulateTraceMany over the perf_smoke capture mix with
 * metrics on (a live span registry) and off, as the thread-CPU-time
 * ratio of the two arms in kTrials interleaved trials (bench::Ratio).
 * One final pass under a Collector then writes the real run report
 * and Chrome trace and must reproduce the metrics-off SimResults. It
 * writes BENCH_sweep_obs.json (argv[1] overrides the path; the
 * collector's files land next to it as <stem>.report.json /
 * <stem>.trace.jsonl) with every trial, the median, min, max and the
 * gate.
 *
 * The gate: the median metrics-on/off ratio <= 1.02. Like the
 * perf_smoke gates it is report-only by default and becomes a hard
 * failure in an optimized build run with SWAN_PERF_ENFORCE=1 (which
 * bench/run_all.sh sets). Result divergence is always a hard failure.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "swan/obs.hh"
#include "swan/trace.hh"

using namespace swan;
using bench::fmtJson;

namespace
{

/** Interleaved trials per run: on a shared 4-vCPU VM single trials
 *  ranged from 0.69 to 1.65, while medians of 11 read 0.993-1.002
 *  over five runs on a quiet host and 0.93-0.99 on a busy one
 *  (perf_smoke's gates read the same statistic). */
constexpr int kTrials = 11;

/** Records the metrics-on arm's registry holds: one Replay span per
 *  simulateTraceMany call, with room to spare. */
constexpr size_t kArmSpans = 64;

constexpr double kOverheadGate = 1.02;

} // namespace

int
main(int argc, char **argv)
{
    const std::string jsonPath =
        argc > 1 ? argv[1] : "BENCH_sweep_obs.json";
    std::string stem = jsonPath;
    if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5)
        stem.resize(stem.size() - 5);

    // The perf_smoke capture mix (compression + memcpy, Neon and
    // Scalar), tiled to a DRAM-resident size so the timed region is
    // the real streaming-replay regime. Smaller default than
    // perf_smoke: an overhead *ratio* converges faster than absolute
    // throughput (SWAN_OBS_SMOKE_MB overrides).
    std::vector<trace::Instr> instrs;
    for (const char *name : {"ZL/adler32", "ZL/crc32", "OR/memcpy"}) {
        const auto *spec = core::Registry::instance().find(name);
        if (!spec) {
            std::cerr << "obs_overhead: unknown kernel " << name << "\n";
            return 1;
        }
        for (auto impl : {core::Impl::Scalar, core::Impl::Neon}) {
            auto w = spec->make(core::Options::fromEnv());
            auto t = core::Runner::capture(*w, impl, 128);
            instrs.insert(instrs.end(), t.begin(), t.end());
        }
    }
    size_t targetMb = 96;
    if (const char *v = std::getenv("SWAN_OBS_SMOKE_MB"))
        if (std::atoi(v) > 0)
            targetMb = size_t(std::atoi(v));
    const size_t targetInstrs =
        targetMb * (size_t(1) << 20) / sizeof(trace::Instr);
    const std::vector<trace::Instr> seed = instrs;
    instrs.reserve(std::max(targetInstrs, seed.size()));
    while (instrs.size() + seed.size() <= targetInstrs)
        instrs.insert(instrs.end(), seed.begin(), seed.end());
    const size_t n = instrs.size();
    const auto packed = trace::PackedTrace::pack(instrs);

    const std::vector<sim::CoreConfig> cfgs = {
        sim::primeConfig(), sim::goldConfig(), sim::silverConfig()};
    // Each call steps every config through the measured pass and the
    // stepped tail of its one warm-up pass.
    const double passInstrs = bench::replaySteps(n, cfgs.size());

    // Metrics off: the span sites must compile down to one relaxed
    // load + untaken branch each. Metrics on: each trial's arm starts
    // a small registry, replays under it and releases it, so the two
    // arms interleave and every fused traversal records its Replay
    // span.
    const auto refOff = sim::simulateTraceMany(packed, cfgs, 1);
    bool registryOk = true;
    const bench::Ratio ratio(
        [&] {
            registryOk &= obs::Telemetry::start(kArmSpans);
            sim::simulateTraceMany(packed, cfgs, 1);
            obs::Telemetry::stop();
            obs::Telemetry::release();
        },
        [&] { sim::simulateTraceMany(packed, cfgs, 1); }, kTrials);

    // One final pass under a collector that writes both files.
    obs::Collector collector;
    if (!registryOk || !collector.start()) {
        std::cerr << "obs_overhead: telemetry registry unavailable\n";
        return 1;
    }
    const auto refOn = sim::simulateTraceMany(packed, cfgs, 1);
    std::string merr;
    if (!collector.finish(stem, sweep::CacheStats{}, &merr)) {
        std::cerr << "obs_overhead: " << merr << "\n";
        return 1;
    }

    for (size_t i = 0; i < cfgs.size(); ++i) {
        if (!bench::sameSim(refOff[i], refOn[i])) {
            std::cerr << "obs_overhead: metrics-on replay diverged "
                         "from metrics-off\n";
            return 1;
        }
    }

    const double ipsOff = passInstrs / ratio.bSeconds;
    const double ipsOn = passInstrs / ratio.aSeconds;

    core::banner(std::cout, "Observability overhead smoke");
    core::Table t({"leg", "Minstr/s", "vs metrics off"});
    t.addRow({"metrics off", core::fmt(ipsOff / 1e6, 1),
              core::fmtX(1.0, 2)});
    t.addRow({"metrics on", core::fmt(ipsOn / 1e6, 1),
              core::fmtX(ipsOff / ipsOn, 2)});
    t.print(std::cout);
    std::cout << "trace: " << n << " instrs x " << cfgs.size()
              << " configs; metrics-on/off CPU ratio, median of "
              << kTrials << " trials " << core::fmt(ratio.median, 4)
              << " (min " << core::fmt(ratio.min, 4) << ", max "
              << core::fmt(ratio.max, 4) << "; gate <= "
              << kOverheadGate << ")\n";

#ifdef NDEBUG
    const char *enf = std::getenv("SWAN_PERF_ENFORCE");
    const bool gateEnforced = enf && enf[0] == '1';
#else
    const bool gateEnforced = false;
#endif
    {
        std::ofstream os(jsonPath, std::ios::trunc);
        os << "{\n"
           << "  \"bench\": \"sweep_obs\",\n"
           << "  \"gate_metric\": \"thread CPU time of one "
              "simulateTraceMany call (warm-up + measured pass) with a "
              "live span registry over one without; median of "
           << kTrials
           << " trials, alternating which arm runs first\",\n"
           << "  \"n_instrs\": " << n << ",\n"
           << "  \"n_configs\": " << cfgs.size() << ",\n"
           << "  \"metrics_off_instrs_per_sec\": " << fmtJson(ipsOff)
           << ",\n"
           << "  \"metrics_on_instrs_per_sec\": " << fmtJson(ipsOn)
           << ",\n"
           << "  \"overhead_ratio\": " << ratio.json() << ",\n"
           << "  \"overhead_gate\": " << fmtJson(kOverheadGate) << ",\n"
           << "  \"gate_enforced\": " << (gateEnforced ? "true" : "false")
           << ",\n"
           << "  \"results_identical\": true\n"
           << "}\n";
        if (!os) {
            std::cerr << "obs_overhead: cannot write " << jsonPath
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << jsonPath << "\n";
    }

    // Enforced only in an optimized build when the caller opts in
    // (bench/run_all.sh does); CI publishes the JSON report-only.
    if (ratio.median > kOverheadGate) {
        std::cerr << "obs_overhead: metrics-on overhead "
                  << core::fmt((ratio.median - 1.0) * 100.0, 2)
                  << "% exceeds the " << (kOverheadGate - 1.0) * 100.0
                  << "% gate"
                  << (gateEnforced ? "" : " (report-only)") << "\n";
        if (gateEnforced)
            return 1;
    }
    return 0;
}
