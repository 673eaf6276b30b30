/**
 * @file
 * Tiered-cache perf smoke: measures what the hotness-aware hierarchy
 * buys on skewed re-lookup traffic, and writes BENCH_cache_tiers.json
 * (argv[1] overrides the path) so the trajectory is tracked run over
 * run.
 *
 * Three passes over one 80/20-skewed lookup sequence (20% of the keys
 * take 80% of the traffic — the warm-service shape a sweep fleet sees):
 *
 *   cold         empty tiers: every unique key misses once and is
 *                computed + stored (write-through to the far tier);
 *                repeats are served back out of the RAM memo,
 *   warm-skewed  fresh process image (new cache instance) on the warm
 *                directories: first touch per key off local disk,
 *                repeats out of RAM, hot packed traces pinned into the
 *                T0 memo after their second hit,
 *   far-cold     local tier wiped: first touch per key is a far hit
 *                write-through-promoted to local disk (the new-host
 *                story; reported, not gated).
 *
 * Gates: warm-skewed >= 1.3x faster than cold, and a hot-tier (RAM)
 * hit rate >= 0.9 on the warm pass. Report-only by default (CI
 * machines are noisy); an optimized build run with SWAN_PERF_ENFORCE=1
 * — which bench/run_all.sh sets — turns them into hard failures. A
 * warm-pass miss (recompute) is always a hard failure.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace swan;

namespace
{

constexpr size_t kKeys = 64;       //!< distinct result keys
constexpr size_t kHotKeys = 13;    //!< ~20% of them take 80% of traffic
constexpr size_t kLookups = 4000;  //!< result lookups per pass
constexpr size_t kTraceKeys = 3;   //!< distinct packed-trace keys
constexpr size_t kTraceLookups = 96;

std::string
fmtJson(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

sweep::CacheKey
keyAt(size_t i)
{
    sweep::CacheKey k;
    k.kernel = "BENCH/tiers";
    k.configFp = 0x9000 + i;
    k.optionsFp = 0xbeef;
    return k;
}

sweep::TraceKey
traceKeyAt(size_t i)
{
    sweep::TraceKey k;
    k.kernel = "BENCH/tiers";
    k.optionsFp = 0xbeef + i;
    return k;
}

core::KernelRun
runAt(size_t i)
{
    core::KernelRun r;
    r.sim.cycles = 1000 + i;
    r.sim.instrs = 100;
    return r;
}

/**
 * The 80/20 sequence, fixed across passes and runs: a deterministic
 * LCG (never the libc PRNG — the same traffic must replay on every
 * platform) routes ~80% of lookups into the first kHotKeys keys.
 */
std::vector<size_t>
skewedSequence()
{
    std::vector<size_t> seq;
    seq.reserve(kLookups);
    uint64_t x = 0x243f6a8885a308d3ull;
    for (size_t i = 0; i < kLookups; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t coin = (x >> 33) % 10;
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        if (coin < 8)
            seq.push_back((x >> 33) % kHotKeys);
        else
            seq.push_back(kHotKeys + (x >> 33) % (kKeys - kHotKeys));
    }
    return seq;
}

struct PassResult
{
    double seconds = 0;
    sweep::CacheStats stats;
};

/** One pass of the skewed traffic plus hot trace re-lookups. In the
 *  cold pass misses are "computed" (a canned result) and stored. */
PassResult
runPass(sweep::ResultCache &cache, const std::vector<size_t> &seq,
        const trace::PackedTrace &trace, const trace::MixStats &mix,
        bool store_misses)
{
    const auto t0 = std::chrono::steady_clock::now();
    core::KernelRun got;
    for (const size_t i : seq) {
        if (!cache.lookup(keyAt(i), &got) && store_misses)
            cache.store(keyAt(i), runAt(i));
    }
    trace::PackedTrace t;
    trace::MixStats m;
    for (size_t i = 0; i < kTraceLookups; ++i) {
        const auto key = traceKeyAt(i % kTraceKeys);
        if (!cache.lookupTrace(key, &t, &m) && store_misses)
            cache.storeTrace(key, trace, mix);
    }
    const auto t1 = std::chrono::steady_clock::now();
    PassResult r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.stats = cache.stats();
    return r;
}

double
hotHitRate(const sweep::CacheStats &s)
{
    const double lookups = double(s.total() + s.traceHits +
                                  s.traceRamHits + s.traceMisses);
    if (lookups == 0)
        return 0;
    return double(s.hits + s.traceRamHits) / lookups;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string jsonPath =
        argc > 1 ? argv[1] : "BENCH_cache_tiers.json";
    namespace fs = std::filesystem;
    const auto base = fs::temp_directory_path() /
                      ("swan_bench_cache_tiers_" +
                       std::to_string(::getpid()));
    const auto localDir = (base / "local").string();
    const auto farDir = (base / "far").string();
    fs::remove_all(base);

    // One real packed trace gives the trace tier honest decode/pin
    // costs.
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    if (!spec) {
        std::cerr << "cache_tiers: kernel ZL/adler32 not registered\n";
        return 1;
    }
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    const auto packed = trace::PackedTrace::pack(instrs);
    trace::MixStats mix;
    mix.addTrace(instrs);

    const auto seq = skewedSequence();
    const int reps = 3;

    // Cold: fresh directories each rep (best-of, like the replay
    // smokes).
    double coldWall = 1e100;
    sweep::CacheStats coldStats;
    for (int r = 0; r < reps; ++r) {
        fs::remove_all(base);
        sweep::ResultCache cache(localDir, 0, farDir);
        cache.setRamTraceBudget(64ull << 20);
        const auto p = runPass(cache, seq, packed, mix, true);
        if (p.seconds < coldWall) {
            coldWall = p.seconds;
            coldStats = p.stats;
        }
    }

    // Warm-skewed: same directories, fresh cache instance per rep (RAM
    // cold, disk warm — the "next command against a warm cache" shape).
    double warmWall = 1e100;
    sweep::CacheStats warmStats;
    for (int r = 0; r < reps; ++r) {
        sweep::ResultCache cache(localDir, 0, farDir);
        cache.setRamTraceBudget(64ull << 20);
        const auto p = runPass(cache, seq, packed, mix, false);
        if (p.stats.misses || p.stats.traceMisses) {
            std::cerr << "cache_tiers: warm pass recomputed ("
                      << p.stats.misses << " result / "
                      << p.stats.traceMisses << " trace misses)\n";
            return 1;
        }
        if (p.seconds < warmWall) {
            warmWall = p.seconds;
            warmStats = p.stats;
        }
    }

    // Far-cold: wipe the local tier; every first touch promotes from
    // the far tier (reported only — the far tier here shares a
    // filesystem with T1, so the gap understates a real deployment).
    double farWall = 1e100;
    sweep::CacheStats farStats;
    for (int r = 0; r < reps; ++r) {
        fs::remove_all(localDir);
        sweep::ResultCache cache(localDir, 0, farDir);
        cache.setRamTraceBudget(64ull << 20);
        const auto p = runPass(cache, seq, packed, mix, false);
        if (p.stats.misses || p.stats.traceMisses) {
            std::cerr << "cache_tiers: far pass recomputed\n";
            return 1;
        }
        if (p.seconds < farWall) {
            farWall = p.seconds;
            farStats = p.stats;
        }
    }
    fs::remove_all(base);

    const double speedup = coldWall / warmWall;
    const double rate = hotHitRate(warmStats);
    constexpr double kSpeedupGate = 1.3;
    constexpr double kHotRateGate = 0.9;
#ifdef NDEBUG
    const char *enf = std::getenv("SWAN_PERF_ENFORCE");
    const bool gateEnforced = enf && enf[0] == '1';
#else
    const bool gateEnforced = false;
#endif

    core::banner(std::cout, "Tiered cache perf smoke (80/20 traffic)");
    core::Table t({"pass", "wall ms", "vs cold"});
    t.addRow({"cold (miss+store)", core::fmt(coldWall * 1e3, 2),
              core::fmtX(1.0, 2)});
    t.addRow({"warm-skewed", core::fmt(warmWall * 1e3, 2),
              core::fmtX(speedup, 2)});
    t.addRow({"far-cold (promote)", core::fmt(farWall * 1e3, 2),
              core::fmtX(coldWall / farWall, 2)});
    t.print(std::cout);
    std::cout << "warm pass: " << warmStats.hits << " RAM hits, "
              << warmStats.diskHits << " disk hits, "
              << warmStats.traceRamHits << " pinned-trace hits, "
              << warmStats.ramPromotions << " pins; hot-tier rate "
              << core::fmt(rate, 3) << "\n";
    std::cout << "far pass: " << farStats.farHits << " far hits, "
              << farStats.farPromotions << " promoted to local disk\n";

    {
        std::ofstream os(jsonPath, std::ios::trunc);
        os << "{\n"
           << "  \"bench\": \"cache_tiers\",\n"
           << "  \"keys\": " << kKeys << ",\n"
           << "  \"hot_keys\": " << kHotKeys << ",\n"
           << "  \"lookups\": " << kLookups << ",\n"
           << "  \"cold_wall_s\": " << fmtJson(coldWall) << ",\n"
           << "  \"warm_skewed_wall_s\": " << fmtJson(warmWall) << ",\n"
           << "  \"far_cold_wall_s\": " << fmtJson(farWall) << ",\n"
           << "  \"speedup_warm_vs_cold\": " << fmtJson(speedup) << ",\n"
           << "  \"hot_hit_rate\": " << fmtJson(rate) << ",\n"
           << "  \"warm_ram_hits\": " << warmStats.hits << ",\n"
           << "  \"warm_disk_hits\": " << warmStats.diskHits << ",\n"
           << "  \"warm_trace_ram_hits\": " << warmStats.traceRamHits
           << ",\n"
           << "  \"warm_ram_promotions\": " << warmStats.ramPromotions
           << ",\n"
           << "  \"far_hits\": " << farStats.farHits << ",\n"
           << "  \"far_promotions\": " << farStats.farPromotions << ",\n"
           << "  \"cold_far_stores\": " << coldStats.farStores << ",\n"
           << "  \"gate_speedup_min\": " << fmtJson(kSpeedupGate) << ",\n"
           << "  \"gate_hot_hit_rate_min\": " << fmtJson(kHotRateGate)
           << ",\n"
           << "  \"gate_enforced\": "
           << (gateEnforced ? "true" : "false") << "\n"
           << "}\n";
        if (!os) {
            std::cerr << "cache_tiers: cannot write " << jsonPath << "\n";
            return 1;
        }
        std::cout << "wrote " << jsonPath << "\n";
    }

    if (gateEnforced && speedup < kSpeedupGate) {
        std::cerr << "cache_tiers: warm-skewed only "
                  << core::fmtX(speedup, 3) << " vs cold (< "
                  << kSpeedupGate << "x)\n";
        return 1;
    }
    if (gateEnforced && rate < kHotRateGate) {
        std::cerr << "cache_tiers: hot-tier hit rate only "
                  << core::fmt(rate, 3) << " (< " << kHotRateGate
                  << ")\n";
        return 1;
    }
    return 0;
}
