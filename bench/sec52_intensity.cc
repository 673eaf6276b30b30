/**
 * @file
 * Section 5.2 synthesis: what makes a kernel vector-friendly? The
 * paper's analysis names two axes — operation precision (VRE, Equation
 * 1) and cache hit rate — and argues speedup tracks both. This bench
 * computes, for every library, the measured correlates from the same
 * runs the headline figures use: the Neon instruction reduction
 * (precision proxy, Figure 1), the L1 hit rate and arithmetic intensity
 * (vector ops per byte loaded), and the achieved speedup, then checks
 * the paper's two claimed rank relations hold over the suite.
 *
 * A view over the Scalar and Neon points of the Figure 2 grid
 * (bench::runExperiment): with SWAN_SWEEP_CACHE_DIR shared with
 * fig02_perf_energy, every point is served from its cache.
 */

#include <algorithm>
#include <cmath>

#include "bench_common.hh"

#include "swan/trace.hh"

using namespace swan;

namespace
{

struct LibRow
{
    std::string symbol;
    double speedup = 0.0;       //!< geomean Neon vs Scalar
    double reduction = 0.0;     //!< geomean instruction reduction
    double hitRate = 0.0;       //!< mean Neon L1 hit rate
    double intensity = 0.0;     //!< vector ops per loaded byte
    bool crypto = false;
};

/** Spearman rank correlation of two equal-length samples. */
double
spearman(std::vector<double> a, std::vector<double> b)
{
    auto ranks = [](std::vector<double> v) {
        std::vector<size_t> idx(v.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(),
                  [&](size_t x, size_t y) { return v[x] < v[y]; });
        std::vector<double> r(v.size());
        for (size_t i = 0; i < idx.size(); ++i)
            r[idx[i]] = double(i);
        return r;
    };
    const auto ra = ranks(std::move(a));
    const auto rb = ranks(std::move(b));
    const double n = double(ra.size());
    double d2 = 0.0;
    for (size_t i = 0; i < ra.size(); ++i)
        d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
    return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

} // namespace

int
main()
{
    Session session = Session::fromEnv();
    const Results results = bench::runExperiment(
        Experiment(session)
            .impls({core::Impl::Scalar, core::Impl::Neon})
            .config("prime"),
        "sec52");
    // One row per kernel (its Neon point over its Scalar baseline), in
    // registry order.
    const auto kernels = results.speedupVs(core::Impl::Scalar);

    core::banner(std::cout,
                 "Section 5.2 synthesis: precision, locality and "
                 "intensity vs speedup");

    std::vector<LibRow> rows;
    for (const auto &sym : bench::librarySymbols()) {
        LibRow row;
        row.symbol = sym;
        double logSpeed = 0.0, logRed = 0.0, hit = 0.0, vops = 0.0,
               bytes = 0.0;
        int n = 0;
        for (const auto &k : kernels) {
            if (k.point->point.spec->info.symbol != sym)
                continue;
            const core::KernelRun &neon = k.point->run;
            logSpeed += std::log(k.speedup());
            logRed += std::log(k.instrReduction());
            hit += neon.sim.l1HitRate;
            vops += double(neon.mix.vectorInstrs() -
                           neon.mix.count(trace::InstrClass::VLoad) -
                           neon.mix.count(trace::InstrClass::VStore));
            bytes += double(neon.mix.loadBytes());
            row.crypto = row.crypto ||
                         neon.mix.count(trace::InstrClass::VCrypto) > 0;
            ++n;
        }
        if (n == 0)
            continue;
        row.speedup = std::exp(logSpeed / n);
        row.reduction = std::exp(logRed / n);
        row.hitRate = hit / n;
        row.intensity = bytes > 0.0 ? vops / bytes : 0.0;
        rows.push_back(row);
    }

    core::Table t({"Lib", "Neon speedup", "Instr reduction", "L1 hit",
                   "V-ops/byte", "Crypto"});
    for (const auto &r : rows) {
        t.addRow({r.symbol, core::fmtX(r.speedup), core::fmtX(r.reduction),
                  core::fmtPct(100.0 * r.hitRate),
                  core::fmt(r.intensity, 2), r.crypto ? "yes" : "-"});
    }
    t.print(std::cout);

    // Claim 1 (Equation 1 / Figure 1): speedup rises with instruction
    // reduction, i.e. with encoded operations per instruction.
    std::vector<double> sp, red, hitv;
    for (const auto &r : rows) {
        sp.push_back(r.speedup);
        red.push_back(r.reduction);
        hitv.push_back(r.hitRate);
    }
    const double rho_red = spearman(sp, red);

    // Claim 2: among non-crypto libraries (crypto's reduction dwarfs the
    // locality signal), lower hit rates cap the speedup.
    std::vector<double> sp_nc, hit_nc;
    for (const auto &r : rows) {
        if (!r.crypto) {
            sp_nc.push_back(r.speedup);
            hit_nc.push_back(r.hitRate);
        }
    }
    const double rho_hit = spearman(sp_nc, hit_nc);

    std::cout << "\nSpearman rank correlation, speedup vs instruction "
                 "reduction: "
              << core::fmt(rho_red, 2) << "\n"
              << "Spearman rank correlation (non-crypto), speedup vs L1 "
                 "hit rate: "
              << core::fmt(rho_hit, 2) << "\n";

    std::cout << "\nPaper anchors (Section 5.2): speedup correlates with "
                 "VRE — low-precision kernels\nencode more ops per "
                 "instruction — which the positive reduction "
                 "correlation\nconfirms across the suite. The locality "
                 "claim (low hit rates cap the gain)\nis a *within-"
                 "kernel* effect; across libraries it is confounded by "
                 "precision,\nso the controlled test lives in "
                 "ablate_working_set (3.5x -> 1.8x on one\nkernel as "
                 "its footprint grows).\n";

    const bool ok = rho_red > 0.3;
    std::cout << "Reduction correlation positive: " << (ok ? "yes" : "NO")
              << "\n";
    return ok ? 0 : 1;
}
