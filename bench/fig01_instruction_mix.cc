/**
 * @file
 * Figure 1 reproduction: per-library Neon instruction-class distribution
 * (S-Integer, S-Float, V-Load, V-Store, V-Integer, V-Float, V-Crypto,
 * V-Misc, % of dynamic instructions) and the total dynamic instruction
 * reduction of Neon vs Scalar (geomean per library, secondary axis).
 *
 * A view over the Scalar and Neon points of the Figure 2 grid (Prime
 * core, default working set): with SWAN_SWEEP_CACHE_DIR shared with
 * fig02_perf_energy, every point is served from its cache.
 */

#include <array>

#include "bench_common.hh"

using namespace swan;
using trace::PaperClass;

int
main()
{
    Session session = Session::fromEnv();
    const Results results = bench::runExperiment(
        Experiment(session)
            .impls({core::Impl::Scalar, core::Impl::Neon})
            .config("prime"),
        "fig01");

    // One row per kernel (its Neon point over its Scalar baseline), in
    // registry order.
    const auto rows = results.speedupVs(core::Impl::Scalar);
    const auto symbolOf = [](const Speedup &s) {
        return s.point->point.spec->info.symbol;
    };
    const auto reduction = geomeanBy(rows, symbolOf, [](const Speedup &s) {
        return s.instrReduction();
    });

    core::banner(std::cout,
                 "Figure 1: Neon instruction distribution (%) and "
                 "Scalar/Neon instruction reduction (x)");

    core::Table t({"Lib", "S-Int", "S-Float", "V-Load", "V-Store",
                   "V-Int", "V-Float", "V-Crypto", "V-Misc",
                   "InstrReduction"});

    for (const auto &sym : bench::librarySymbols()) {
        // The library's Neon mix: its kernels' class counts summed.
        std::array<uint64_t, size_t(PaperClass::NumClasses)> count{};
        uint64_t total = 0;
        for (const auto &s : rows) {
            if (symbolOf(s) != sym)
                continue;
            const trace::MixStats &mix = s.point->run.mix;
            total += mix.total();
            for (size_t c = 0; c < count.size(); ++c)
                count[c] += mix.count(PaperClass(c));
        }
        auto pct = [&](PaperClass c) {
            const double f =
                total ? double(count[size_t(c)]) / double(total) : 0.0;
            return core::fmtPct(100.0 * f, 1);
        };
        t.addRow({sym, pct(PaperClass::SInteger), pct(PaperClass::SFloat),
                  pct(PaperClass::VLoad), pct(PaperClass::VStore),
                  pct(PaperClass::VInteger), pct(PaperClass::VFloat),
                  pct(PaperClass::VCrypto), pct(PaperClass::VMisc),
                  core::fmtX(valueFor(reduction, sym))});
    }
    t.print(std::cout);
    std::cout << "\nPaper anchors: image/video libraries reduce ~6-12x "
                 "(8-bit pixels); ZL/BS reduce most (crypto "
                 "instructions); WA saturates near 3.4x (vector APIs); "
                 "PF has the largest scalar fraction.\n";
    return 0;
}
