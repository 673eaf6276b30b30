/**
 * @file
 * Figure 3 reproduction: total chip power (including DRAM) of the
 * Scalar, Auto and Neon implementations per library on the Prime core.
 * Vector processing raises the main-memory access *rate*, which raises
 * power (Section 5.3), most visibly in the image/graphics libraries.
 *
 * A view over the Figure 2 grid (bench::runExperiment): with
 * SWAN_SWEEP_CACHE_DIR shared with fig02_perf_energy, every point is
 * served from its cache.
 */

#include "bench_common.hh"

using namespace swan;

int
main()
{
    Session session = Session::fromEnv();
    const Results results = bench::runExperiment(
        Experiment(session)
            .impls({core::Impl::Scalar, core::Impl::Auto,
                    core::Impl::Neon})
            .config("prime"),
        "fig03");

    core::banner(std::cout,
                 "Figure 3: total chip power (W), including DRAM");
    core::Table t({"Lib", "Scalar (W)", "Auto (W)", "Neon (W)",
                   "Neon DRAM acc/kcycle"});
    for (const auto &sym : bench::librarySymbols()) {
        // The library's kernels in registry order: each point's power
        // by implementation, and the Neon points' DRAM access rates.
        std::vector<double> power[3], neonDram;
        for (const auto &r : results) {
            if (r.point.spec->info.symbol != sym)
                continue;
            power[size_t(r.point.impl)].push_back(r.run.sim.powerW);
            if (r.point.impl == core::Impl::Neon)
                neonDram.push_back(r.run.sim.dramAccessPerKCycle);
        }
        if (neonDram.empty())
            continue; // only study kernels
        const auto watts = [&power](core::Impl impl) {
            return core::fmt(core::mean(power[size_t(impl)]), 2);
        };
        t.addRow({sym, watts(core::Impl::Scalar), watts(core::Impl::Auto),
                  watts(core::Impl::Neon),
                  core::fmt(core::mean(neonDram), 2)});
    }
    t.print(std::cout);
    std::cout << "\nPaper anchors: Neon power exceeds Scalar power; the "
                 "libraries with the highest LLC miss / DRAM access "
                 "rates (image processing and graphics) consume the "
                 "most.\n";
    return 0;
}
