/**
 * @file
 * Table 7 reproduction: GPU/DSP kernel-launch overhead versus the total
 * Neon execution time of the nine libraries Chrome does not offload
 * (Section 8). Launch overheads are the paper's measured constants
 * (Adreno 640 OpenCL: 230 us; Hexagon 690 fastRPC: 20 us); Neon kernel
 * times come from the timing model at the paper's input scale.
 *
 * A view over the Neon points of the Figure 2 grid
 * (bench::runExperiment): with SWAN_SWEEP_CACHE_DIR shared with
 * fig02_perf_energy, every point is served from its cache.
 */

#include "bench_common.hh"

#include "swan/gpu.hh"

using namespace swan;

int
main()
{
    // The nine libraries of Table 2 that are not offloaded to the GPU.
    const std::vector<std::string> nine = {"LJ", "LP", "LW", "SK", "WA",
                                           "PF", "ZL", "BS", "OR"};
    std::vector<std::string> kernels;
    for (const auto *spec : bench::headlineKernels())
        if (std::find(nine.begin(), nine.end(), spec->info.symbol) !=
            nine.end())
            kernels.push_back(spec->info.qualifiedName());

    Session session = Session::fromEnv();
    const Results results = bench::runExperiment(
        Experiment(session)
            .kernels(kernels)
            .impl(core::Impl::Neon)
            .config("prime"),
        "tab07");
    gpu::OffloadParams params;

    double min_us = 1e30, max_us = 0, sum_us = 0;
    for (const auto &r : results) {
        const double us = r.run.sim.timeSec * 1e6;
        min_us = std::min(min_us, us);
        max_us = std::max(max_us, us);
        sum_us += us;
    }
    const double avg_us = sum_us / double(results.size());

    core::banner(std::cout,
                 "Table 7: accelerator launch overhead vs Neon kernel "
                 "execution time");
    core::Table t({"Quantity", "Time (us)"});
    t.addRow({"Adreno 640 GPU kernel launch",
              core::fmt(params.gpuLaunchUs, 0)});
    t.addRow({"Hexagon 690 DSP kernel launch",
              core::fmt(params.dspLaunchUs, 0)});
    t.addRow({"Neon kernel execution, min", core::fmt(min_us, 1)});
    t.addRow({"Neon kernel execution, avg", core::fmt(avg_us, 1)});
    t.addRow({"Neon kernel execution, max", core::fmt(max_us, 1)});
    t.print(std::cout);

    std::cout << "\nGPU launch / avg Neon time = "
              << core::fmtX(params.gpuLaunchUs / avg_us)
              << "   DSP launch / avg Neon time = "
              << core::fmtPct(100.0 * params.dspLaunchUs / avg_us, 0)
              << "\nPaper anchors: GPU launch alone is ~1.9x the average "
                 "Neon kernel time; DSP launch is ~19% of it (paper "
                 "sizes; scaled inputs shrink Neon times — set "
                 "SWAN_FULL=1 for paper scale).\n";
    return 0;
}
