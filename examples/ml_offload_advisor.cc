/**
 * @file
 * ML offload advisor: for a list of convolution-layer GEMM shapes,
 * decide whether to run each layer on the CPU vector engine or launch a
 * GPU kernel — the Section 8 trade-off. Demonstrates using the timing
 * model and the offload model together as a library.
 */

#include <iostream>

#include "swan/gpu.hh"
#include "swan/swan.hh"

namespace swan::workloads::xnnpack
{
std::unique_ptr<core::Workload> makeGemmF32(const core::Options &);
} // namespace swan::workloads::xnnpack

using namespace swan;

int
main()
{
    struct Layer
    {
        const char *name;
        int m, n, k;
    };
    // Representative CNN layer GEMM shapes (im2col'd).
    const Layer layers[] = {
        {"stem 3x3", 32, 196, 27},     {"stage1 1x1", 64, 196, 32},
        {"stage2 3x3", 128, 96, 288},  {"stage3 1x1", 256, 49, 128},
        {"stage4 3x3", 256, 49, 2304}, {"classifier", 1000, 1, 1280},
    };

    const auto cfg = sim::primeConfig();
    gpu::OffloadParams params;
    const Session session = Session::fromEnv();

    core::banner(std::cout,
                 "ML offload advisor: CPU (Neon) vs GPU per layer");
    core::Table t({"Layer", "MACs", "Neon (us)", "GPU (us)", "Decision"});

    double cpu_total = 0, best_total = 0;
    for (const auto &l : layers) {
        core::Options opts;
        opts.gemmM = l.m;
        opts.gemmN = l.n;
        opts.gemmK = l.k;
        auto w = workloads::xnnpack::makeGemmF32(opts);
        auto run = session.run(*w, core::Impl::Neon, cfg);
        const uint64_t macs = w->flops() / 2;
        const double neon_us = run.sim.timeSec * 1e6;
        const double gpu_us = gpu::gpuTimeSec(macs, false, params) * 1e6;
        cpu_total += neon_us;
        best_total += std::min(neon_us, gpu_us);
        t.addRow({l.name, std::to_string(macs), core::fmt(neon_us, 1),
                  core::fmt(gpu_us, 1),
                  neon_us <= gpu_us ? "CPU vector" : "GPU"});
    }
    t.print(std::cout);

    std::cout << "\nAll-CPU: " << core::fmt(cpu_total, 1)
              << " us; hybrid (advisor): " << core::fmt(best_total, 1)
              << " us. Small layers stay on the CPU because the 230 us "
                 "GPU launch overhead dwarfs them (Table 7 / Figure "
                 "6).\n";
    return 0;
}
