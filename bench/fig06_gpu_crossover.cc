/**
 * @file
 * Figure 6 reproduction: Neon vs GPU execution time for XNNPACK GEMM and
 * SpMM across operation counts. The GPU has ~96x Neon's FP32 MAC
 * throughput but pays a fixed launch overhead, so Neon wins below ~4M
 * MACs (Section 8). Neon times are simulated (one pass over the packed
 * capture with no warm-up, so the largest points start on cold caches);
 * GPU times come from the analytical offload model.
 */

#include "bench_common.hh"

#include "swan/gpu.hh"
#include "swan/sim.hh"

namespace swan::workloads::xnnpack
{
std::unique_ptr<core::Workload> makeGemmF32(const core::Options &);
std::unique_ptr<core::Workload> makeSpmmF32(const core::Options &);
} // namespace swan::workloads::xnnpack

using namespace swan;

namespace
{

/** Simulate a workload's Neon implementation from cold caches. */
double
neonTimeSec(core::Workload &w, const sim::CoreConfig &cfg)
{
    const auto packed =
        core::Runner::capturePacked(w, core::Impl::Neon, 128, nullptr);
    return sim::simulateTrace(packed, cfg, 0).timeSec;
}

void
sweepGemmSizes(bool sparse, const std::vector<int> &dims)
{
    const auto cfg = sim::primeConfig();
    core::Table t({"MACs", "Neon (ms)", "GPU (ms)",
                   "GPU w/o launch (ms)", "Winner"});
    for (int d : dims) {
        core::Options opts;
        opts.gemmM = d;
        opts.gemmN = d;
        opts.gemmK = d;
        auto w = sparse ? workloads::xnnpack::makeSpmmF32(opts)
                        : workloads::xnnpack::makeGemmF32(opts);
        const double neon_ms = neonTimeSec(*w, cfg) * 1e3;
        const uint64_t macs = w->flops() / 2;
        const double gpu_ms = gpu::gpuTimeSec(macs, sparse) * 1e3;
        const double gpu_compute_ms =
            gpu::gpuComputeTimeSec(macs, sparse) * 1e3;
        t.addRow({std::to_string(macs), core::fmt(neon_ms, 3),
                  core::fmt(gpu_ms, 3), core::fmt(gpu_compute_ms, 3),
                  neon_ms < gpu_ms ? "Neon" : "GPU"});
    }
    t.print(std::cout);
}

} // namespace

int
main()
{
    core::banner(std::cout, "Figure 6(a): GEMM — Neon vs GPU");
    sweepGemmSizes(false, {58, 93, 144, 200, 235});

    core::banner(std::cout, "Figure 6(b): SpMM (80% sparse) — Neon vs "
                            "GPU");
    sweepGemmSizes(true, {50, 97, 153, 210, 247});

    std::cout << "\nPaper anchor: the crossover where the GPU starts "
                 "winning sits near 4M FP32 MAC operations for both "
                 "kernels; below it the launch overhead (dashed line) "
                 "dominates.\n";
    return 0;
}
