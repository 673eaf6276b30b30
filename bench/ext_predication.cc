/**
 * @file
 * Extension study (Section 7.1): tail handling at growing register
 * widths. The paper's wide-register GEMM loses SIMD utilization (98% at
 * 128 bits down to 89% at 1024 bits) because output columns are not
 * lane-divisible and Neon falls back to narrower registers. SVE's
 * WHILELT predication runs tails at full width under a mask. This bench
 * sweeps a 27-element-row AXPY — a remainder at every width — across
 * 128..1024-bit registers with both strategies.
 */

#include "bench_common.hh"

#include "swan/trace.hh"
#include "swan/workloads.hh"

using namespace swan;
using workloads::ext::TailImpl;

int
main()
{
    const Session session = Session::fromEnv();

    core::banner(std::cout,
                 "Extension: loop tails, narrower registers vs WHILELT "
                 "predication (Section 7.1)");
    core::Table t({"Width", "Impl", "Speedup vs Scalar",
                   "SIMD utilization", "Vector instrs"});

    bool all_ok = true;
    for (int bits : {128, 256, 512, 1024}) {
        const auto cfg = sim::widerVectorConfig(bits);
        for (auto impl : {TailImpl::NarrowTail, TailImpl::Predicated}) {
            auto w = workloads::ext::makeAxpyTail(
                session.options().workload, impl);
            auto s = session.run(*w, core::Impl::Scalar, cfg);
            auto n = session.run(*w, core::Impl::Neon, cfg, bits);
            all_ok = all_ok && w->verify();
            t.addRow({std::to_string(bits) + "-bit",
                      impl == TailImpl::Predicated ? "SVE predicated"
                                                   : "Neon narrow tail",
                      core::fmtX(double(s.sim.cycles) /
                                 double(n.sim.cycles)),
                      core::fmtPct(
                          100.0 * n.mix.machineUtilization(bits / 8), 0),
                      std::to_string(n.mix.vectorInstrs())});
        }
    }
    t.print(std::cout);

    std::cout
        << "\nPaper anchor (Section 7.1): GEMM-FP32 SIMD utilization "
           "falls from 98% at\n128 bits to 89% at 1024 bits because "
           "non-divisible columns force narrower\nregisters; predication "
           "holds utilization at the DLP limit and removes the\n"
           "tail cascade entirely.\n"
        << "Outputs verified: " << (all_ok ? "yes" : "NO") << "\n";
    return all_ok ? 0 : 1;
}
