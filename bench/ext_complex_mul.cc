/**
 * @file
 * Extension study (Section 6.5): the cost of portable vector APIs on
 * complex arithmetic. PFFFT's portable macro layer limits its complex
 * multiplication to basic intrinsics — six instructions and eight
 * Cortex-A76 cycles per complex multiply; Armv8.2 fused multiply-add/
 * subtract cuts that to four instructions and five cycles; Armv8.3's
 * FCMLA (two cycles on Cortex-A710) does a complex MAC in two
 * instructions with no permutes. This bench runs the same interleaved
 * spectrum convolution with all three budgets.
 */

#include "bench_common.hh"

#include "swan/trace.hh"
#include "swan/workloads.hh"

using namespace swan;
using workloads::ext::ComplexImpl;

int
main()
{
    const Session session = Session::fromEnv();
    const auto cfg = sim::primeConfig();

    struct Variant
    {
        const char *name;
        ComplexImpl impl;
        const char *paper;
    };
    const Variant variants[] = {
        {"Portable API (MUL/ADD + permutes)", ComplexImpl::Portable,
         "6 instr / 8 cyc per cmul"},
        {"Armv8.2 FMLA/FMLS + permutes", ComplexImpl::Fmla,
         "4 instr / 5 cyc per cmul"},
        {"Armv8.3 FCMLA rot0+rot90", ComplexImpl::Fcmla,
         "2-cycle FCMLA (A710)"},
    };

    core::banner(std::cout,
                 "Extension: complex multiply-accumulate budgets "
                 "(Section 6.5)");
    core::Table t({"Implementation", "Speedup vs Scalar",
                   "V-instr / complex", "V-Float ops", "Paper"});

    bool all_ok = true;
    double portableCycles = 0.0;
    for (const auto &v : variants) {
        auto w = workloads::ext::makeZConvolve(session.options().workload,
                                               v.impl);
        auto s = session.run(*w, core::Impl::Scalar, cfg);
        auto n = session.run(*w, core::Impl::Neon, cfg);
        all_ok = all_ok && w->verify();
        if (v.impl == ComplexImpl::Portable)
            portableCycles = double(n.sim.cycles);
        const double complexOps = double(w->flops()) / 8.0;
        t.addRow({v.name,
                  core::fmtX(double(s.sim.cycles) / double(n.sim.cycles)),
                  core::fmtX(double(n.mix.vectorInstrs()) / complexOps),
                  std::to_string(n.mix.count(trace::InstrClass::VFloat)),
                  v.paper});
        if (v.impl == ComplexImpl::Fcmla && portableCycles > 0.0) {
            std::cout << "FCMLA vs portable API: "
                      << core::fmtX(portableCycles /
                                    double(n.sim.cycles))
                      << " fewer cycles\n";
        }
    }
    t.print(std::cout);

    std::cout << "\nPaper anchor: the portable-API restriction drops "
                 "PFFFT's Neon speedup to 2.3x\n(Section 6.5); fused and "
                 "complex intrinsics recover the gap but no portable\n"
                 "API exposes them across SSE/Neon.\n"
              << "Outputs verified: " << (all_ok ? "yes" : "NO") << "\n";
    return all_ok ? 0 : 1;
}
