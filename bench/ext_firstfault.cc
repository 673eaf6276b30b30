/**
 * @file
 * Extension study (Section 5.2, Example 1): uncountable scan loops.
 * Eight Swan kernels fail auto-vectorization because their loops break
 * on a data-dependent condition. Hand-written Neon vectorizes strlen by
 * over-reading full vectors (legal only with padding or page guards)
 * and exporting lanes to locate the terminator; SVE's first-faulting
 * loads vectorize the loop safely and locate matches in one predicate
 * op. This bench scans a batch of NUL-terminated strings both ways on
 * the simulated Prime core.
 */

#include "bench_common.hh"

#include "swan/trace.hh"
#include "swan/workloads.hh"

using namespace swan;
using workloads::ext::ScanImpl;

int
main()
{
    const Session session = Session::fromEnv();
    const auto cfg = sim::primeConfig();

    auto neon = workloads::ext::makeStrlenScan(session.options().workload,
                                               ScanImpl::NeonOverread);
    auto sve = workloads::ext::makeStrlenScan(session.options().workload,
                                              ScanImpl::SveFirstFault);

    auto s = session.run(*neon, core::Impl::Scalar, cfg);
    auto n = session.run(*neon, core::Impl::Neon, cfg);
    const bool ok1 = neon->verify();
    sve->runScalar();
    auto f = session.run(*sve, core::Impl::Neon, cfg);
    const bool ok2 = sve->verify();

    core::banner(std::cout,
                 "Extension: uncountable loops, Neon over-read vs SVE "
                 "first-faulting loads (Section 5.2)");
    core::Table t({"Impl", "Speedup vs Scalar", "Instr reduction",
                   "Lane moves", "Safety"});
    t.addRow({"Neon over-read + lane export",
              core::fmtX(double(s.sim.cycles) / double(n.sim.cycles)),
              core::fmtX(double(s.mix.total()) / double(n.mix.total())),
              std::to_string(n.mix.count(trace::InstrClass::VMisc)),
              "needs padding/page guard"});
    t.addRow({"SVE LDFF1 + predicate locate",
              core::fmtX(double(s.sim.cycles) / double(f.sim.cycles)),
              core::fmtX(double(s.mix.total()) / double(f.mix.total())),
              std::to_string(f.mix.count(trace::InstrClass::VMisc)),
              "none (faults masked)"});
    t.print(std::cout);

    std::cout
        << "\nPaper anchor (Section 5.2): uncountable loops block "
           "auto-vectorization in 8\nkernels; Neon's workaround needs "
           "reduction + lane-export locate and an\nover-read guarantee. "
           "First-faulting loads remove both obstacles, which is\nwhat "
           "lets SVE compilers vectorize while-loops automatically.\n"
        << "Outputs verified: " << (ok1 && ok2 ? "yes" : "NO") << "\n";
    return ok1 && ok2 ? 0 : 1;
}
