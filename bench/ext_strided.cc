/**
 * @file
 * Extension study (Section 6.3): strides beyond Neon's VLD4. An
 * 8-channel interleaved audio stream needs stride-8 access; Neon
 * composes it from VLD4 pairs + UZP stages, while RVV-style strided
 * loads (vlse) encode it in one instruction. Full de-interleaving uses
 * every loaded byte, so Neon stays competitive; extracting a single
 * channel pays for all eight, and the strided load wins on traffic and
 * instruction count.
 */

#include "bench_common.hh"

#include "swan/trace.hh"
#include "swan/workloads.hh"

using namespace swan;
using workloads::ext::StrideImpl;

namespace
{

struct Meas
{
    core::KernelRun scalar;
    core::KernelRun neon;
    core::KernelRun strided;
    bool ok = false;
};

Meas
measure(const Session &session, const sim::CoreConfig &cfg, bool full)
{
    const core::Options &opts = session.options().workload;
    auto make = [&](StrideImpl impl) {
        return full ? workloads::ext::makeDeinterleave8(opts, impl)
                    : workloads::ext::makeChannelExtract(opts, impl);
    };
    Meas m;
    auto neon = make(StrideImpl::NeonUnzip);
    m.scalar = session.run(*neon, core::Impl::Scalar, cfg);
    m.neon = session.run(*neon, core::Impl::Neon, cfg);
    const bool ok1 = neon->verify();
    auto strided = make(StrideImpl::StridedLoad);
    strided->runScalar();
    m.strided = session.run(*strided, core::Impl::Neon, cfg);
    m.ok = ok1 && strided->verify();
    return m;
}

} // namespace

int
main()
{
    const Session session = Session::fromEnv();
    const auto cfg = sim::primeConfig();

    const Meas full = measure(session, cfg, /*full=*/true);
    const Meas extract = measure(session, cfg, /*full=*/false);

    core::banner(std::cout,
                 "Extension: stride-8 access, VLD4+UZP vs strided loads "
                 "(Section 6.3)");

    core::Table t({"Kernel", "Impl", "Speedup vs Scalar",
                   "Instr reduction", "Load traffic (B)"});
    auto add = [&](const char *name, const Meas &m) {
        t.addRow({name, "Neon VLD4+UZP",
                  core::fmtX(double(m.scalar.sim.cycles) /
                             double(m.neon.sim.cycles)),
                  core::fmtX(double(m.scalar.mix.total()) /
                             double(m.neon.mix.total())),
                  std::to_string(m.neon.mix.loadBytes())});
        t.addRow({name, "Strided load (RVV vlse)",
                  core::fmtX(double(m.scalar.sim.cycles) /
                             double(m.strided.sim.cycles)),
                  core::fmtX(double(m.scalar.mix.total()) /
                             double(m.strided.mix.total())),
                  std::to_string(m.strided.mix.loadBytes())});
    };
    add("Deinterleave 8ch", full);
    add("Extract 1 of 8ch", extract);
    t.print(std::cout);

    std::cout
        << "\nPaper anchor (Section 6.3): Neon encodes strides up to 4 "
           "efficiently; higher\nstrides need multiple instructions that "
           "hurt performance, which RVV's\narbitrary-stride loads avoid. "
           "Sparse use (one channel of eight) also pays 8x\nthe memory "
           "traffic on Neon. Note the trade-off the timing model keeps "
           "honest:\na strided load cracks into per-element accesses in "
           "the LSU, so its cycle win\nis smaller than its instruction-"
           "count and traffic wins (and can invert when\nevery loaded "
           "byte would have been used anyway).\n"
        << "Outputs verified: " << (full.ok && extract.ok ? "yes" : "NO")
        << "\n";
    return full.ok && extract.ok ? 0 : 1;
}
