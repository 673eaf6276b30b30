/**
 * @file
 * What would SVE/RVV buy a mobile SoC? A tour of the future-ISA
 * extension layer (simd/vec_sve.hh) through the four Section-9 studies:
 * run each extension workload against its Neon-only counterpart on the
 * simulated Prime core and summarize the verdicts the paper's analysis
 * predicts — gathers rescue look-up tables, complex intrinsics rescue
 * portable audio APIs, strided loads rescue sparse channel access, and
 * predication rescues wide-register tails.
 *
 * Usage: isa_futures [--full]   (--full uses paper-scale inputs)
 */

#include <iostream>
#include <string>

#include "swan/swan.hh"
#include "swan/workloads.hh"

using namespace swan;
using namespace swan::workloads;

namespace
{

/** Cycles of one implementation on the Prime core. */
double
cycles(const Session &session, core::Workload &w, core::Impl impl,
       const sim::CoreConfig &cfg, int vec_bits = 128)
{
    return double(session.run(w, impl, cfg, vec_bits).sim.cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    core::Options opts = core::Options::fromEnv();
    if (argc > 1 && std::string(argv[1]) == "--full")
        opts = core::Options::full();
    const Session session = Session::fromEnv();
    const auto prime = sim::primeConfig();

    core::banner(std::cout,
                 "ISA futures: what SVE/RVV add to mobile vector "
                 "processing");

    core::Table t({"Study", "Neon today", "With the extension", "Verdict"});

    // 1. Gathers for look-up tables (Section 6.2).
    {
        auto lane = ext::makeDesGather(opts, ext::LutImpl::LaneExport);
        auto gather = ext::makeDesGather(opts, ext::LutImpl::Gather);
        const double s = cycles(session, *lane, core::Impl::Scalar, prime);
        const double neon =
            s / cycles(session, *lane, core::Impl::Neon, prime);
        gather->runScalar();
        const double sve =
            s / cycles(session, *gather, core::Impl::Neon, prime);
        const bool ok = lane->verify() && gather->verify();
        t.addRow({"DES S-box look-ups", core::fmtX(neon) + " vs scalar",
                  core::fmtX(sve) + " vs scalar",
                  ok ? (sve > 1.0 && neon < 1.2
                            ? "gather rescues vectorization"
                            : "gather helps")
                     : "VERIFY FAILED"});
    }

    // 2. Complex intrinsics for portable audio APIs (Section 6.5).
    {
        auto portable =
            ext::makeZConvolve(opts, ext::ComplexImpl::Portable);
        auto fcmla = ext::makeZConvolve(opts, ext::ComplexImpl::Fcmla);
        const double s =
            cycles(session, *portable, core::Impl::Scalar, prime);
        const double api =
            s / cycles(session, *portable, core::Impl::Neon, prime);
        fcmla->runScalar();
        const double v83 =
            s / cycles(session, *fcmla, core::Impl::Neon, prime);
        const bool ok = portable->verify() && fcmla->verify();
        t.addRow({"FFT complex MAC", core::fmtX(api) + " (portable API)",
                  core::fmtX(v83) + " (FCMLA)",
                  ok ? "2 ops replace 8, permutes gone"
                     : "VERIFY FAILED"});
    }

    // 3. Arbitrary-stride access (Section 6.3).
    {
        auto neon =
            ext::makeChannelExtract(opts, ext::StrideImpl::NeonUnzip);
        auto rvv =
            ext::makeChannelExtract(opts, ext::StrideImpl::StridedLoad);
        auto nrun = core::Runner::capture(*neon, core::Impl::Neon);
        auto rrun = core::Runner::capture(*rvv, core::Impl::Neon);
        trace::MixStats nmix, rmix;
        nmix.addTrace(nrun);
        rmix.addTrace(rrun);
        neon->runScalar();
        rvv->runScalar();
        const bool ok = neon->verify() && rvv->verify();
        t.addRow({"1-of-8-channel extract",
                  std::to_string(nmix.loadBytes() / 1024) +
                      " KiB loaded (VLD4+UZP)",
                  std::to_string(rmix.loadBytes() / 1024) +
                      " KiB loaded (vlse)",
                  ok ? "8x less memory traffic" : "VERIFY FAILED"});
    }

    // 4. Predicated tails at wide registers (Section 7.1).
    {
        const auto wide = sim::widerVectorConfig(1024);
        auto narrow = ext::makeAxpyTail(opts, ext::TailImpl::NarrowTail);
        auto pred = ext::makeAxpyTail(opts, ext::TailImpl::Predicated);
        const double s =
            cycles(session, *narrow, core::Impl::Scalar, wide);
        const double ntail =
            s / cycles(session, *narrow, core::Impl::Neon, wide, 1024);
        pred->runScalar();
        const double ptail =
            s / cycles(session, *pred, core::Impl::Neon, wide, 1024);
        const bool ok = narrow->verify() && pred->verify();
        t.addRow({"27-elem rows @ 1024-bit",
                  core::fmtX(ntail) + " (narrow tail)",
                  core::fmtX(ptail) + " (WHILELT)",
                  ok ? "tails no longer cap wide registers"
                     : "VERIFY FAILED"});
    }

    // 5. First-faulting loads for uncountable loops (Section 5.2).
    {
        auto neon =
            ext::makeStrlenScan(opts, ext::ScanImpl::NeonOverread);
        auto ff =
            ext::makeStrlenScan(opts, ext::ScanImpl::SveFirstFault);
        const double s = cycles(session, *neon, core::Impl::Scalar, prime);
        const double over =
            s / cycles(session, *neon, core::Impl::Neon, prime);
        ff->runScalar();
        const double ldff =
            s / cycles(session, *ff, core::Impl::Neon, prime);
        const bool ok = neon->verify() && ff->verify();
        t.addRow({"strlen over a string batch",
                  core::fmtX(over) + " (over-read)",
                  core::fmtX(ldff) + " (LDFF1)",
                  ok ? "uncountable loops vectorize safely"
                     : "VERIFY FAILED"});
    }

    t.print(std::cout);
    std::cout
        << "\nEach row re-runs a Section 5/6/7 pain point with the "
           "instruction the paper's\nSection 9 proposes; bench/ext_* "
           "print the full tables.\n";
    return 0;
}
