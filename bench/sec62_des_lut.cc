/**
 * @file
 * Section 6.2 reproduction: the DES look-up-table study. Without
 * gather/scatter intrinsics, the Neon DES implementation must export
 * every S-box index to a scalar register, look it up, and re-insert it.
 * The paper measures: (a) Neon-with-LUT ~11% *slower* than scalar;
 * (b) with the look-up tables replaced by arithmetic, Neon beats Scalar
 * by ~2.1x; (c) ~73% of the Neon-with-LUT instructions are table
 * look-up traffic.
 */

#include "bench_common.hh"

namespace swan::workloads::boringssl
{
std::unique_ptr<core::Workload> makeDesLut(const core::Options &,
                                           bool use_lut);
} // namespace swan::workloads::boringssl

using namespace swan;

int
main()
{
    const Session session = Session::fromEnv();
    const auto cfg = sim::primeConfig();

    auto measure = [&](bool use_lut) {
        auto w = workloads::boringssl::makeDesLut(
            session.options().workload, use_lut);
        auto s = session.run(*w, core::Impl::Scalar, cfg);
        auto n = session.run(*w, core::Impl::Neon, cfg);
        const bool ok = w->verify();
        return std::tuple<core::KernelRun, core::KernelRun, bool>(
            std::move(s), std::move(n), ok);
    };

    auto [s_lut, n_lut, ok1] = measure(true);
    auto [s_arith, n_arith, ok2] = measure(false);

    // Look-up traffic share: lane moves + the scalar loads of the table
    // inside the Neon implementation.
    const double lut_share =
        100.0 *
        double(n_lut.mix.count(trace::InstrClass::VMisc) +
               n_lut.mix.count(trace::InstrClass::SLoad)) /
        double(n_lut.mix.total());

    core::banner(std::cout, "Section 6.2: DES look-up-table study");
    core::Table t({"Variant", "Neon vs Scalar", "Paper"});
    t.addRow({"With look-up tables",
              core::fmtX(double(s_lut.sim.cycles) /
                         double(n_lut.sim.cycles)),
              "0.89x (11% slowdown)"});
    t.addRow({"Look-up tables removed",
              core::fmtX(double(s_arith.sim.cycles) /
                         double(n_arith.sim.cycles)),
              "2.1x"});
    t.print(std::cout);

    std::cout << "\nTable look-up traffic share of the Neon-with-LUT "
                 "implementation: "
              << core::fmtPct(lut_share, 0) << " (paper: 73%)\n"
              << "Outputs verified: " << (ok1 && ok2 ? "yes" : "NO")
              << "\n";
    return ok1 && ok2 ? 0 : 1;
}
