/**
 * @file
 * Table 4 reproduction: the auto-vectorization census. Buckets every
 * kernel's Auto implementation against Scalar and Neon by measured
 * speedup, and reports the Section 5.2 failure-reason counts from the
 * legality model.
 *
 * A view over the Figure 2 grid (bench::runExperiment): with
 * SWAN_SWEEP_CACHE_DIR shared with fig02_perf_energy, every point is
 * served from its cache.
 */

#include "bench_common.hh"

#include "swan/autovec.hh"

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
        "tab04");

    std::vector<autovec::SpeedupPair> pairs;
    std::array<int, 5> reason_counts{};
    int vectorizes = 0;
    for (const auto *spec : bench::headlineKernels()) {
        const std::string qn = spec->info.qualifiedName();
        const auto cycles = [&](core::Impl impl) {
            return double(results.find(qn, impl, 128)->run.sim.cycles);
        };
        const double scalar = cycles(core::Impl::Scalar);
        pairs.push_back({scalar / cycles(core::Impl::Auto),
                         scalar / cycles(core::Impl::Neon)});
        const auto &v = spec->info.autovec;
        if (v.vectorizes) {
            ++vectorizes;
        } else {
            using autovec::Fail;
            const Fail fails[] = {Fail::Uncountable, Fail::IndirectMemory,
                                  Fail::ComplexPhi, Fail::OtherLegality,
                                  Fail::CostModel};
            for (size_t i = 0; i < 5; ++i)
                if (autovec::has(v.failReasons, fails[i]))
                    ++reason_counts[i];
        }
    }

    auto t4 = autovec::census(pairs);

    core::banner(std::cout, "Table 4: Auto vs Scalar and Auto vs Neon");
    core::Table t({"Bucket", "Measured", "Paper"});
    t.addRow({"Auto ~= Scalar", std::to_string(t4.autoApproxScalar),
              "34"});
    t.addRow({"Auto < Scalar", std::to_string(t4.autoBelowScalar), "2"});
    t.addRow({"Auto > Scalar (#boosted)",
              std::to_string(t4.autoAboveScalar), "23"});
    t.addRow({"  of boosted: Auto ~= Neon",
              std::to_string(t4.autoApproxNeon), "6"});
    t.addRow({"  of boosted: Auto < Neon",
              std::to_string(t4.autoBelowNeon), "12"});
    t.addRow({"  of boosted: Auto > Neon",
              std::to_string(t4.autoAboveNeon), "5"});
    t.print(std::cout);

    core::banner(std::cout,
                 "Section 5.2: vectorization-failure reasons (legality "
                 "model; kernels can trip several)");
    core::Table r({"Reason", "Kernels", "Paper"});
    r.addRow({"Uncountable loop", std::to_string(reason_counts[0]), "8"});
    r.addRow({"Indirect memory access", std::to_string(reason_counts[1]),
              "8"});
    r.addRow({"Complex PHI / dependence", std::to_string(reason_counts[2]),
              "9"});
    r.addRow({"Other legality", std::to_string(reason_counts[3]), "10"});
    r.addRow({"Cost model", std::to_string(reason_counts[4]), "12"});
    r.print(std::cout);

    std::cout << "\nKernels the legality model lets vectorize: "
              << vectorizes << " (paper: 23)\n";
    return 0;
}
