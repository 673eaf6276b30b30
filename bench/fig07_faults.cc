/**
 * @file
 * Figure 7 (extension): fault-injection robustness study. Replays four
 * representative kernels — a checksum reduction, a crypto hash, a
 * strided image conversion and an audio inner product — clean and
 * under each fault scenario of the catalog (swan/faults.hh), all with
 * one seed, and reports the cycle/energy inflation each perturbation
 * costs on the prime core. Scenarios ride the ordinary sweep grid as a
 * fault axis, so every number here is deterministic: the same seed
 * gives byte-identical results for any job count, and faulted points
 * never share cache entries with clean ones.
 */

#include "bench_common.hh"

#include "swan/faults.hh"

using namespace swan;

namespace
{

/** The scenario axis: one clean point plus every catalog scenario,
 *  all pinned to one seed so the figure is reproducible. The default
 *  50k-instruction period dwarfs the shortest kernels' traces (an
 *  inner product retires ~1k instructions per pass), so the windows
 *  are densified to a 2000/1000 half-duty cycle — every scenario
 *  provably fires on every kernel in the table. */
const std::vector<std::string> &
faultAxis()
{
    static const std::vector<std::string> axis = {
        "none",
        "dram-spike:seed=7:period=2000:duration=1000",
        "cache-flush:seed=7:period=2000:duration=1000",
        "mispredict-burst:seed=7:period=2000:duration=1000",
        "firstfault:seed=7:period=2000:duration=1000",
    };
    return axis;
}

const sweep::SweepResult *
resultFor(const Results &results, const std::string &kernel,
          const std::string &fault)
{
    for (const auto &r : results)
        if (r.point.spec->info.qualifiedName() == kernel &&
            r.point.faultName == fault)
            return &r;
    return nullptr;
}

/** "1.23x" cycle inflation of the faulted point over the clean one. */
std::string
inflation(const sweep::SweepResult *clean, const sweep::SweepResult *hurt)
{
    if (!clean || !hurt)
        return "-";
    return core::fmtX(double(hurt->run.sim.cycles) /
                      double(clean->run.sim.cycles));
}

} // namespace

int
main()
{
    const std::vector<std::string> kernels = {
        "ZL/adler32",
        "BS/sha256",
        "LJ/rgb_to_ycbcr",
        "LO/inner_product",
    };

    Session session = Session::fromEnv();
    Results results = bench::runExperiment(Experiment(session)
                                               .kernels(kernels)
                                               .impl(core::Impl::Neon)
                                               .config("prime")
                                               .workingSet("default")
                                               .faults(faultAxis()),
                                           "fig07_faults");

    core::banner(std::cout,
                 "Figure 7: cycle inflation under fault injection "
                 "(prime core, Neon, seed 7)");
    core::Table t({"Kernel", "Clean cycles", "dram-spike", "cache-flush",
                   "mispredict-burst", "firstfault"});
    for (const auto &k : kernels) {
        const auto *clean = resultFor(results, k, "none");
        std::vector<std::string> row = {
            k, clean ? std::to_string(clean->run.sim.cycles) : "-"};
        for (size_t f = 1; f < faultAxis().size(); ++f)
            row.push_back(
                inflation(clean, resultFor(results, k, faultAxis()[f])));
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\nScenario parameters (canonical spec forms):\n";
    for (size_t f = 1; f < faultAxis().size(); ++f) {
        sim::FaultSpec spec;
        std::string err;
        if (sim::FaultSpec::parse(faultAxis()[f], &spec, &err))
            std::cout << "  " << spec.describe() << "\n";
    }

    std::cout << "\nReading: cache-flush storms re-cool the hierarchy "
                 "mid-run and tax every kernel; mispredict-burst bites "
                 "only branchy control flow (the crypto rounds). The "
                 "flat columns are findings, not dead code: dram-spike "
                 "multiplies DRAM latency, but at these working sets "
                 "every paper kernel is LLC-resident, so a memory-"
                 "latency fault is invisible — and firstfault truncates "
                 "multi-element (gather/scatter/strided) accesses to a "
                 "lane prefix, a shape the Neon kernel set never emits "
                 "(no hardware gather; SVE-style traces are where it "
                 "fires). Both actuators are exercised against "
                 "synthetic DRAM-bound and gather-heavy traces in "
                 "tests/test_faults.cc.\n";
    return 0;
}
