/**
 * @file
 * Ablation study of the Section 5.2 cache-locality claim: "Lower cache
 * hit-rate drops vector processing speedup in data-parallel kernels
 * with large working set size." The paper observes it across libraries
 * (LJ/LP reach only 3.3x despite 8-bit pixels and a theoretical 16x
 * VRE, because their working sets spill past the LLC); this bench
 * demonstrates the mechanism on a single kernel by sweeping its input
 * from L1-resident to DRAM-resident and holding everything else fixed.
 *
 * Two kernels bracket the effect: LJ/rgb_to_ycbcr (streaming 8-bit
 * image kernel — the paper's poster child for the locality cliff) and
 * BS/sha256 (compute-dense crypto kernel whose dozens of operations
 * per byte hide memory latency at every footprint).
 */

#include "bench_common.hh"

using namespace swan;

namespace
{

struct SweepPoint
{
    const char *label;
    int width;
    int height;
};

/** Input footprint of rgb_to_ycbcr in KiB: 3 B/px in, 1 B/px out. */
double
imageKiB(const SweepPoint &p)
{
    return double(p.width) * double(p.height) * 4.0 / 1024.0;
}

} // namespace

int
main()
{
    const auto *kernel = core::Registry::instance().find("LJ/rgb_to_ycbcr");
    const auto *control = core::Registry::instance().find("BS/sha256");
    if (!kernel || !control) {
        std::cerr << "registry is missing the swept kernels\n";
        return 1;
    }
    const auto cfg = sim::primeConfig();
    const Session session = Session::fromEnv();

    core::banner(std::cout,
                 "Ablation: working-set size vs Neon speedup "
                 "(Section 5.2 locality claim)");
    std::cout << "Cache hierarchy (Table 3): L1D 64 KiB, L2 512 KiB, "
                 "LLC 2 MiB.\n\n";

    // From comfortably L1-resident through L2- and LLC-resident to
    // DRAM-resident (the paper's HD inputs are the last row).
    const SweepPoint sweep[] = {
        {"L1-resident", 64, 48},
        {"L2-resident", 192, 160},
        {"LLC-resident", 480, 270},
        {"2x LLC", 720, 540},
        {"DRAM-resident (paper HD)", 1280, 720},
    };

    core::Table t({"Working set", "KiB", "L1 hit (Neon)", "LLC MPKI (Neon)",
                   "Scalar IPC", "Neon IPC", "Neon speedup"});

    double smallSpeedup = 0.0, largeSpeedup = 0.0;
    for (const auto &p : sweep) {
        core::Options opts;
        opts.imageWidth = p.width;
        opts.imageHeight = p.height;
        auto w = kernel->make(opts);
        const auto scalar = session.run(*w, core::Impl::Scalar, cfg);
        const auto neon = session.run(*w, core::Impl::Neon, cfg);
        const double speedup =
            double(scalar.sim.cycles) / double(neon.sim.cycles);
        if (p.width == sweep[0].width)
            smallSpeedup = speedup;
        largeSpeedup = speedup;
        t.addRow({p.label, core::fmt(imageKiB(p), 0),
                  core::fmtPct(100.0 * neon.sim.l1HitRate),
                  core::fmt(neon.sim.llcMpki, 1),
                  core::fmt(scalar.sim.ipc, 2),
                  core::fmt(neon.sim.ipc, 2), core::fmtX(speedup)});
    }
    t.print(std::cout);

    std::cout << "\nCache-resident vs DRAM-resident Neon speedup: "
              << core::fmtX(smallSpeedup) << " -> "
              << core::fmtX(largeSpeedup) << "\n";

    // Control: a compute-dense kernel. SHA-256 executes dozens of
    // operations per input byte, so memory latency hides behind compute
    // and the speedup must stay flat over the same footprint sweep —
    // the paper's crypto libraries keep their standout speedup at every
    // input size (Section 5.2).
    core::Table c({"Buffer", "KiB", "L1 hit (Neon)", "Neon speedup"});
    double minCtl = 1e9, maxCtl = 0.0;
    // Capped at 1 MiB (2x LLC): scalar SHA-256 runs ~59 instructions
    // per input byte (62 M at 1 MiB), and each run holds its whole
    // packed trace while it replays. That point takes this bench to
    // ~360 MB of peak RSS (x86-64 Release build); every doubling of
    // the input doubles it and the replay time.
    for (int kib : {4, 64, 256, 1024}) {
        core::Options opts;
        opts.bufferBytes = kib * 1024;
        auto w = control->make(opts);
        const auto scalar = session.run(*w, core::Impl::Scalar, cfg);
        const auto neon = session.run(*w, core::Impl::Neon, cfg);
        const double speedup =
            double(scalar.sim.cycles) / double(neon.sim.cycles);
        minCtl = std::min(minCtl, speedup);
        maxCtl = std::max(maxCtl, speedup);
        c.addRow({std::string("sha256 ") + std::to_string(kib) + " KiB",
                  std::to_string(kib),
                  core::fmtPct(100.0 * neon.sim.l1HitRate),
                  core::fmtX(speedup)});
    }
    c.print(std::cout);

    const bool monotone_drop = largeSpeedup < smallSpeedup;
    const bool control_flat = (maxCtl - minCtl) < 0.2 * maxCtl;
    std::cout << "\nPaper anchor (Section 5.2): image kernels' large "
                 "working sets drop cache hit\nrates (LJ: 91%/90%/67% "
                 "L1/L2/LLC) and cap the speedup near 3.3x despite\n"
                 "16x VRE; cache-resident kernels keep the full vector "
                 "memory advantage.\n"
              << "Speedup falls with working set: "
              << (monotone_drop ? "yes" : "NO")
              << "; control stays flat: " << (control_flat ? "yes" : "NO")
              << "\n";
    return monotone_drop && control_flat ? 0 : 1;
}
