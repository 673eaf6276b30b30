/**
 * @file
 * WebAudio render-quantum example: a small audio graph — gain, mix,
 * clip, loudness check and an FFT analysis node — processed the way the
 * Webaudio module renders 128-sample frames through its portable vector
 * APIs (Section 6.5). Shows why WA's speedup saturates even though every
 * kernel is data-parallel.
 */

#include <iostream>

#include "swan/swan.hh"

using namespace swan;

int
main()
{
    const std::vector<std::string> graph = {
        "WA/gain_node", "WA/vadd", "WA/vclip", "WA/audible",
        "WA/deinterleave_channels", "PF/fft_forward",
        "PF/zconvolve_accumulate", "PF/fft_inverse"};

    Session session = Session::fromEnv();
    std::string err;
    const Results results = Experiment(session)
                                .kernels(graph)
                                .impls({core::Impl::Scalar,
                                        core::Impl::Neon})
                                .config("prime")
                                .run(&err);
    if (results.empty()) {
        std::cerr << "audio_pipeline: " << err << "\n";
        return 1;
    }

    core::banner(std::cout,
                 "WebAudio graph: gain -> mix -> clip -> analyze "
                 "(Prime core)");
    core::Table t({"Node", "Neon speedup", "Ld/St share", "Verified"});

    double ldst_total = 0;
    int n = 0;
    // One row per node, in graph order: Neon over its Scalar baseline.
    for (const auto &node : results.speedupVs(core::Impl::Scalar)) {
        const core::KernelSpec &spec = *node.point->point.spec;
        const trace::MixStats &mix = node.point->run.mix;
        const double ldst =
            100.0 * (mix.fraction(trace::PaperClass::VLoad) +
                     mix.fraction(trace::PaperClass::VStore));
        ldst_total += ldst;
        ++n;
        // The paper's correctness check, untraced (full host speed).
        auto w = spec.make(session.options().workload);
        w->runScalar();
        w->runNeon(128);
        t.addRow({spec.info.qualifiedName(), core::fmtX(node.speedup()),
                  core::fmtPct(ldst, 0), w->verify() ? "yes" : "NO"});
    }
    t.print(std::cout);

    std::cout << "\nAverage vector load/store share across the graph: "
              << core::fmtPct(ldst_total / n, 0)
              << " — the portable-API cost the paper quantifies as ~59% "
                 "for WA (Section 6.5).\n";
    return 0;
}
