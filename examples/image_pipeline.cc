/**
 * @file
 * Image-decode pipeline example: the kernels a browser runs to display a
 * PNG/JPEG — PNG row de-filtering, color-space conversion, chroma
 * downsampling and Skia compositing — measured as a pipeline, the way
 * Table 2 attributes Chromium execution time to these libraries.
 */

#include <iostream>

#include "swan/swan.hh"

using namespace swan;

int
main()
{
    const std::vector<std::string> stages = {
        "LP/defilter_paeth", "LP/expand_palette", "LJ/ycbcr_to_rgb",
        "LJ/downsample_h2v2", "SK/rgba_premultiply",
        "SK/blit_row_srcover"};

    Session session = Session::fromEnv();
    std::string err;
    const Results results = Experiment(session)
                                .kernels(stages)
                                .impls({core::Impl::Scalar,
                                        core::Impl::Neon})
                                .config("prime")
                                .run(&err);
    if (results.empty()) {
        std::cerr << "image_pipeline: " << err << "\n";
        return 1;
    }

    core::banner(std::cout,
                 "Image pipeline: PNG de-filter -> color convert -> "
                 "composite (Prime core)");
    core::Table t({"Stage", "Scalar (us)", "Neon (us)", "Speedup",
                   "Verified"});

    double total_scalar = 0, total_neon = 0;
    // One row per stage, in pipeline order: Neon over its Scalar
    // baseline.
    for (const auto &stage : results.speedupVs(core::Impl::Scalar)) {
        const core::KernelSpec &spec = *stage.point->point.spec;
        const double scalar = stage.baseline->run.sim.timeSec;
        const double neon = stage.point->run.sim.timeSec;
        total_scalar += scalar;
        total_neon += neon;
        // The paper's correctness check, untraced (full host speed).
        auto w = spec.make(session.options().workload);
        w->runScalar();
        w->runNeon(128);
        t.addRow({spec.info.qualifiedName(), core::fmt(scalar * 1e6, 1),
                  core::fmt(neon * 1e6, 1), core::fmtX(stage.speedup()),
                  w->verify() ? "yes" : "NO"});
    }
    t.print(std::cout);

    std::cout << "\nWhole pipeline: " << core::fmt(total_scalar * 1e6, 1)
              << " us scalar -> " << core::fmt(total_neon * 1e6, 1)
              << " us Neon ("
              << core::fmtX(total_scalar / total_neon)
              << "); Amdahl: the carried-dependence de-filters bound "
                 "the pipeline gain.\n";
    return 0;
}
