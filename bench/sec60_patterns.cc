/**
 * @file
 * Section 6 reproduction: the census of common computation patterns —
 * how many kernels exhibit each pattern (reduction, random/LUT access,
 * strided access, matrix transposition, portable vector APIs) and the
 * average fraction of kernel instructions the pattern's signature
 * instructions consume.
 */

#include "bench_common.hh"

using namespace swan;
using core::Pattern;
using trace::StrideKind;

int
main()
{
    struct Row
    {
        const char *label;
        Pattern pattern;
        int kernels = 0;
        std::vector<double> share;
    };
    Row rows[] = {{"Reduction (6.1)", Pattern::Reduction, 0, {}},
                  {"Random memory access / LUT (6.2)",
                   Pattern::RandomAccess, 0, {}},
                  {"Strided memory access (6.3)", Pattern::StridedAccess,
                   0, {}},
                  {"Matrix transposition (6.4)", Pattern::Transpose, 0, {}},
                  {"Portable vector APIs (6.5)", Pattern::VectorApi, 0, {}},
                  {"Loop distribution rewrite (6.1)",
                   Pattern::LoopDistribution, 0, {}}};

    const core::Options opts = core::Options::fromEnv();
    for (const auto *spec : bench::headlineKernels()) {
        auto w = spec->make(opts);
        auto instrs = core::Runner::capture(*w, core::Impl::Neon);
        trace::MixStats mix;
        mix.addTrace(instrs);
        for (auto &r : rows) {
            if (!core::has(spec->info.patterns, r.pattern))
                continue;
            ++r.kernels;
            double share = 0.0;
            switch (r.pattern) {
              case Pattern::StridedAccess:
                share = 100.0 * (mix.strideFraction(StrideKind::Ld2) +
                                 mix.strideFraction(StrideKind::St2) +
                                 mix.strideFraction(StrideKind::Ld3) +
                                 mix.strideFraction(StrideKind::St3) +
                                 mix.strideFraction(StrideKind::Ld4) +
                                 mix.strideFraction(StrideKind::St4) +
                                 mix.strideFraction(StrideKind::Zip) +
                                 mix.strideFraction(StrideKind::Uzp));
                break;
              case Pattern::Transpose:
                share = 100.0 * mix.strideFraction(StrideKind::Trn);
                break;
              default:
                // Patterns without a dedicated instruction signature are
                // censused by kernel count only.
                share = -1.0;
                break;
            }
            if (share >= 0)
                r.share.push_back(share);
        }
    }

    core::banner(std::cout,
                 "Section 6: common computation patterns across the "
                 "suite");
    core::Table t({"Pattern", "#Kernels", "Avg. signature-instr share"});
    for (const auto &r : rows) {
        t.addRow({r.label, std::to_string(r.kernels),
                  r.share.empty() ? std::string("-")
                                  : core::fmtPct(core::mean(r.share), 1)});
    }
    t.print(std::cout);
    std::cout << "\nPaper anchors: 7 reduction kernels, 7 random-access "
                 "kernels, 6 transposition kernels; LV's DCTs spend "
                 "~24% of instructions transposing; WA/PF rely on "
                 "portable vector APIs.\n";
    return 0;
}
