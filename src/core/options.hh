/**
 * @file
 * Problem-size options. Paper sizes (Section 4.1): 720x1280 images, 1 s of
 * 44.1 kHz audio, 128 KB buffers, 156 CNN layers. Cycle-accurate simulation
 * of all 59 kernels on one host core needs smaller defaults; setting
 * SWAN_FULL=1 (or Options::full()) restores paper sizes. Shapes and inner
 * loop structure are size-independent; DESIGN.md discusses fidelity.
 */

#ifndef SWAN_CORE_OPTIONS_HH
#define SWAN_CORE_OPTIONS_HH

#include <cstdint>

namespace swan::core
{

/** Workload input-size configuration. */
struct Options
{
    // Image / graphics / video libraries (pixels). The default keeps
    // the RGBA kernels' in+out footprint (8 B/px ~ 1 MiB) past the
    // 512 KiB L2 so the paper's cache-pressure and DRAM-rate effects
    // survive input scaling.
    int imageWidth = 480;
    int imageHeight = 270;

    // Audio libraries: samples per channel (44.1 kHz stream).
    int audioSamples = 4410;        //!< 0.1 s
    int audioFrame = 128;           //!< WebAudio render quantum

    // Data compression / crypto / string utilities (bytes).
    int bufferBytes = 16 * 1024;

    // Machine learning (XNNPACK GEMM/SpMM shapes).
    // N deliberately not divisible by wide-register lane counts, so the
    // Figure-5(a) utilization drop appears (Section 7.1); K sized so the
    // B panel exceeds L1 (the bursty-MPKI behavior of Table 5).
    int gemmM = 96;
    int gemmN = 92;
    int gemmK = 192;
    double spmmSparsity = 0.8;      //!< fraction of zero weights

    // Video coding block counts.
    int videoBlocks = 64;           //!< number of 16x16 blocks processed

    uint32_t seed = 0x5eed5a17u;

    /** Scaled defaults (CI-friendly). */
    static Options defaults() { return {}; }

    /** The paper's input sizes (Section 4.1). */
    static Options full();

    /** The smallest inputs: CI smoke runs and the "tiny" working set. */
    static Options tiny();

    /** defaults(), full() when SWAN_FULL=1, tiny() when SWAN_FAST=1. */
    static Options fromEnv();
};

} // namespace swan::core

#endif // SWAN_CORE_OPTIONS_HH
