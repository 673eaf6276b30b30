/**
 * @file
 * Future-ISA extension studies (DESIGN.md "Extensions"; the paper's
 * Section 9 future work). Each study is a Workload whose runNeon()
 * executes a selected implementation variant, so the standard
 * single-point measurement (Session::run) applies unchanged:
 *
 *  - LutTransform / DesGather: the Section 6.2 look-up-table kernels
 *    re-implemented with SVE/RVV-style vgather instead of Neon's
 *    export-lane/scalar-load/re-insert sequence.
 *  - ZConvolve: PFFFT's frequency-domain complex multiply-accumulate with
 *    the three instruction budgets of Section 6.5 (portable vector API,
 *    Armv8.2 fused multiply-add/subtract, Armv8.3 FCMLA).
 *  - Deinterleave8 / ChannelExtract: stride-8 audio access, Neon
 *    VLD4+UZP composition vs an RVV-style arbitrary-stride load
 *    (Section 6.3).
 *  - AxpyTail: loop tails when the trip count is not divisible by the
 *    lane count — Neon narrower-register tails vs SVE WHILELT
 *    predication (the Section 7.1 GEMM utilization problem).
 *
 * These kernels are deliberately *not* registered in the global registry:
 * the paper's headline results cover 59 Neon kernels, and the extension
 * studies would skew the library geomeans. Benches and tests construct
 * them through the factories below.
 */

#ifndef SWAN_WORKLOADS_EXT_EXT_HH
#define SWAN_WORKLOADS_EXT_EXT_HH

#include <memory>

#include "core/kernel.hh"
#include "core/options.hh"

namespace swan::workloads::ext
{

/** Vectorized look-up-table strategy (Section 6.2 / Section 9). */
enum class LutImpl
{
    LaneExport,     //!< Neon: export lane, scalar load, re-insert
    Gather,         //!< future ISA: one indexed vector load
};

/**
 * The paper's Section 6.2 LU_TBL kernel: vals[i] = table[keys[i]] over a
 * 1024-entry 32-bit table (too large for Neon TBL registers).
 */
std::unique_ptr<core::Workload> makeLutTransform(const core::Options &,
                                                 LutImpl impl);

/**
 * DES-like Feistel cipher (the paper's excluded BS kernel) with the
 * eight S-box look-ups per round implemented per @p impl.
 */
std::unique_ptr<core::Workload> makeDesGather(const core::Options &,
                                              LutImpl impl);

/** Complex multiply-accumulate instruction budget (Section 6.5). */
enum class ComplexImpl
{
    Portable,   //!< basic vector API only: mul/sub/add on split re/im
    Fmla,       //!< Armv8.2 fused multiply-add/subtract on split re/im
    Fcmla,      //!< Armv8.3 FCMLA rot0+rot90 on interleaved data
};

/**
 * PFFFT-style frequency-domain convolution ab += a*b over a complex
 * spectrum, with the complex MAC built from @p impl's instruction set.
 */
std::unique_ptr<core::Workload> makeZConvolve(const core::Options &,
                                              ComplexImpl impl);

/** Strategy for memory access with stride above Neon's maximum of 4. */
enum class StrideImpl
{
    NeonUnzip,      //!< compose VLD4 pairs + UZP stages
    StridedLoad,    //!< RVV-style single arbitrary-stride load
};

/** Fully de-interleave an 8-channel 16-bit audio stream. */
std::unique_ptr<core::Workload> makeDeinterleave8(const core::Options &,
                                                  StrideImpl impl);

/** Extract one channel of an 8-channel stream (stride-8 sparse use). */
std::unique_ptr<core::Workload> makeChannelExtract(const core::Options &,
                                                   StrideImpl impl);

/** Vectorization strategy for uncountable scan loops (Section 5.2). */
enum class ScanImpl
{
    NeonOverread,   //!< full-vector loads + reduce + lane-export locate
    SveFirstFault,  //!< LDFF1/RDFFR governed loop, no over-read
};

/**
 * Batched strlen over a buffer of NUL-terminated strings — the
 * uncountable-loop pattern that blocks auto-vectorization in eight
 * kernels (Section 5.2, Example 1).
 */
std::unique_ptr<core::Workload> makeStrlenScan(const core::Options &,
                                               ScanImpl impl);

/**
 * Target instruction set for the WebAssembly SIMD porting study (the
 * paper's Section 9 "Vectorized Mobile Web Applications" future work).
 */
enum class WasmIsa
{
    NeonNative,     //!< full Arm Neon (VLD3, ADDV, VMLAL, SHA256, FMLA)
    Simd128,        //!< the fixed WebAssembly SIMD128 proposal
    Relaxed,        //!< SIMD128 + relaxed-simd (adds fused madd)
};

/**
 * libjpeg-turbo's RGB-to-Y conversion ported to @p isa: wasm has no
 * de-interleaving VLD3, so the RGB planes are separated with shuffle
 * cascades, and no widening multiply-accumulate, so VMLAL splits into
 * extmul + add (Section 6.3's strided-access gap at the wasm layer).
 */
std::unique_ptr<core::Workload> makeWasmRgbToY(const core::Options &,
                                               WasmIsa isa);

/**
 * zlib's Adler-32 ported to @p isa: wasm has no across-vector reduction
 * (ADDV/SADDLV) or pairwise-accumulate (VPADAL); horizontal sums fold via
 * shuffle+add cascades (Section 6.1's reduction pattern).
 */
std::unique_ptr<core::Workload> makeWasmAdler32(const core::Options &,
                                                WasmIsa isa);

/**
 * A WebAudio-style 4-tap FIR filter ported to @p isa: the base proposal
 * has no fused multiply-add (mul + add per tap); relaxed-simd's
 * f32x4.relaxed_madd restores Neon FMLA parity (Section 6.5's
 * portable-API instruction budget, recreated at the wasm layer).
 */
std::unique_ptr<core::Workload> makeWasmFirFilter(const core::Options &,
                                                  WasmIsa isa);

/**
 * boringssl's SHA-256 ported to @p isa: wasm exposes no cryptography
 * instructions and the round dependence chain defeats generic SIMD, so
 * the wasm port runs scalar rounds — quantifying how much of ZL/BS's
 * standout Figure-2 speedup is the crypto extension (Section 5.1).
 */
std::unique_ptr<core::Workload> makeWasmSha256(const core::Options &,
                                               WasmIsa isa);

/** Loop-tail strategy when the trip count is not lane-divisible. */
enum class TailImpl
{
    NarrowTail,     //!< Neon: full-width body + partial-vector tail
    Predicated,     //!< SVE: WHILELT-governed full-width loop
};

/**
 * Row-wise y += a*x over rows whose length is deliberately not divisible
 * by any vector lane count. Width-generic (KernelInfo::widerWidths
 * analogue): runNeon(vec_bits) accepts 128/256/512/1024.
 */
std::unique_ptr<core::Workload> makeAxpyTail(const core::Options &,
                                             TailImpl impl);

} // namespace swan::workloads::ext

#endif // SWAN_WORKLOADS_EXT_EXT_HH
