/**
 * @file
 * Runtime ISA dispatch for the vectorized replay engine.
 *
 * The hot halves of `sim::replay` — batch varint decode
 * (trace/packed_batch*.cc) and the issue-slot ring scan
 * (sim/core_model.cc) — exist in several specializations: a portable
 * SWAR baseline that any 64-bit target runs, an AVX2+BMI2 kernel
 * (pext-based varint extraction, masked slot scans) and an AArch64
 * NEON variant. Which one actually runs is decided exactly once per
 * process, here, from what the CPU reports at startup — never per
 * call, and never differently mid-run.
 *
 * Selection policy (first match wins):
 *   1. the library was built with -DSWAN_SIMD=OFF  -> scalar fallback
 *   2. SWAN_SIMD environment override              -> that level
 *      ("scalar" | "swar" | "native"; anything else = auto)
 *   3. runtime CPU detection                       -> best available
 *
 * Every specialization is *bit-identical* in output to the scalar
 * fallback — the selection is pure throughput, which is why an env
 * override and a forced-scalar build leg are safe (and CI runs one):
 * the determinism contract (byte-identical emitter output across
 * jobs x memo-budget) never depends on the level.
 *
 * The struct below is also the introspection surface: `swan version`
 * and the run-report JSON (obs/report.cc) print it so every bench
 * artifact is attributable to the code path that produced it.
 */

#ifndef SWAN_INTERNAL_SIMD_DISPATCH_HH
#define SWAN_INTERNAL_SIMD_DISPATCH_HH

#include <cstdint>

namespace swan::detail
{

/** Dispatch level, ordered by specialization. */
enum class SimdLevel : uint8_t
{
    Scalar, //!< guaranteed fallback: the ctz word-at-a-time decoder
    Swar,   //!< portable 64-bit SWAR batch kernels (any target)
    Avx2,   //!< x86-64 AVX2 + BMI2 (pext varint extraction, slot scan)
    Neon,   //!< AArch64 NEON (16-byte window probe)
};

/** The selected code path, fixed for the process lifetime. */
struct SimdDispatch
{
    SimdLevel level;
    const char *isa;          //!< detected ISA, e.g. "x86-64+avx2+bmi2"
    const char *decodeKernel; //!< selected batch-decode kernel name
    const char *stepKernel;   //!< selected step/slot-scan kernel name
    bool forced;              //!< build gate or SWAN_SIMD forced a level
};

/**
 * The process-wide selection (thread-safe, computed on first use).
 * Kernels consult this once and cache the result; introspection
 * consumers (CLI, run report) read the strings.
 */
const SimdDispatch &simdDispatch() noexcept;

} // namespace swan::detail

#endif // SWAN_INTERNAL_SIMD_DISPATCH_HH
