/**
 * @file
 * The Swan kernel abstraction: each of the suite's 59 data-parallel
 * kernels is a Workload with a Scalar reference implementation, an
 * explicitly vectorized Neon implementation (width-generic for the eight
 * Figure-5 kernels), an optional Auto implementation mirroring what
 * Clang's auto-vectorizer produces, output verification (the paper
 * validates Neon against Scalar outputs), and metadata: library, domain,
 * computation patterns (Section 6) and the auto-vectorization verdict
 * (Section 5.2).
 */

#ifndef SWAN_CORE_KERNEL_HH
#define SWAN_CORE_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "autovec/legality.hh"
#include "core/options.hh"

namespace swan::core
{

/** Application domain of a library (Table 2). */
enum class Domain
{
    ImageProcessing,
    Graphics,
    AudioProcessing,
    DataCompression,
    Cryptography,
    StringUtilities,
    VideoProcessing,
    MachineLearning,
};

std::string_view name(Domain d);

/** Computation patterns of Section 6 (bitmask). */
enum class Pattern : uint32_t
{
    None = 0,
    Reduction = 1u << 0,          //!< Section 6.1
    RandomAccess = 1u << 1,       //!< Section 6.2 (look-up tables)
    StridedAccess = 1u << 2,      //!< Section 6.3 (ld2/3/4, zip/uzp)
    Transpose = 1u << 3,          //!< Section 6.4
    VectorApi = 1u << 4,          //!< Section 6.5 (portable vector APIs)
    LoopDistribution = 1u << 5,   //!< Section 6.1 Adler-32 style rewrite
};

inline uint32_t
operator|(Pattern a, Pattern b)
{
    return uint32_t(a) | uint32_t(b);
}
inline uint32_t
operator|(uint32_t a, Pattern b)
{
    return a | uint32_t(b);
}
inline bool
has(uint32_t mask, Pattern p)
{
    return (mask & uint32_t(p)) != 0;
}

std::string_view name(Pattern p);

/** Static metadata of one kernel. */
struct KernelInfo
{
    std::string library;    //!< e.g. "libjpeg-turbo"
    std::string symbol;     //!< Table 2 symbol, e.g. "LJ"
    std::string name;       //!< e.g. "rgb_to_ycbcr"
    Domain domain = Domain::ImageProcessing;
    uint32_t patterns = 0;  //!< Pattern bitmask
    autovec::Verdict autovec;
    bool widerWidths = false;   //!< one of the eight Figure-5 kernels
    uint64_t flopsHint = 0;     //!< useful ops per invocation (Figure 6)
    /**
     * Excluded from headline geomeans, like the paper's DES kernel
     * (Section 6.2), which only exists for the look-up-table study.
     */
    bool excluded = false;

    std::string
    qualifiedName() const
    {
        return symbol + "/" + name;
    }
};

/**
 * A runnable kernel instance holding its inputs and per-implementation
 * outputs. run* methods execute under the ambient trace recorder (or at
 * full host speed when none is installed).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Heap-allocated workloads register their own storage as a region
     * of the canonical trace address space (trace/canon.hh): member
     * arrays (AES T-tables, CRC tables, ...) are addressed by the
     * kernels, so they must translate like the workloads' heap buffers.
     */
    static void *operator new(size_t bytes);
    static void operator delete(void *p, size_t bytes);

    /** Scalar reference implementation (instrumented via simd::Sc). */
    virtual void runScalar() = 0;

    /**
     * Explicit Neon implementation. @p vec_bits is 128 unless the kernel
     * supports the wider-register study (KernelInfo::widerWidths).
     */
    virtual void runNeon(int vec_bits) = 0;

    /**
     * What Clang's auto-vectorizer produces for the scalar loop. Default:
     * vectorization fails and the scalar code runs unchanged. Kernels
     * with Verdict::vectorizes override this.
     */
    virtual void runAuto() { runScalar(); }

    /** Compare Scalar and Neon outputs (paper's correctness check). */
    virtual bool verify() = 0;

    /** Useful arithmetic operations of one invocation (Figure 6). */
    virtual uint64_t flops() const { return 0; }
};

/** Factory + metadata registered with the suite. */
struct KernelSpec
{
    KernelInfo info;
    std::function<std::unique_ptr<Workload>(const Options &)> make;
};

} // namespace swan::core

#endif // SWAN_CORE_KERNEL_HH
