/**
 * @file
 * Section 7.1 tail-handling study. The paper's wider-register GEMM loses
 * SIMD utilization (98% at 128 bits down to 89% at 1024 bits) because
 * the output column count is not evenly divisible by the lane count, so
 * Neon falls back to narrower registers for the remainder. SVE's WHILELT
 * predication runs the tail at full width under a governing mask. This
 * workload isolates that effect: row-wise y += a*x over rows whose
 * length leaves a remainder at every supported width, comparing the
 * Neon narrow-tail and SVE predicated strategies from 128 to 1024 bits.
 */

#include "workloads/ext/ext.hh"

#include "workloads/common.hh"

namespace swan::workloads::ext
{

using namespace swan::simd;
using core::Options;
using core::Workload;

namespace
{

class AxpyTail : public Workload
{
  public:
    /** Row length with a remainder at widths 4..32 lanes of f32. */
    static constexpr size_t kRowLen = 27;

    AxpyTail(const Options &opts, TailImpl impl) : impl_(impl)
    {
        Rng rng(opts.seed ^ 0xa17ull);
        rows_ = std::max<size_t>(
            size_t(opts.bufferBytes) / (kRowLen * sizeof(float)), 8);
        x_ = randomFloats(rng, rows_ * kRowLen);
        y0_ = randomFloats(rng, rows_ * kRowLen);
        a_ = rng.f32(0.5f, 2.0f);
        outScalar_.assign(rows_ * kRowLen, 0.0f);
        outNeon_.assign(rows_ * kRowLen, 1.0f);
    }

    void
    runScalar() override
    {
        Sc<float> a(a_);
        for (size_t r = 0; r < rows_; ++r) {
            const size_t base = r * kRowLen;
            for (size_t i = 0; i < kRowLen; ++i) {
                Sc<float> xv = sload(&x_[base + i]);
                Sc<float> yv = sload(&y0_[base + i]);
                sstore(&outScalar_[base + i], yv + a * xv);
                ctl::loop();
            }
            ctl::loop();
        }
    }

    void
    runNeon(int vec_bits) override
    {
        switch (vec_bits) {
          case 256:
            neonImpl<256>();
            break;
          case 512:
            neonImpl<512>();
            break;
          case 1024:
            neonImpl<1024>();
            break;
          default:
            neonImpl<128>();
            break;
        }
    }

    bool
    verify() override
    {
        return approxOutputs(outScalar_, outNeon_);
    }

    uint64_t flops() const override { return 2 * rows_ * kRowLen; }

  private:
    template <int B>
    void
    neonImpl()
    {
        if (impl_ == TailImpl::Predicated)
            predicated<B>();
        else
            narrowTail<B>();
    }

    /**
     * Neon strategy (what the paper's wide GEMM does, Section 7.1):
     * full vectors while they fit, then the remainder cascades through
     * narrower registers (..., 128-bit Q, 64-bit D) and finishes with
     * scalar iterations. Every tail op runs far below machine width.
     */
    template <int B>
    void
    narrowTail()
    {
        for (size_t r = 0; r < rows_; ++r) {
            const size_t base = r * kRowLen;
            size_t i = chunkAt<B>(base, 0);
            // Scalar remainder (< 2 lanes).
            Sc<float> a(a_);
            for (; i < kRowLen; ++i) {
                Sc<float> xv = sload(&x_[base + i]);
                Sc<float> yv = sload(&y0_[base + i]);
                sstore(&outNeon_[base + i], yv + a * xv);
                ctl::loop();
            }
            ctl::loop();
        }
    }

    /** Run full W-bit vectors from @p i, then recurse to W/2. */
    template <int W>
    size_t
    chunkAt(size_t base, size_t i)
    {
        constexpr size_t kL = size_t(Vec<float, W>::kLanes);
        if (kRowLen - i >= kL) {
            const auto av = vdup<float, W>(a_);
            for (; i + kL <= kRowLen; i += kL) {
                auto xv = vld1<W>(&x_[base + i]);
                auto yv = vld1<W>(&y0_[base + i]);
                vst1(&outNeon_[base + i], vmla(yv, av, xv));
                ctl::loop();
            }
        }
        if constexpr (W > 64)
            return chunkAt<W / 2>(base, i);
        else
            return i;
    }

    /**
     * SVE strategy: a single WHILELT-governed loop; the final iteration
     * runs at full width with inactive lanes masked off.
     */
    template <int B>
    void
    predicated()
    {
        constexpr size_t kL = size_t(Vec<float, B>::kLanes);
        const auto av = vdup<float, B>(a_);
        for (size_t r = 0; r < rows_; ++r) {
            const size_t base = r * kRowLen;
            for (size_t i = 0; i < kRowLen; i += kL) {
                auto pg = whilelt<float, B>(int64_t(i), int64_t(kRowLen));
                auto xv = vld1_m(&x_[base + i], pg);
                auto yv = vld1_m(&y0_[base + i], pg);
                vst1_m(&outNeon_[base + i], vmla_m(pg, yv, av, xv), pg);
                ctl::loop();
            }
            ctl::loop();
        }
    }

    TailImpl impl_;
    size_t rows_ = 0;
    float a_ = 1.0f;
    Buf<float> x_, y0_;
    Buf<float> outScalar_, outNeon_;
};

} // namespace

std::unique_ptr<Workload>
makeAxpyTail(const Options &opts, TailImpl impl)
{
    return std::make_unique<AxpyTail>(opts, impl);
}

} // namespace swan::workloads::ext
