/**
 * @file
 * Section 6.5 complex multiply-accumulate study. PFFFT's portable vector
 * API restricts its frequency-domain convolution (zconvolve) to basic
 * intrinsics: the paper counts six instructions and eight Cortex-A76
 * cycles per complex multiplication, four instructions and five cycles
 * with Armv8.2 fused multiply-add/subtract, and a two-cycle FCMLA on
 * Armv8.3 (Cortex-A710) that no portable API exposes. This workload
 * implements the same ab += a*b spectrum convolution on interleaved
 * (re, im) data — the layout audio APIs hand over — with each of the
 * three instruction budgets:
 *
 *  - Portable: TRN1/TRN2/REV64/EOR to split and sign-flip the operands,
 *    then plain multiplies and adds (eight vector ops per register of
 *    complex pairs).
 *  - Fmla: the same permute preamble, but fused multiply-adds into the
 *    accumulator (six ops).
 *  - Fcmla: FCMLA #0 + FCMLA #90 — two ops, no permutes.
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

class ZConvolve : public Workload
{
  public:
    ZConvolve(const Options &opts, ComplexImpl impl) : impl_(impl)
    {
        Rng rng(opts.seed ^ 0x2c07ull);
        // One complex bin per audio sample; interleaved (re, im).
        n_ = size_t(std::max(opts.audioSamples, 64)) & ~7ull;
        a_ = randomFloats(rng, 2 * n_);
        b_ = randomFloats(rng, 2 * n_);
        acc0_ = randomFloats(rng, 2 * n_);
        // Sign mask flipping even (real) lanes: (-0.0f, +0.0f, ...).
        for (size_t i = 0; i < kL; i += 2) {
            signMask_[i] = 0x80000000u;
            signMask_[i + 1] = 0u;
        }
        outScalar_.assign(2 * n_, 0.0f);
        outNeon_.assign(2 * n_, 1.0f);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < n_; ++i) {
            Sc<float> ar = sload(&a_[2 * i]), ai = sload(&a_[2 * i + 1]);
            Sc<float> br = sload(&b_[2 * i]), bi = sload(&b_[2 * i + 1]);
            Sc<float> re = sload(&acc0_[2 * i]);
            Sc<float> im = sload(&acc0_[2 * i + 1]);
            re = re + ar * br - ai * bi;
            im = im + ar * bi + ai * br;
            sstore(&outScalar_[2 * i], re);
            sstore(&outScalar_[2 * i + 1], im);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        switch (impl_) {
          case ComplexImpl::Portable:
            runPermuted(/*fused=*/false);
            break;
          case ComplexImpl::Fmla:
            runPermuted(/*fused=*/true);
            break;
          case ComplexImpl::Fcmla:
            runFcmla();
            break;
        }
    }

    bool
    verify() override
    {
        return approxOutputs(outScalar_, outNeon_);
    }

    uint64_t flops() const override { return 8 * n_; }

  private:
    static constexpr size_t kL = size_t(Vec<float, 128>::kLanes);

    /**
     * Interleaved complex MAC from basic intrinsics. Per register of
     * kL/2 complex pairs: TRN1, TRN2, REV64, EOR + either
     * MUL/MUL/ADD/ADD (portable, 8 ops) or FMLA/FMLA (fused, 6 ops).
     */
    void
    runPermuted(bool fused)
    {
        const auto mask = vld1<128>(signMask_.data());
        for (size_t i = 0; 2 * i + kL <= 2 * n_; i += kL / 2) {
            auto av = vld1<128>(&a_[2 * i]);
            auto bv = vld1<128>(&b_[2 * i]);
            auto acc = vld1<128>(&acc0_[2 * i]);
            auto bre = vtrn1(bv, bv);           // (br, br) per pair
            auto bim = vtrn2(bv, bv);           // (bi, bi)
            auto asw = vrev64(vreinterpret<uint32_t>(av));
            auto aswf = vreinterpret<float>(asw); // (ai, ar)
            // Sign-flip even lanes of bim: (-bi, bi).
            auto bims = vreinterpret<float>(
                veor(vreinterpret<uint32_t>(bim), mask));
            if (fused) {
                acc = vmla(acc, av, bre);       // += (ar*br, ai*br)
                acc = vmla(acc, aswf, bims);    // += (-ai*bi, ar*bi)
            } else {
                auto u = vmul(av, bre);
                auto w = vmul(aswf, bims);
                acc = vadd(acc, vadd(u, w));
            }
            vst1(&outNeon_[2 * i], acc);
            ctl::loop();
        }
    }

    /** Armv8.3: two FCMLA rotations, no permutes, no sign tricks. */
    void
    runFcmla()
    {
        for (size_t i = 0; 2 * i + kL <= 2 * n_; i += kL / 2) {
            auto av = vld1<128>(&a_[2 * i]);
            auto bv = vld1<128>(&b_[2 * i]);
            auto acc = vld1<128>(&acc0_[2 * i]);
            acc = vcmla<0>(acc, av, bv);
            acc = vcmla<90>(acc, av, bv);
            vst1(&outNeon_[2 * i], acc);
            ctl::loop();
        }
    }

    ComplexImpl impl_;
    size_t n_ = 0;
    Buf<float> a_, b_, acc0_;
    std::array<uint32_t, kL> signMask_{};
    Buf<float> outScalar_, outNeon_;
};

} // namespace

std::unique_ptr<Workload>
makeZConvolve(const Options &opts, ComplexImpl impl)
{
    return std::make_unique<ZConvolve>(opts, impl);
}

} // namespace swan::workloads::ext
