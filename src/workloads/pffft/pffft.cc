/**
 * @file
 * PFFFT workloads (symbol PF, Audio Processing). A "pretty fast FFT" in
 * the PFFFT style: split (structure-of-arrays) real/imaginary storage,
 * butterflies expressed through a small portable vector API, and the
 * naive 6-instruction complex multiply the paper calls out in Section 6.5
 * (portable APIs cannot use FCMLA-style fused complex arithmetic).
 * The early short-span stages run scalar, which is why PF has the
 * largest scalar fraction in Figure 1 and only ~2.3x Neon speedup.
 *
 * Kernels: fft_forward, fft_inverse (DIT radix-2 with precomputed
 * twiddles and bit-reversal reorder), and zconvolve_accumulate
 * (frequency-domain pointwise complex multiply-accumulate, the WebAudio
 * convolution engine's workhorse).
 */

#include "workloads/common.hh"

namespace swan::workloads::pffft
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

constexpr int kFftSize = 512;

namespace
{

/** Precomputed per-stage twiddle tables (host-side constants). */
struct Twiddles
{
    // For stage with half-length h: wr/wi arrays of length h.
    Buf<Buf<float>> wr, wi;

    explicit Twiddles(bool inverse)
    {
        for (int len = 2; len <= kFftSize; len <<= 1) {
            const int half = len / 2;
            Buf<float> re(static_cast<size_t>(half), 0.0f);
            Buf<float> im(static_cast<size_t>(half), 0.0f);
            const double sign = inverse ? 1.0 : -1.0;
            for (int j = 0; j < half; ++j) {
                const double ang = sign * 2.0 * M_PI * j / len;
                re[size_t(j)] = float(std::cos(ang));
                im[size_t(j)] = float(std::sin(ang));
            }
            wr.push_back(std::move(re));
            wi.push_back(std::move(im));
        }
    }
};

/** Bit-reversal permutation table. */
Buf<int>
bitrevTable(int n)
{
    Buf<int> t(size_t(n), 0);
    int bits = 0;
    while ((1 << bits) < n)
        ++bits;
    for (int i = 0; i < n; ++i) {
        int r = 0;
        for (int b = 0; b < bits; ++b)
            r |= ((i >> b) & 1) << (bits - 1 - b);
        t[size_t(i)] = r;
    }
    return t;
}

/** Base class for the two transform kernels. */
class FftKernel : public Workload
{
  public:
    FftKernel(const Options &opts, uint64_t salt, bool inverse)
        : inverse_(inverse), tw_(inverse),
          frames_(std::max(1, opts.audioSamples / kFftSize)),
          rev_(bitrevTable(kFftSize))
    {
        Rng rng(opts.seed ^ salt);
        inRe_ = randomFloats(rng, size_t(frames_) * kFftSize);
        inIm_ = randomFloats(rng, size_t(frames_) * kFftSize);
        sRe_.assign(inRe_.size(), 0);
        sIm_.assign(inRe_.size(), 0);
        nRe_.assign(inRe_.size(), -7.0f);
        nIm_.assign(inRe_.size(), -7.0f);
    }

    void
    runScalar() override
    {
        for (int f = 0; f < frames_; ++f)
            scalarFft(f);
    }

    void
    runNeon(int) override
    {
        for (int f = 0; f < frames_; ++f)
            neonFft(f);
    }

    bool
    verify() override
    {
        return approxOutputs(sRe_, nRe_, 5e-3f) &&
               approxOutputs(sIm_, nIm_, 5e-3f);
    }

  protected:
    void
    scalarFft(int frame)
    {
        const size_t off = size_t(frame) * kFftSize;
        // Bit-reversal reorder (the address-heavy pre-processing the
        // paper attributes PF's scalar fraction to).
        for (int i = 0; i < kFftSize; ++i) {
            ctl::addr(2);
            sstore(&sRe_[off + size_t(rev_[size_t(i)])],
                   sload(&inRe_[off + size_t(i)]));
            sstore(&sIm_[off + size_t(rev_[size_t(i)])],
                   sload(&inIm_[off + size_t(i)]));
            ctl::loop();
        }
        int stage = 0;
        for (int len = 2; len <= kFftSize; len <<= 1, ++stage) {
            const int half = len / 2;
            for (int i = 0; i < kFftSize; i += len) {
                for (int j = 0; j < half; ++j) {
                    Sc<float> wr = sload(&tw_.wr[size_t(stage)]
                                             [size_t(j)]);
                    Sc<float> wi = sload(&tw_.wi[size_t(stage)]
                                             [size_t(j)]);
                    float *ar = &sRe_[off + size_t(i + j)];
                    float *ai = &sIm_[off + size_t(i + j)];
                    float *br = &sRe_[off + size_t(i + j + half)];
                    float *bi = &sIm_[off + size_t(i + j + half)];
                    Sc<float> xr = sload(ar), xi = sload(ai);
                    Sc<float> yr = sload(br), yi = sload(bi);
                    // Naive complex multiply.
                    Sc<float> pr = yr * wr - yi * wi;
                    Sc<float> pi = yr * wi + yi * wr;
                    sstore(ar, xr + pr);
                    sstore(ai, xi + pi);
                    sstore(br, xr - pr);
                    sstore(bi, xi - pi);
                    ctl::loop();
                }
            }
        }
        if (inverse_)
            scaleScalar(off);
    }

    void
    scaleScalar(size_t off)
    {
        const Sc<float> inv(1.0f / kFftSize);
        for (int i = 0; i < kFftSize; ++i) {
            sstore(&sRe_[off + size_t(i)],
                   sload(&sRe_[off + size_t(i)]) * inv);
            sstore(&sIm_[off + size_t(i)],
                   sload(&sIm_[off + size_t(i)]) * inv);
            ctl::loop();
        }
    }

    void
    neonFft(int frame)
    {
        const size_t off = size_t(frame) * kFftSize;
        // Reorder stays scalar (gather pattern).
        for (int i = 0; i < kFftSize; ++i) {
            ctl::addr(2);
            sstore(&nRe_[off + size_t(rev_[size_t(i)])],
                   sload(&inRe_[off + size_t(i)]));
            sstore(&nIm_[off + size_t(rev_[size_t(i)])],
                   sload(&inIm_[off + size_t(i)]));
            ctl::loop();
        }
        int stage = 0;
        for (int len = 2; len <= kFftSize; len <<= 1, ++stage) {
            const int half = len / 2;
            if (len == 2) {
                // First stage (twiddle = 1): adjacent pairs, handled
                // with UZP/ZIP perfect shuffles — the register
                // transposition PFFFT uses in its pre-processing
                // (Section 6.4).
                for (float *arr : {&nRe_[off], &nIm_[off]}) {
                    for (int i = 0; i + 8 <= kFftSize; i += 8) {
                        auto v0 = vld1<128>(arr + i);
                        auto v1 = vld1<128>(arr + i + 4);
                        auto evens = vuzp1(v0, v1);
                        auto odds = vuzp2(v0, v1);
                        auto sum = vadd(evens, odds);
                        auto diff = vsub(evens, odds);
                        vst1(arr + i, vzip1(sum, diff));
                        vst1(arr + i + 4, vzip2(sum, diff));
                        ctl::loop();
                    }
                }
                continue;
            }
            if (half < 4) {
                // Remaining short spans: scalar butterflies (the PFFFT
                // scalar portion).
                for (int i = 0; i < kFftSize; i += len) {
                    for (int j = 0; j < half; ++j)
                        scalarButterfly(off, stage, i, j, half);
                }
                continue;
            }
            for (int i = 0; i < kFftSize; i += len) {
                for (int j = 0; j < half; j += 4) {
                    auto wr = vld1<128>(&tw_.wr[size_t(stage)]
                                            [size_t(j)]);
                    auto wi = vld1<128>(&tw_.wi[size_t(stage)]
                                            [size_t(j)]);
                    float *ar = &nRe_[off + size_t(i + j)];
                    float *ai = &nIm_[off + size_t(i + j)];
                    float *br = &nRe_[off + size_t(i + j + half)];
                    float *bi = &nIm_[off + size_t(i + j + half)];
                    auto xr = vld1<128>(ar);
                    auto xi = vld1<128>(ai);
                    auto yr = vld1<128>(br);
                    auto yi = vld1<128>(bi);
                    // Naive complex multiply: 6 vector API calls.
                    auto pr = vmls(vmul(yr, wr), yi, wi);
                    auto pi = vmla(vmul(yr, wi), yi, wr);
                    vst1(ar, vadd(xr, pr));
                    vst1(ai, vadd(xi, pi));
                    vst1(br, vsub(xr, pr));
                    vst1(bi, vsub(xi, pi));
                    ctl::loop();
                }
            }
        }
        if (inverse_) {
            const Sc<float> inv(1.0f / kFftSize);
            for (int i = 0; i < kFftSize; i += 4) {
                vst1(&nRe_[off + size_t(i)],
                     vmul_n(vld1<128>(&nRe_[off + size_t(i)]), inv));
                vst1(&nIm_[off + size_t(i)],
                     vmul_n(vld1<128>(&nIm_[off + size_t(i)]), inv));
                ctl::loop();
            }
        }
    }

    void
    scalarButterfly(size_t off, int stage, int i, int j, int half)
    {
        Sc<float> wr = sload(&tw_.wr[size_t(stage)][size_t(j)]);
        Sc<float> wi = sload(&tw_.wi[size_t(stage)][size_t(j)]);
        float *ar = &nRe_[off + size_t(i + j)];
        float *ai = &nIm_[off + size_t(i + j)];
        float *br = &nRe_[off + size_t(i + j + half)];
        float *bi = &nIm_[off + size_t(i + j + half)];
        Sc<float> xr = sload(ar), xi = sload(ai);
        Sc<float> yr = sload(br), yi = sload(bi);
        Sc<float> pr = yr * wr - yi * wi;
        Sc<float> pi = yr * wi + yi * wr;
        sstore(ar, xr + pr);
        sstore(ai, xi + pi);
        sstore(br, xr - pr);
        sstore(bi, xi - pi);
        ctl::loop();
    }

    bool inverse_;
    Twiddles tw_;
    int frames_;
    Buf<int> rev_;
    Buf<float> inRe_, inIm_, sRe_, sIm_, nRe_, nIm_;
};

} // namespace

class FftForward : public FftKernel
{
  public:
    explicit FftForward(const Options &opts)
        : FftKernel(opts, 0x0f01, false)
    {
    }
};

class FftInverse : public FftKernel
{
  public:
    explicit FftInverse(const Options &opts)
        : FftKernel(opts, 0x0f02, true)
    {
    }
};

// ---------------------------------------------------------------------
// zconvolve_accumulate: out += a * b (pointwise complex, split storage)
// ---------------------------------------------------------------------

class ZConvolve : public Workload
{
  public:
    explicit ZConvolve(const Options &opts)
        : n_((opts.audioSamples / 4) & ~3)
    {
        Rng rng(opts.seed ^ 0x0f03);
        aRe_ = randomFloats(rng, size_t(n_));
        aIm_ = randomFloats(rng, size_t(n_));
        bRe_ = randomFloats(rng, size_t(n_));
        bIm_ = randomFloats(rng, size_t(n_));
        accInit_ = randomFloats(rng, size_t(n_) * 2);
        sRe_.assign(accInit_.begin(), accInit_.begin() + n_);
        sIm_.assign(accInit_.begin() + n_, accInit_.end());
        nRe_ = sRe_;
        nIm_ = sIm_;
        aAutoRe_ = sRe_;
        aAutoIm_ = sIm_;
    }

    void
    runScalar() override
    {
        for (int i = 0; i < n_; ++i) {
            Sc<float> ar = sload(&aRe_[size_t(i)]);
            Sc<float> ai = sload(&aIm_[size_t(i)]);
            Sc<float> br = sload(&bRe_[size_t(i)]);
            Sc<float> bi = sload(&bIm_[size_t(i)]);
            sstore(&sRe_[size_t(i)],
                   sload(&sRe_[size_t(i)]) + (ar * br - ai * bi));
            sstore(&sIm_[size_t(i)],
                   sload(&sIm_[size_t(i)]) + (ar * bi + ai * br));
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        for (int i = 0; i + 4 <= n_; i += 4) {
            auto ar = vld1<128>(&aRe_[size_t(i)]);
            auto ai = vld1<128>(&aIm_[size_t(i)]);
            auto br = vld1<128>(&bRe_[size_t(i)]);
            auto bi = vld1<128>(&bIm_[size_t(i)]);
            auto re = vmls(vmul(ar, br), ai, bi);
            auto im = vmla(vmul(ar, bi), ai, br);
            vst1(&nRe_[size_t(i)],
                 vadd(vld1<128>(&nRe_[size_t(i)]), re));
            vst1(&nIm_[size_t(i)],
                 vadd(vld1<128>(&nIm_[size_t(i)]), im));
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // Vectorizes, but without fusing multiply-accumulate (separate
        // mul + add/sub, no FMA contraction across statements): two more
        // vector ops per iteration than Neon (Auto < Neon).
        for (int i = 0; i + 4 <= n_; i += 4) {
            auto ar = vld1<128>(&aRe_[size_t(i)]);
            auto ai = vld1<128>(&aIm_[size_t(i)]);
            auto br = vld1<128>(&bRe_[size_t(i)]);
            auto bi = vld1<128>(&bIm_[size_t(i)]);
            auto re = vsub(vmul(ar, br), vmul(ai, bi));
            auto im = vadd(vmul(ar, bi), vmul(ai, br));
            vst1(&aAutoRe_[size_t(i)],
                 vadd(vld1<128>(&aAutoRe_[size_t(i)]), re));
            vst1(&aAutoIm_[size_t(i)],
                 vadd(vld1<128>(&aAutoIm_[size_t(i)]), im));
            ctl::loop();
        }
    }

    bool
    verify() override
    {
        return approxOutputs(sRe_, nRe_, 1e-3f) &&
               approxOutputs(sIm_, nIm_, 1e-3f);
    }
    uint64_t flops() const override { return uint64_t(n_) * 8; }

  private:
    int n_;
    Buf<float> aRe_, aIm_, bRe_, bIm_, accInit_;
    Buf<float> sRe_, sIm_, nRe_, nIm_, aAutoRe_, aAutoIm_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "PFFFT", "PF", Domain::AudioProcessing,
    true, true, true, false, 5.6, 1.3}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"PFFFT", "PF", "fft_forward",
                     Domain::AudioProcessing,
                     Pattern::Transpose | Pattern::VectorApi |
                         Pattern::RandomAccess,
                     autovec::Verdict{false,
                                      autovec::Fail::IndirectMemory |
                                          autovec::Fail::OtherLegality},
                     false, 0},
    [](const Options &o) { return std::make_unique<FftForward>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"PFFFT", "PF", "fft_inverse",
                     Domain::AudioProcessing,
                     Pattern::Transpose | Pattern::VectorApi |
                         Pattern::RandomAccess,
                     autovec::Verdict{false,
                                      autovec::Fail::IndirectMemory |
                                          autovec::Fail::OtherLegality},
                     false, 0},
    [](const Options &o) { return std::make_unique<FftInverse>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"PFFFT", "PF", "zconvolve_accumulate",
                     Domain::AudioProcessing,
                     uint32_t(Pattern::VectorApi),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<ZConvolve>(o); }}));

} // namespace swan::workloads::pffft
