/**
 * @file
 * libopus workloads (symbol LO, Audio Processing). Opus/SILK/CELT coder
 * kernels operating on audio frames (Section 3.2): the LPC synthesis
 * filter and ARMA biquad (recurrent filters: the serial dependence keeps
 * Neon gains modest, matching the paper's LO speedup of ~2.2x), pitch
 * autocorrelation (float; one of the eight Figure-5 wider-register
 * kernels), the CELT fixed-point frequency autocorrelation, and the CELT
 * inner product. LO mixes data types heavily, which is why the paper
 * reports it as the heaviest user of V-Misc register-manipulation
 * instructions.
 */

#include "workloads/common.hh"

namespace swan::workloads::libopus
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

constexpr int kOrder = 16; //!< LPC order

// ---------------------------------------------------------------------
// lpc_filter: y[n] = sat16(x[n] + (sum_k a[k] * y[n-k]) >> 12)
// ---------------------------------------------------------------------

class LpcFilter : public Workload
{
  public:
    explicit LpcFilter(const Options &opts) : n_(opts.audioSamples)
    {
        Rng rng(opts.seed ^ 0x0a01);
        x_.resize(size_t(n_));
        for (auto &v : x_)
            v = int16_t(rng.range(-8192, 8191));
        for (auto &c : coeff_)
            c = int16_t(rng.range(-255, 255));
        outScalar_.assign(size_t(n_) + kOrder, 0);
        outNeon_.assign(size_t(n_) + kOrder, 1);
    }

    void
    runScalar() override
    {
        int16_t *y = outScalar_.data() + kOrder;
        for (int i = 0; i < kOrder; ++i)
            outScalar_[size_t(i)] = 0;
        for (int n = 0; n < n_; ++n) {
            Sc<int32_t> acc(0);
            for (int k = 0; k < kOrder; ++k) {
                Sc<int32_t> h = sload(y + n - 1 - k).to<int32_t>();
                acc = smadd(h, Sc<int32_t>(int32_t(coeff_[size_t(k)])),
                            acc);
                ctl::loop();
            }
            Sc<int32_t> v = sload(&x_[size_t(n)]).to<int32_t>() +
                            (acc >> 12);
            v = smax(smin(v, Sc<int32_t>(32767)), Sc<int32_t>(-32768));
            sstore(y + n, v.to<int16_t>());
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        int16_t *y = outNeon_.data() + kOrder;
        for (int i = 0; i < kOrder; ++i)
            outNeon_[size_t(i)] = 0;
        // Coefficients reversed so lanes line up with history order.
        int16_t rev[kOrder];
        for (int k = 0; k < kOrder; ++k)
            rev[size_t(k)] = coeff_[size_t(kOrder - 1 - k)];
        auto c0 = vld1<128>(rev);          // taps 16..9 (s16x8)
        auto c1 = vld1<128>(rev + 8);      // taps 8..1
        for (int n = 0; n < n_; ++n) {
            // History y[n-16..n-1] as two vectors (serial recurrence:
            // each output feeds the next iteration's history load).
            auto h0 = vld1<128>(y + n - kOrder);
            auto h1 = vld1<128>(y + n - kOrder + 8);
            auto acc = vmull_lo(h0, c0);
            acc = vmlal_hi(acc, h0, c0);
            acc = vmlal_lo(acc, h1, c1);
            acc = vmlal_hi(acc, h1, c1);
            Sc<int32_t> dot = vaddv(acc);
            Sc<int32_t> v = sload(&x_[size_t(n)]).to<int32_t>() +
                            (dot >> 12);
            v = smax(smin(v, Sc<int32_t>(32767)), Sc<int32_t>(-32768));
            sstore(y + n, v.to<int16_t>());
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int n_;
    Buf<int16_t> x_, outScalar_, outNeon_;
    std::array<int16_t, kOrder> coeff_{};
};

// ---------------------------------------------------------------------
// arma_biquad: 4-channel biquad y = b0 x + b1 x1 + b2 x2 - a1 y1 - a2 y2
// ---------------------------------------------------------------------

class ArmaBiquad : public Workload
{
  public:
    explicit ArmaBiquad(const Options &opts) : frames_(opts.audioSamples)
    {
        Rng rng(opts.seed ^ 0x0a02);
        x_ = randomFloats(rng, size_t(frames_) * 4);
        outScalar_.assign(x_.size(), 0.0f);
        outNeon_.assign(x_.size(), -7.0f);
        outAuto_.assign(x_.size(), -7.0f);
    }

    void
    runScalar() override
    {
        for (int ch = 0; ch < 4; ++ch) {
            Sc<float> x1(0.0f), x2(0.0f), y1(0.0f), y2(0.0f);
            for (int n = 0; n < frames_; ++n) {
                Sc<float> x = sload(&x_[size_t(4 * n + ch)]);
                Sc<float> y = smadd(Sc<float>(kB0), x,
                                    smadd(Sc<float>(kB1), x1,
                                          smadd(Sc<float>(kB2), x2,
                                                smadd(Sc<float>(-kA1), y1,
                                                      Sc<float>(-kA2) *
                                                          y2))));
                sstore(&outScalar_[size_t(4 * n + ch)], y);
                x2 = x1;
                x1 = x;
                y2 = y1;
                y1 = y;
                ctl::loop();
            }
        }
    }

    void
    runNeon(int) override
    {
        // All 4 channels in one vector (inter-channel parallelism).
        auto x1 = vdup<float, 128>(0.0f), x2 = x1, y1 = x1, y2 = x1;
        const Sc<float> b0(kB0), b1(kB1), b2(kB2), a1(-kA1), a2(-kA2);
        for (int n = 0; n < frames_; ++n) {
            auto x = vld1<128>(&x_[size_t(4 * n)]);
            auto acc = vmul_n(y2, a2);
            acc = vmla_n(acc, y1, a1);
            acc = vmla_n(acc, x2, b2);
            acc = vmla_n(acc, x1, b1);
            acc = vmla_n(acc, x, b0);
            vst1(&outNeon_[size_t(4 * n)], acc);
            x2 = x1;
            x1 = x;
            y2 = y1;
            y1 = acc;
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // The SLP vectorizer packs the 4 channels but scalarizes the
        // loads/stores (lane inserts/extracts each sample); the packing
        // overhead makes Auto slower than Scalar (the second Auto <
        // Scalar kernel of Table 4).
        auto x1 = vdup<float, 128>(0.0f), x2 = x1, y1 = x1, y2 = x1;
        const Sc<float> b0(kB0), b1(kB1), b2(kB2), a1(-kA1), a2(-kA2);
        for (int n = 0; n < frames_; ++n) {
            auto x = vdup<float, 128>(0.0f);
            for (int ch = 0; ch < 4; ++ch)
                x = vset_lane(x, ch, sload(&x_[size_t(4 * n + ch)]));
            auto acc = vmul_n(y2, a2);
            acc = vmla_n(acc, y1, a1);
            acc = vmla_n(acc, x2, b2);
            acc = vmla_n(acc, x1, b1);
            acc = vmla_n(acc, x, b0);
            for (int ch = 0; ch < 4; ++ch)
                sstore(&outAuto_[size_t(4 * n + ch)],
                       vget_lane(acc, ch));
            x2 = x1;
            x1 = x;
            y2 = y1;
            y1 = acc;
            ctl::loop();
        }
    }

    bool
    verify() override
    {
        return approxOutputs(outScalar_, outNeon_, 1e-3f);
    }

  private:
    static constexpr float kB0 = 0.2929f, kB1 = 0.5858f, kB2 = 0.2929f;
    static constexpr float kA1 = -0.0f, kA2 = 0.1716f;
    int frames_;
    Buf<float> x_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// pitch_autocorr: r[lag] = sum_n x[n] * x[n-lag], float, lags 0..15
// ---------------------------------------------------------------------

class PitchAutocorr : public Workload
{
  public:
    explicit PitchAutocorr(const Options &opts) : n_(opts.audioSamples)
    {
        Rng rng(opts.seed ^ 0x0a03);
        x_ = randomFloats(rng, size_t(n_) + kOrder);
        outScalar_.assign(kOrder, 0.0f);
        outNeon_.assign(kOrder, -1.0f);
    }

    void
    runScalar() override
    {
        const float *x = x_.data() + kOrder;
        for (int lag = 0; lag < kOrder; ++lag) {
            Sc<float> acc(0.0f);
            for (int n = 0; n < n_; ++n) {
                acc = smadd(sload(x + n), sload(x + n - lag), acc);
                ctl::loop();
            }
            sstore(&outScalar_[size_t(lag)], acc);
            ctl::loop();
        }
    }

    void
    runNeon(int vec_bits) override
    {
        switch (vec_bits) {
          case 256: neonImpl<256>(); break;
          case 512: neonImpl<512>(); break;
          case 1024: neonImpl<1024>(); break;
          default: neonImpl<128>(); break;
        }
    }

    bool
    verify() override
    {
        return approxOutputs(outScalar_, outNeon_, 2e-2f);
    }
    uint64_t flops() const override
    {
        return uint64_t(n_) * kOrder * 2;
    }

  private:
    template <int B>
    void
    neonImpl()
    {
        using VF = Vec<float, B>;
        constexpr int kLanes = VF::kLanes;
        const float *x = x_.data() + kOrder;
        for (int lag = 0; lag < kOrder; ++lag) {
            // Two independent accumulators hide the FMA latency.
            auto acc0 = vdup<float, B>(0.0f);
            auto acc1 = acc0;
            int n = 0;
            for (; n + 2 * kLanes <= n_; n += 2 * kLanes) {
                auto a0 = vld1<B>(x + n);
                auto b0 = vld1<B>(x + n - lag);
                auto a1 = vld1<B>(x + n + kLanes);
                auto b1 = vld1<B>(x + n + kLanes - lag);
                acc0 = vmla(acc0, a0, b0);
                acc1 = vmla(acc1, a1, b1);
                ctl::loop();
            }
            Sc<float> acc = reduceAll(vadd(acc0, acc1));
            for (; n < n_; ++n) {
                acc = smadd(sload(x + n), sload(x + n - lag), acc);
                ctl::loop();
            }
            sstore(&outNeon_[size_t(lag)], acc);
            ctl::loop();
        }
    }

    static Sc<float>
    reduceAll(const Vec<float, 128> &v)
    {
        return vaddv(v);
    }
    template <int B>
    static Sc<float>
    reduceAll(const Vec<float, B> &v)
    {
        return reduceAll(vadd_halves(v));
    }

    int n_;
    Buf<float> x_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// celt_freq_autocorr: fixed-point s16 autocorrelation with shift
// ---------------------------------------------------------------------

class CeltFreqAutocorr : public Workload
{
  public:
    explicit CeltFreqAutocorr(const Options &opts)
        : n_(std::min(opts.audioSamples, 2048))
    {
        Rng rng(opts.seed ^ 0x0a04);
        x_.resize(size_t(n_) + kOrder);
        for (auto &v : x_)
            v = int16_t(rng.range(-181, 181));
        outScalar_.assign(kOrder, 0);
        outNeon_.assign(kOrder, 1);
    }

    void
    runScalar() override
    {
        const int16_t *x = x_.data() + kOrder;
        for (int lag = 0; lag < kOrder; ++lag) {
            Sc<int32_t> acc(0);
            for (int n = 0; n < n_; ++n) {
                Sc<int32_t> a = sload(x + n).to<int32_t>();
                Sc<int32_t> b = sload(x + n - lag).to<int32_t>();
                acc = smadd(a, b, acc);
                ctl::loop();
            }
            sstore(&outScalar_[size_t(lag)], acc >> 6);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        const int16_t *x = x_.data() + kOrder;
        for (int lag = 0; lag < kOrder; ++lag) {
            auto acc = vdup<int32_t, 128>(0);
            int n = 0;
            for (; n + 8 <= n_; n += 8) {
                auto a = vld1<128>(x + n);
                auto b = vld1<128>(x + n - lag);
                acc = vmlal_lo(acc, a, b);
                acc = vmlal_hi(acc, a, b);
                ctl::loop();
            }
            Sc<int32_t> dot = vaddv(acc);
            for (; n < n_; ++n) {
                Sc<int32_t> a = sload(x + n).to<int32_t>();
                Sc<int32_t> b = sload(x + n - lag).to<int32_t>();
                dot = smadd(a, b, dot);
                ctl::loop();
            }
            sstore(&outNeon_[size_t(lag)], dot >> 6);
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int n_;
    Buf<int16_t> x_;
    Buf<int32_t> outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// inner_product: s32 dot product of two s16 streams
// ---------------------------------------------------------------------

class InnerProduct : public Workload
{
  public:
    explicit InnerProduct(const Options &opts)
        : n_(std::min(opts.audioSamples, 4096))
    {
        Rng rng(opts.seed ^ 0x0a05);
        a_.resize(size_t(n_));
        b_.resize(size_t(n_));
        for (int i = 0; i < n_; ++i) {
            a_[size_t(i)] = int16_t(rng.range(-181, 181));
            b_[size_t(i)] = int16_t(rng.range(-181, 181));
        }
    }

    void
    runScalar() override
    {
        Sc<int32_t> acc(0);
        for (int i = 0; i < n_; ++i) {
            Sc<int32_t> x = sload(&a_[size_t(i)]).to<int32_t>();
            Sc<int32_t> y = sload(&b_[size_t(i)]).to<int32_t>();
            acc = smadd(x, y, acc);
            ctl::loop();
        }
        outScalar_ = acc.v;
    }

    void
    runNeon(int) override
    {
        auto acc0 = vdup<int32_t, 128>(0);
        auto acc1 = acc0;
        int i = 0;
        for (; i + 16 <= n_; i += 16) {
            auto x0 = vld1<128>(&a_[size_t(i)]);
            auto y0 = vld1<128>(&b_[size_t(i)]);
            auto x1 = vld1<128>(&a_[size_t(i) + 8]);
            auto y1 = vld1<128>(&b_[size_t(i) + 8]);
            acc0 = vmlal_lo(acc0, x0, y0);
            acc0 = vmlal_hi(acc0, x0, y0);
            acc1 = vmlal_lo(acc1, x1, y1);
            acc1 = vmlal_hi(acc1, x1, y1);
            ctl::loop();
        }
        Sc<int32_t> dot = vaddv(vadd(acc0, acc1));
        for (; i < n_; ++i) {
            Sc<int32_t> x = sload(&a_[size_t(i)]).to<int32_t>();
            Sc<int32_t> y = sload(&b_[size_t(i)]).to<int32_t>();
            dot = smadd(x, y, dot);
            ctl::loop();
        }
        outNeon_ = dot.v;
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int n_;
    Buf<int16_t> a_, b_;
    int32_t outScalar_ = 0, outNeon_ = 1;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "libopus", "LO", Domain::AudioProcessing,
    true, true, true, false, 0.0, 0.0}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libopus", "LO", "lpc_filter",
                     Domain::AudioProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::ComplexPhi)},
                     false, 0},
    [](const Options &o) { return std::make_unique<LpcFilter>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libopus", "LO", "arma_biquad",
                     Domain::AudioProcessing, 0,
                     autovec::Verdict{false,
                                      autovec::Fail::ComplexPhi |
                                          autovec::Fail::OtherLegality},
                     false, 0},
    [](const Options &o) { return std::make_unique<ArmaBiquad>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libopus", "LO", "pitch_autocorr",
                     Domain::AudioProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     /*widerWidths=*/true, 0},
    [](const Options &o) {
        return std::make_unique<PitchAutocorr>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libopus", "LO", "celt_freq_autocorr",
                     Domain::AudioProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::CostModel)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<CeltFreqAutocorr>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libopus", "LO", "inner_product",
                     Domain::AudioProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<InnerProduct>(o);
    }}));

} // namespace swan::workloads::libopus
