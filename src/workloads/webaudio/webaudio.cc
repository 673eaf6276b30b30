/**
 * @file
 * WebAudio workloads (symbol WA, Audio Processing). The Webaudio modules
 * of Chromium/WebRTC process "render quanta" (2 channels x 128 float
 * samples) through fine-grain portable vector APIs (Section 6.5): each API
 * loads its operands from memory, applies one simple operation, and stores
 * the result, so ~59% of WA's vector instructions are loads/stores and the
 * instruction reduction saturates around 3.4x. The Neon implementations
 * here deliberately mirror that API structure; the Auto implementations
 * vectorize the plain loop and therefore beat the API-based Neon code for
 * the simplest kernels (the paper's five Auto > Neon cases come from this
 * effect).
 *
 * Kernels: gain_node (VSMUL), vadd, vmul, vclip, audible (frame energy,
 * the Section 6.1 intra-reduction example and a Figure-5 wider-register
 * kernel), deinterleave_channels.
 */

#include "workloads/common.hh"

namespace swan::workloads::webaudio
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

namespace
{

/** Base for kernels mapping one float array to another. */
class UnaryFloatKernel : public Workload
{
  public:
    UnaryFloatKernel(const Options &opts, uint64_t salt)
    {
        Rng rng(opts.seed ^ salt);
        in_ = randomFloats(rng, size_t(opts.audioSamples) * 2, -1.2f, 1.2f);
        outScalar_.assign(in_.size(), 0.0f);
        outNeon_.assign(in_.size(), -7.0f);
        outAuto_.assign(in_.size(), -7.0f);
    }

    bool verify() override { return approxOutputs(outScalar_, outNeon_); }
    uint64_t flops() const override { return in_.size(); }

  protected:
    Buf<float> in_, outScalar_, outNeon_, outAuto_;
};

} // namespace

// ---------------------------------------------------------------------
// gain_node: out[i] = in[i] * gain  (the GainNode volume API)
// ---------------------------------------------------------------------

class GainNode : public UnaryFloatKernel
{
  public:
    explicit GainNode(const Options &opts) : UnaryFloatKernel(opts, 0x11)
    {
    }

    void
    runScalar() override
    {
        Sc<float> gain(kGain);
        for (size_t i = 0; i < in_.size(); ++i) {
            sstore(&outScalar_[i], sload(&in_[i]) * gain);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        // Vector API style: one load / one multiply / one store per call.
        Sc<float> gain(kGain);
        size_t i = 0;
        for (; i + 4 <= in_.size(); i += 4) {
            auto v = vld1<128>(&in_[i]);
            vst1(&outNeon_[i], vmul_n(v, gain));
            ctl::addr(2); // vector-API pointer bookkeeping (Section 6.5)
            ctl::loop();
        }
        for (; i < in_.size(); ++i) {
            sstore(&outNeon_[i], sload(&in_[i]) * gain);
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // Clang vectorizes and interleaves by 4 (Auto > Neon case).
        Sc<float> gain(kGain);
        size_t i = 0;
        for (; i + 16 <= in_.size(); i += 16) {
            for (int u = 0; u < 4; ++u) {
                auto v = vld1<128>(&in_[i + size_t(4 * u)]);
                vst1(&outAuto_[i + size_t(4 * u)], vmul_n(v, gain));
            }
            ctl::loop();
        }
        for (; i < in_.size(); ++i) {
            sstore(&outAuto_[i], sload(&in_[i]) * gain);
            ctl::loop();
        }
    }

  private:
    static constexpr float kGain = 0.7071f;
};

// ---------------------------------------------------------------------
// vadd / vmul: out[i] = a[i] op b[i]
// ---------------------------------------------------------------------

namespace
{

template <bool kMul>
class BinaryFloatKernel : public Workload
{
  public:
    BinaryFloatKernel(const Options &opts, uint64_t salt)
    {
        Rng rng(opts.seed ^ salt);
        a_ = randomFloats(rng, size_t(opts.audioSamples) * 2);
        b_ = randomFloats(rng, a_.size());
        outScalar_.assign(a_.size(), 0.0f);
        outNeon_.assign(a_.size(), -7.0f);
        outAuto_.assign(a_.size(), -7.0f);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < a_.size(); ++i) {
            Sc<float> x = sload(&a_[i]);
            Sc<float> y = sload(&b_[i]);
            sstore(&outScalar_[i], kMul ? x * y : x + y);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        size_t i = 0;
        for (; i + 4 <= a_.size(); i += 4) {
            auto x = vld1<128>(&a_[i]);
            auto y = vld1<128>(&b_[i]);
            vst1(&outNeon_[i], kMul ? vmul(x, y) : vadd(x, y));
            ctl::addr(3); // vector-API pointer bookkeeping (Section 6.5)
            ctl::loop();
        }
        for (; i < a_.size(); ++i) {
            Sc<float> x = sload(&a_[i]);
            Sc<float> y = sload(&b_[i]);
            sstore(&outNeon_[i], kMul ? x * y : x + y);
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        size_t i = 0;
        for (; i + 16 <= a_.size(); i += 16) {
            for (int u = 0; u < 4; ++u) {
                const size_t j = i + size_t(4 * u);
                auto x = vld1<128>(&a_[j]);
                auto y = vld1<128>(&b_[j]);
                vst1(&outAuto_[j], kMul ? vmul(x, y) : vadd(x, y));
            }
            ctl::loop();
        }
        for (; i < a_.size(); ++i) {
            Sc<float> x = sload(&a_[i]);
            Sc<float> y = sload(&b_[i]);
            sstore(&outAuto_[i], kMul ? x * y : x + y);
            ctl::loop();
        }
    }

    bool verify() override { return approxOutputs(outScalar_, outNeon_); }
    uint64_t flops() const override { return a_.size(); }

  private:
    Buf<float> a_, b_, outScalar_, outNeon_, outAuto_;
};

} // namespace

class VAdd : public BinaryFloatKernel<false>
{
  public:
    explicit VAdd(const Options &o) : BinaryFloatKernel(o, 0x22) {}
};

class VMul : public BinaryFloatKernel<true>
{
  public:
    explicit VMul(const Options &o) : BinaryFloatKernel(o, 0x33) {}
};

// ---------------------------------------------------------------------
// vclip: out[i] = clamp(in[i], lo, hi)
// ---------------------------------------------------------------------

class VClip : public UnaryFloatKernel
{
  public:
    explicit VClip(const Options &opts) : UnaryFloatKernel(opts, 0x44) {}

    void
    runScalar() override
    {
        Sc<float> lo(-1.0f), hi(1.0f);
        for (size_t i = 0; i < in_.size(); ++i) {
            Sc<float> x = sload(&in_[i]);
            sstore(&outScalar_[i], smin(smax(x, lo), hi));
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        const auto lo = vdup<float, 128>(-1.0f);
        const auto hi = vdup<float, 128>(1.0f);
        size_t i = 0;
        for (; i + 4 <= in_.size(); i += 4) {
            auto v = vld1<128>(&in_[i]);
            vst1(&outNeon_[i], vmin(vmax(v, lo), hi));
            ctl::addr(2); // vector-API pointer bookkeeping (Section 6.5)
            ctl::loop();
        }
        for (; i < in_.size(); ++i) {
            Sc<float> x = sload(&in_[i]);
            sstore(&outNeon_[i], smin(smax(x, Sc<float>(-1.0f)),
                                      Sc<float>(1.0f)));
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // Vectorizes, same shape as Neon (Auto ~= Neon case).
        const auto lo = vdup<float, 128>(-1.0f);
        const auto hi = vdup<float, 128>(1.0f);
        size_t i = 0;
        for (; i + 4 <= in_.size(); i += 4) {
            auto v = vld1<128>(&in_[i]);
            vst1(&outAuto_[i], vmin(vmax(v, lo), hi));
            ctl::loop();
        }
        for (; i < in_.size(); ++i) {
            Sc<float> x = sload(&in_[i]);
            sstore(&outAuto_[i], smin(smax(x, Sc<float>(-1.0f)),
                                      Sc<float>(1.0f)));
            ctl::loop();
        }
    }
};

// ---------------------------------------------------------------------
// audible: per-frame energy sum(s^2) (Section 6.1 intra-reduction)
// ---------------------------------------------------------------------

class Audible : public Workload
{
  public:
    explicit Audible(const Options &opts) : frame_(opts.audioFrame)
    {
        Rng rng(opts.seed ^ 0x55);
        in_ = randomFloats(rng, size_t(opts.audioSamples) * 2);
        const size_t frames = in_.size() / size_t(frame_);
        outScalar_.assign(frames, 0.0f);
        outNeon_.assign(frames, -1.0f);
    }

    void
    runScalar() override
    {
        const size_t frames = outScalar_.size();
        for (size_t f = 0; f < frames; ++f) {
            Sc<float> energy(0.0f);
            const float *p = &in_[f * size_t(frame_)];
            for (int i = 0; i < frame_; ++i) {
                Sc<float> s = sload(p + i);
                energy = smadd(s, s, energy);
                ctl::loop();
            }
            sstore(&outScalar_[f], energy);
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

    // FP reduction requires reassociation; Clang will not vectorize it
    // without fast-math (OtherLegality), so Auto stays scalar.

    bool
    verify() override
    {
        return approxOutputs(outScalar_, outNeon_, 1e-3f);
    }
    uint64_t flops() const override { return 2 * in_.size(); }

  private:
    template <int B>
    void
    neonImpl()
    {
        using VF = Vec<float, B>;
        constexpr int kLanes = VF::kLanes;
        const size_t frames = outNeon_.size();
        for (size_t f = 0; f < frames; ++f) {
            const float *p = &in_[f * size_t(frame_)];
            auto acc = vdup<float, B>(0.0f);
            int i = 0;
            for (; i + kLanes <= frame_; i += kLanes) {
                auto v = vld1<B>(p + i);
                acc = vmla(acc, v, v);
                ctl::addr(1); // vector-API pointer bookkeeping
                ctl::loop();
            }
            // Reduce wide registers stepwise (Section 7.1: U/SADDLV is
            // not extended to wider registers).
            Sc<float> energy = reduceAll(acc);
            for (; i < frame_; ++i) {
                Sc<float> s = sload(p + i);
                energy = smadd(s, s, energy);
                ctl::loop();
            }
            sstore(&outNeon_[f], energy);
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

    int frame_;
    Buf<float> in_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// deinterleave_channels: LRLR... -> L..L / R..R (VLD2)
// ---------------------------------------------------------------------

class Deinterleave : public Workload
{
  public:
    explicit Deinterleave(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x66);
        in_ = randomFloats(rng, size_t(opts.audioSamples) * 2);
        const size_t n = in_.size() / 2;
        lScalar_.assign(n, 0);
        rScalar_.assign(n, 0);
        lNeon_.assign(n, -7.0f);
        rNeon_.assign(n, -7.0f);
        lAuto_.assign(n, -7.0f);
        rAuto_.assign(n, -7.0f);
    }

    void
    runScalar() override
    {
        const size_t n = lScalar_.size();
        for (size_t i = 0; i < n; ++i) {
            sstore(&lScalar_[i], sload(&in_[2 * i]));
            sstore(&rScalar_[i], sload(&in_[2 * i + 1]));
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        const size_t n = lNeon_.size();
        size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            auto lr = vld2<128>(&in_[2 * i]);
            vst1(&lNeon_[i], lr[0]);
            vst1(&rNeon_[i], lr[1]);
            ctl::addr(3); // vector-API pointer bookkeeping (Section 6.5)
            ctl::loop();
        }
        for (; i < n; ++i) {
            sstore(&lNeon_[i], sload(&in_[2 * i]));
            sstore(&rNeon_[i], sload(&in_[2 * i + 1]));
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // Clang vectorizes the strided access with shuffles (~= Neon).
        const size_t n = lAuto_.size();
        size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            auto even = vld1<128>(&in_[2 * i]);
            auto odd = vld1<128>(&in_[2 * i + 4]);
            vst1(&lAuto_[i], vuzp1(even, odd));
            vst1(&rAuto_[i], vuzp2(even, odd));
            ctl::loop();
        }
        for (; i < n; ++i) {
            sstore(&lAuto_[i], sload(&in_[2 * i]));
            sstore(&rAuto_[i], sload(&in_[2 * i + 1]));
            ctl::loop();
        }
    }

    bool
    verify() override
    {
        return approxOutputs(lScalar_, lNeon_) &&
               approxOutputs(rScalar_, rNeon_);
    }

  private:
    Buf<float> in_, lScalar_, rScalar_, lNeon_, rNeon_, lAuto_,
        rAuto_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "WebAudio", "WA", Domain::AudioProcessing,
    true, false, true, false, 16.3, 2.5}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"WebAudio", "WA", "gain_node",
                     Domain::AudioProcessing,
                     uint32_t(Pattern::VectorApi),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<GainNode>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"WebAudio", "WA", "vadd", Domain::AudioProcessing,
                     uint32_t(Pattern::VectorApi),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<VAdd>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"WebAudio", "WA", "vmul", Domain::AudioProcessing,
                     uint32_t(Pattern::VectorApi),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<VMul>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"WebAudio", "WA", "vclip", Domain::AudioProcessing,
                     uint32_t(Pattern::VectorApi),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<VClip>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"WebAudio", "WA", "audible",
                     Domain::AudioProcessing,
                     Pattern::Reduction | Pattern::VectorApi,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     /*widerWidths=*/true, 0},
    [](const Options &o) { return std::make_unique<Audible>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"WebAudio", "WA", "deinterleave_channels",
                     Domain::AudioProcessing,
                     Pattern::StridedAccess | Pattern::VectorApi,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<Deinterleave>(o); }}));

} // namespace swan::workloads::webaudio
