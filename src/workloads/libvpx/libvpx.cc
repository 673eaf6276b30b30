/**
 * @file
 * libvpx workloads (symbol LV, Video Processing). Kernels common to most
 * video codecs (Section 3.2): forward/inverse 8x8 DCT (the Section 6.4
 * matrix-transposition pattern: each pass transposes the block with
 * TRN1/TRN2 chains, ~24% of LV instructions), 16x16 SAD (one of the eight
 * Figure-5 wider-register kernels, manually unrolled into independent
 * accumulators for ILP, Section 7.2), coefficient quantization, 16x16
 * variance, and residual block subtraction.
 *
 * The DCT butterfly math is shared between the Scalar and Neon
 * implementations through a small policy template, so outputs are
 * bit-exact by construction (fixed-point cospi constants, 14-bit rounds,
 * as in vpx_dsp).
 */

#include "workloads/common.hh"

namespace swan::workloads::libvpx
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

// vpx_dsp fixed-point cosine constants (x * 2^14).
constexpr int32_t kCospi4 = 16069, kCospi8 = 15137, kCospi12 = 13623;
constexpr int32_t kCospi16 = 11585, kCospi20 = 9102, kCospi24 = 6270;
constexpr int32_t kCospi28 = 3196;

// ---------------------------------------------------------------------
// Butterfly policies: identical math over Sc<int32_t> or Vec<int32_t>.
// ---------------------------------------------------------------------

struct ScalarOps
{
    using V = Sc<int32_t>;
    static V add(V a, V b) { return a + b; }
    static V sub(V a, V b) { return a - b; }
    /** round-shift-14 of a*c. */
    static V
    mulrs(V a, int32_t c)
    {
        V p = a * V(c);
        return (p + V(8192)) >> 14;
    }
    /** round-shift-14 of a*ca + b*cb. */
    static V
    mulrs2(V a, int32_t ca, V b, int32_t cb)
    {
        V p = a * V(ca) + b * V(cb);
        return (p + V(8192)) >> 14;
    }
};

struct VecOps
{
    using V = Vec<int32_t, 128>;
    static V add(const V &a, const V &b) { return vadd(a, b); }
    static V sub(const V &a, const V &b) { return vsub(a, b); }
    static V
    mulrs(const V &a, int32_t c)
    {
        auto p = vmul_n(a, Sc<int32_t>(c));
        return vrshr(p, 14);
    }
    static V
    mulrs2(const V &a, int32_t ca, const V &b, int32_t cb)
    {
        auto p = vmla_n(vmul_n(a, Sc<int32_t>(ca)), b, Sc<int32_t>(cb));
        return vrshr(p, 14);
    }
};

/** 8-point forward DCT (vpx_dsp structure) on 8 values. */
template <class Ops>
void
fdct8(std::array<typename Ops::V, 8> &x)
{
    using V = typename Ops::V;
    V s0 = Ops::add(x[0], x[7]), s7 = Ops::sub(x[0], x[7]);
    V s1 = Ops::add(x[1], x[6]), s6 = Ops::sub(x[1], x[6]);
    V s2 = Ops::add(x[2], x[5]), s5 = Ops::sub(x[2], x[5]);
    V s3 = Ops::add(x[3], x[4]), s4 = Ops::sub(x[3], x[4]);

    V e0 = Ops::add(s0, s3), e3 = Ops::sub(s0, s3);
    V e1 = Ops::add(s1, s2), e2 = Ops::sub(s1, s2);

    x[0] = Ops::mulrs(Ops::add(e0, e1), kCospi16);
    x[4] = Ops::mulrs(Ops::sub(e0, e1), kCospi16);
    x[2] = Ops::mulrs2(e2, kCospi24, e3, kCospi8);
    x[6] = Ops::mulrs2(e3, kCospi24, e2, -kCospi8);

    V t2 = Ops::mulrs(Ops::sub(s6, s5), kCospi16);
    V t3 = Ops::mulrs(Ops::add(s6, s5), kCospi16);
    V o0 = Ops::add(s4, t2), o1 = Ops::sub(s4, t2);
    V o2 = Ops::sub(s7, t3), o3 = Ops::add(s7, t3);

    x[1] = Ops::mulrs2(o0, kCospi28, o3, kCospi4);
    x[7] = Ops::mulrs2(o3, kCospi28, o0, -kCospi4);
    x[5] = Ops::mulrs2(o1, kCospi12, o2, kCospi20);
    x[3] = Ops::mulrs2(o2, kCospi12, o1, -kCospi20);
}

/** 8-point inverse DCT (vpx_dsp structure). */
template <class Ops>
void
idct8(std::array<typename Ops::V, 8> &x)
{
    using V = typename Ops::V;
    V s0 = Ops::mulrs(Ops::add(x[0], x[4]), kCospi16);
    V s1 = Ops::mulrs(Ops::sub(x[0], x[4]), kCospi16);
    V s2 = Ops::mulrs2(x[2], kCospi24, x[6], -kCospi8);
    V s3 = Ops::mulrs2(x[2], kCospi8, x[6], kCospi24);
    V s4 = Ops::mulrs2(x[1], kCospi28, x[7], -kCospi4);
    V s7 = Ops::mulrs2(x[1], kCospi4, x[7], kCospi28);
    V s5 = Ops::mulrs2(x[5], kCospi12, x[3], -kCospi20);
    V s6 = Ops::mulrs2(x[5], kCospi20, x[3], kCospi12);

    V e0 = Ops::add(s0, s3), e3 = Ops::sub(s0, s3);
    V e1 = Ops::add(s1, s2), e2 = Ops::sub(s1, s2);
    V o0 = Ops::add(s4, s5), o1 = Ops::sub(s4, s5);
    V o3 = Ops::add(s7, s6), o2 = Ops::sub(s7, s6);

    V p1 = Ops::mulrs(Ops::sub(o2, o1), kCospi16);
    V p2 = Ops::mulrs(Ops::add(o2, o1), kCospi16);

    x[0] = Ops::add(e0, o3);
    x[7] = Ops::sub(e0, o3);
    x[1] = Ops::add(e1, p2);
    x[6] = Ops::sub(e1, p2);
    x[2] = Ops::add(e2, p1);
    x[5] = Ops::sub(e2, p1);
    x[3] = Ops::add(e3, o0);
    x[4] = Ops::sub(e3, o0);
}

namespace
{

/** Transpose an 8x8 block of s16 held in 8 vectors (TRN chains). */
void
transpose8x8(std::array<Vec<int16_t, 128>, 8> &r)
{
    // 16-bit pairs.
    auto a0 = vtrn1(r[0], r[1]), a1 = vtrn2(r[0], r[1]);
    auto a2 = vtrn1(r[2], r[3]), a3 = vtrn2(r[2], r[3]);
    auto a4 = vtrn1(r[4], r[5]), a5 = vtrn2(r[4], r[5]);
    auto a6 = vtrn1(r[6], r[7]), a7 = vtrn2(r[6], r[7]);
    // 32-bit pairs.
    auto b0 = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int32_t>(a0), vreinterpret<int32_t>(a2)));
    auto b2 = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int32_t>(a0), vreinterpret<int32_t>(a2)));
    auto b1 = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int32_t>(a1), vreinterpret<int32_t>(a3)));
    auto b3 = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int32_t>(a1), vreinterpret<int32_t>(a3)));
    auto b4 = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int32_t>(a4), vreinterpret<int32_t>(a6)));
    auto b6 = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int32_t>(a4), vreinterpret<int32_t>(a6)));
    auto b5 = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int32_t>(a5), vreinterpret<int32_t>(a7)));
    auto b7 = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int32_t>(a5), vreinterpret<int32_t>(a7)));
    // 64-bit pairs.
    r[0] = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int64_t>(b0), vreinterpret<int64_t>(b4)));
    r[4] = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int64_t>(b0), vreinterpret<int64_t>(b4)));
    r[1] = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int64_t>(b1), vreinterpret<int64_t>(b5)));
    r[5] = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int64_t>(b1), vreinterpret<int64_t>(b5)));
    r[2] = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int64_t>(b2), vreinterpret<int64_t>(b6)));
    r[6] = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int64_t>(b2), vreinterpret<int64_t>(b6)));
    r[3] = vreinterpret<int16_t>(
        vtrn1(vreinterpret<int64_t>(b3), vreinterpret<int64_t>(b7)));
    r[7] = vreinterpret<int16_t>(
        vtrn2(vreinterpret<int64_t>(b3), vreinterpret<int64_t>(b7)));
}

/** Base for the 8x8 transform kernels. */
class DctKernel : public Workload
{
  public:
    DctKernel(const Options &opts, uint64_t salt) : blocks_(opts.videoBlocks)
    {
        Rng rng(opts.seed ^ salt);
        in_.resize(size_t(blocks_) * 64);
        for (auto &v : in_)
            v = int16_t(rng.range(-255, 255));
        outScalar_.assign(in_.size(), 0);
        outNeon_.assign(in_.size(), 1);
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return in_.size() * 16; }

  protected:
    /** Scalar two-pass transform with an explicit transpose between. */
    template <bool kForward>
    void
    scalarTransform()
    {
        for (int b = 0; b < blocks_; ++b) {
            const int16_t *src = &in_[size_t(b) * 64];
            int16_t *dst = &outScalar_[size_t(b) * 64];
            std::array<std::array<Sc<int32_t>, 8>, 8> m;
            for (int r = 0; r < 8; ++r)
                for (int c = 0; c < 8; ++c) {
                    m[size_t(r)][size_t(c)] =
                        sload(src + r * 8 + c).to<int32_t>();
                    ctl::loop();
                }
            // Pass 1 on columns.
            for (int c = 0; c < 8; ++c) {
                std::array<Sc<int32_t>, 8> col;
                for (int r = 0; r < 8; ++r)
                    col[size_t(r)] = m[size_t(r)][size_t(c)];
                if constexpr (kForward)
                    fdct8<ScalarOps>(col);
                else
                    idct8<ScalarOps>(col);
                for (int r = 0; r < 8; ++r)
                    m[size_t(r)][size_t(c)] = col[size_t(r)];
                ctl::loop();
            }
            // Pass 2 on rows.
            for (int r = 0; r < 8; ++r) {
                if constexpr (kForward)
                    fdct8<ScalarOps>(m[size_t(r)]);
                else
                    idct8<ScalarOps>(m[size_t(r)]);
                for (int c = 0; c < 8; ++c)
                    sstore(dst + r * 8 + c,
                           m[size_t(r)][size_t(c)].to<int16_t>());
                ctl::loop();
            }
        }
    }

    /** Vector two-pass transform; lanes are columns, TRN transposes. */
    template <bool kForward>
    void
    vecTransform()
    {
        for (int b = 0; b < blocks_; ++b) {
            const int16_t *src = &in_[size_t(b) * 64];
            int16_t *dst = &outNeon_[size_t(b) * 64];
            std::array<Vec<int16_t, 128>, 8> rows;
            for (int r = 0; r < 8; ++r)
                rows[size_t(r)] = vld1<128>(src + r * 8);

            auto pass = [&]() {
                std::array<Vec<int32_t, 128>, 8> lo, hi;
                for (int r = 0; r < 8; ++r) {
                    lo[size_t(r)] = vmovl_lo(rows[size_t(r)]);
                    hi[size_t(r)] = vmovl_hi(rows[size_t(r)]);
                }
                if constexpr (kForward) {
                    fdct8<VecOps>(lo);
                    fdct8<VecOps>(hi);
                } else {
                    idct8<VecOps>(lo);
                    idct8<VecOps>(hi);
                }
                for (int r = 0; r < 8; ++r)
                    rows[size_t(r)] =
                        vmovn(lo[size_t(r)], hi[size_t(r)]);
            };

            pass();                 // columns (lanes)
            transpose8x8(rows);     // Section 6.4 primitive
            pass();                 // rows (now in lanes)
            transpose8x8(rows);     // restore row-major layout
            for (int r = 0; r < 8; ++r) {
                vst1(dst + r * 8, rows[size_t(r)]);
                ctl::loop();
            }
        }
    }

    int blocks_;
    Buf<int16_t> in_, outScalar_, outNeon_;
};

} // namespace

class Fdct8x8 : public DctKernel
{
  public:
    explicit Fdct8x8(const Options &opts) : DctKernel(opts, 0x6001) {}
    void runScalar() override { scalarTransform<true>(); }
    void runNeon(int) override { vecTransform<true>(); }
};

class Idct8x8 : public DctKernel
{
  public:
    explicit Idct8x8(const Options &opts) : DctKernel(opts, 0x6002) {}
    void runScalar() override { scalarTransform<false>(); }
    void runNeon(int) override { vecTransform<false>(); }
};

// ---------------------------------------------------------------------
// sad16x16: sum of absolute differences between two 16x16 blocks
// ---------------------------------------------------------------------

class Sad16x16 : public Workload
{
  public:
    explicit Sad16x16(const Options &opts) : blocks_(opts.videoBlocks)
    {
        Rng rng(opts.seed ^ 0x6003);
        src_ = randomInts<uint8_t>(rng, size_t(blocks_) * 256);
        ref_ = randomInts<uint8_t>(rng, size_t(blocks_) * 256);
        outScalar_.assign(size_t(blocks_), 0);
        outNeon_.assign(size_t(blocks_), 1);
    }

    void
    runScalar() override
    {
        for (int b = 0; b < blocks_; ++b) {
            const uint8_t *s = &src_[size_t(b) * 256];
            const uint8_t *r = &ref_[size_t(b) * 256];
            Sc<uint32_t> sad(0u);
            for (int i = 0; i < 256; ++i) {
                Sc<int32_t> d = sload(s + i).to<int32_t>() -
                                sload(r + i).to<int32_t>();
                sad += sabs(d).to<uint32_t>();
                ctl::loop();
            }
            sstore(&outScalar_[size_t(b)], sad);
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

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return uint64_t(blocks_) * 512; }

  private:
    /**
     * Pack kRows 16-byte rows into one wide register. For B > 128 the
     * row loads must be combined (Section 7.1 packing overhead: Neon
     * cannot encode the 2-D access in one instruction).
     */
    template <int B>
    Vec<uint8_t, B>
    loadRows(const uint8_t *p)
    {
        if constexpr (B == 128) {
            return vld1<128>(p);
        } else {
            auto lo = loadRows<B / 2>(p);
            auto hi = loadRows<B / 2>(p + Vec<uint8_t, B / 2>::kLanes);
            return vcombine(lo, hi);
        }
    }

    template <int B>
    void
    neonImpl()
    {
        constexpr int kBytes = Vec<uint8_t, B>::kLanes;
        for (int b = 0; b < blocks_; ++b) {
            const uint8_t *s = &src_[size_t(b) * 256];
            const uint8_t *r = &ref_[size_t(b) * 256];
            // Four independent accumulators for ILP (Section 7.2).
            std::array<Vec<uint16_t, B>, 4> acc = {
                vdup<uint16_t, B>(uint16_t(0)),
                vdup<uint16_t, B>(uint16_t(0)),
                vdup<uint16_t, B>(uint16_t(0)),
                vdup<uint16_t, B>(uint16_t(0))};
            int i = 0;
            int lane = 0;
            for (; i + kBytes <= 256; i += kBytes) {
                auto a = loadRows<B>(s + i);
                auto bb = loadRows<B>(r + i);
                auto ab_lo = vabd(vmovl_lo(a), vmovl_lo(bb));
                auto ab_hi = vabd(vmovl_hi(a), vmovl_hi(bb));
                acc[size_t(lane % 4)] =
                    vadd(acc[size_t(lane % 4)], ab_lo);
                acc[size_t((lane + 1) % 4)] =
                    vadd(acc[size_t((lane + 1) % 4)], ab_hi);
                lane += 2;
                ctl::loop();
            }
            auto t0 = vadd(acc[0], acc[1]);
            auto t1 = vadd(acc[2], acc[3]);
            Sc<uint32_t> sad = vaddlv(vadd(t0, t1));
            sstore(&outNeon_[size_t(b)], sad.to<uint32_t>());
            ctl::loop();
        }
    }

    int blocks_;
    Buf<uint8_t> src_, ref_;
    Buf<uint32_t> outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// quantize_block: q = sign(c) * ((|c| + round) * quant >> 16), zeroed
// below the zero-bin threshold
// ---------------------------------------------------------------------

class QuantizeBlock : public Workload
{
  public:
    explicit QuantizeBlock(const Options &opts)
        : blocks_(opts.videoBlocks)
    {
        Rng rng(opts.seed ^ 0x6004);
        in_.resize(size_t(blocks_) * 64);
        for (auto &v : in_)
            v = int16_t(rng.range(-1024, 1024));
        outScalar_.assign(in_.size(), 0);
        outNeon_.assign(in_.size(), 1);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < in_.size(); ++i) {
            Sc<int32_t> c = sload(&in_[i]).to<int32_t>();
            Sc<int32_t> a = sabs(c);
            if (a.v < kZbin) {
                sstore(&outScalar_[i], Sc<int16_t>(int16_t(0)));
                ctl::branch();
            } else {
                Sc<int32_t> q = ((a + Sc<int32_t>(kRound)) *
                                 Sc<int32_t>(kQuant)) >> 16;
                Sc<int32_t> sign_applied =
                    sselect(c.v < 0, Sc<int32_t>(0) - q, q);
                sstore(&outScalar_[i], sign_applied.to<int16_t>());
            }
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        const auto zbin = vdup<int16_t, 128>(int16_t(kZbin));
        const auto round = vdup<int16_t, 128>(int16_t(kRound));
        const auto quant = vdup<int32_t, 128>(kQuant);
        size_t i = 0;
        for (; i + 8 <= in_.size(); i += 8) {
            auto c = vld1<128>(&in_[i]);
            auto a = vabs(c);
            auto keep = vcge(a, zbin);
            auto biased = vqadd(a, round);
            auto p_lo = vmul(vmovl_lo(biased), quant);
            auto p_hi = vmul(vmovl_hi(biased), quant);
            auto q16 = vshrn(p_lo, p_hi, 16);
            // Restore sign: (q ^ sign) - sign with sign = c >> 15.
            auto sign = vshr(c, 15);
            auto signed_q = vsub(veor(q16, sign), sign);
            auto masked = vbsl(keep, signed_q,
                               vdup<int16_t, 128>(int16_t(0)));
            vst1(&outNeon_[i], masked);
            ctl::loop();
        }
        for (; i < in_.size(); ++i) {
            Sc<int32_t> c = sload(&in_[i]).to<int32_t>();
            Sc<int32_t> a = sabs(c);
            if (a.v < kZbin) {
                sstore(&outNeon_[i], Sc<int16_t>(int16_t(0)));
                ctl::branch();
            } else {
                Sc<int32_t> q = ((a + Sc<int32_t>(kRound)) *
                                 Sc<int32_t>(kQuant)) >> 16;
                Sc<int32_t> s = sselect(c.v < 0, Sc<int32_t>(0) - q, q);
                sstore(&outNeon_[i], s.to<int16_t>());
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    static constexpr int32_t kZbin = 24, kRound = 48, kQuant = 21845;
    int blocks_;
    Buf<int16_t> in_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// variance16x16: var = sse - mean^2 over a 16x16 block
// ---------------------------------------------------------------------

class Variance16x16 : public Workload
{
  public:
    explicit Variance16x16(const Options &opts) : blocks_(opts.videoBlocks)
    {
        Rng rng(opts.seed ^ 0x6005);
        src_ = randomInts<uint8_t>(rng, size_t(blocks_) * 256);
        outScalar_.assign(size_t(blocks_), 0);
        outNeon_.assign(size_t(blocks_), 1);
        outAuto_.assign(size_t(blocks_), 2);
    }

    void
    runScalar() override
    {
        for (int b = 0; b < blocks_; ++b) {
            const uint8_t *s = &src_[size_t(b) * 256];
            Sc<uint32_t> sum(0u), sse(0u);
            for (int i = 0; i < 256; ++i) {
                Sc<uint32_t> v = sload(s + i).to<uint32_t>();
                sum += v;
                sse = smadd(v, v, sse);
                ctl::loop();
            }
            Sc<uint32_t> var = sse - ((sum * sum) >> 8);
            sstore(&outScalar_[size_t(b)], var);
            ctl::loop();
        }
    }

    void runNeon(int) override { vecBody(outNeon_, 2); }

    void
    runAuto() override
    {
        // Integer reductions vectorize; interleave 1 instead of the
        // hand-unrolled accumulators (Auto < Neon).
        vecBody(outAuto_, 1);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    vecBody(Buf<uint32_t> &out, int unroll)
    {
        for (int b = 0; b < blocks_; ++b) {
            const uint8_t *s = &src_[size_t(b) * 256];
            auto sum0 = vdup<uint16_t, 128>(uint16_t(0));
            auto sum1 = sum0;
            auto sse0 = vdup<uint32_t, 128>(0u);
            auto sse1 = sse0;
            for (int i = 0; i < 256; i += 16 * unroll) {
                for (int u = 0; u < unroll; ++u) {
                    auto d = vld1<128>(s + i + 16 * u);
                    auto lo = vmovl_lo(d), hi = vmovl_hi(d);
                    auto &sm = u == 0 ? sum0 : sum1;
                    auto &se = u == 0 ? sse0 : sse1;
                    sm = vadd(sm, vpadd(lo, hi));
                    se = vmlal_lo(se, lo, lo);
                    se = vmlal_hi(se, lo, lo);
                    se = vmlal_lo(se, hi, hi);
                    se = vmlal_hi(se, hi, hi);
                }
                ctl::loop();
            }
            Sc<uint32_t> sum = vaddlv(vadd(sum0, sum1)).to<uint32_t>();
            Sc<uint32_t> sse =
                vaddv(vadd(sse0, sse1)).to<uint32_t>();
            Sc<uint32_t> var = sse - ((sum * sum) >> 8);
            sstore(&out[size_t(b)], var);
            ctl::loop();
        }
    }

    int blocks_;
    Buf<uint8_t> src_;
    Buf<uint32_t> outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// subtract_block: residual[i] = src[i] - pred[i] (u8 -> s16)
// ---------------------------------------------------------------------

class SubtractBlock : public Workload
{
  public:
    explicit SubtractBlock(const Options &opts)
        : n_(opts.videoBlocks * 256)
    {
        Rng rng(opts.seed ^ 0x6006);
        src_ = randomInts<uint8_t>(rng, size_t(n_));
        pred_ = randomInts<uint8_t>(rng, size_t(n_));
        outScalar_.assign(size_t(n_), 0);
        outNeon_.assign(size_t(n_), 1);
        outAuto_.assign(size_t(n_), 2);
    }

    void
    runScalar() override
    {
        for (int i = 0; i < n_; ++i) {
            Sc<int32_t> d = sload(&src_[size_t(i)]).to<int32_t>() -
                            sload(&pred_[size_t(i)]).to<int32_t>();
            sstore(&outScalar_[size_t(i)], d.to<int16_t>());
            ctl::loop();
        }
    }

    void runNeon(int) override { vecBody(outNeon_); }
    void runAuto() override { vecBody(outAuto_); } // vectorizes (~= Neon)

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    vecBody(Buf<int16_t> &out)
    {
        int i = 0;
        for (; i + 16 <= n_; i += 16) {
            auto s = vld1<128>(&src_[size_t(i)]);
            auto p = vld1<128>(&pred_[size_t(i)]);
            // u8 - u8 widening subtract (USUBL), stored as s16.
            auto u_lo = vsubl_lo(s, p);
            auto u_hi = vsubl_hi(s, p);
            vst1(&out[size_t(i)], vreinterpret<int16_t>(u_lo));
            vst1(&out[size_t(i) + 8], vreinterpret<int16_t>(u_hi));
            ctl::loop();
        }
        for (; i < n_; ++i) {
            Sc<int32_t> d = sload(&src_[size_t(i)]).to<int32_t>() -
                            sload(&pred_[size_t(i)]).to<int32_t>();
            sstore(&out[size_t(i)], d.to<int16_t>());
            ctl::loop();
        }
    }

    int n_;
    Buf<uint8_t> src_, pred_;
    Buf<int16_t> outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "libvpx", "LV", Domain::VideoProcessing,
    true, true, true, false, 0.0, 0.0}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libvpx", "LV", "fdct8x8", Domain::VideoProcessing,
                     uint32_t(Pattern::Transpose),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     false, 0},
    [](const Options &o) { return std::make_unique<Fdct8x8>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libvpx", "LV", "idct8x8", Domain::VideoProcessing,
                     uint32_t(Pattern::Transpose),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     false, 0},
    [](const Options &o) { return std::make_unique<Idct8x8>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libvpx", "LV", "sad16x16", Domain::VideoProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{true, 0}, /*widerWidths=*/true, 0},
    [](const Options &o) { return std::make_unique<Sad16x16>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libvpx", "LV", "quantize_block",
                     Domain::VideoProcessing, 0,
                     autovec::Verdict{false,
                                      autovec::Fail::OtherLegality |
                                          autovec::Fail::CostModel},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<QuantizeBlock>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libvpx", "LV", "variance16x16",
                     Domain::VideoProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<Variance16x16>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libvpx", "LV", "subtract_block",
                     Domain::VideoProcessing, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<SubtractBlock>(o);
    }}));

} // namespace swan::workloads::libvpx
