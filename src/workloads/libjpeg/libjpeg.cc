/**
 * @file
 * libjpeg-turbo workloads (symbol LJ; the paper's figures label this
 * library LT). JPEG (de)compression hot spots: RGB <-> YCbCr color-space
 * conversion (RGB-to-YCbCr is one of the eight Figure-5 wider-register
 * kernels; 99% SIMD lane utilization), 2x2 chroma downsampling (the
 * Section 5.2 Example 3 kernel: the alternating rounding bias is a
 * loop-carried PHI that defeats the auto-vectorizer, while the Neon code
 * uses a constant bias vector), fancy 2x1 upsampling, and a 3-tap row
 * smoother.
 */

#include "workloads/common.hh"

namespace swan::workloads::libjpeg
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

// Fixed-point BT.601 luma coefficients at 14-bit scale (sum = 16384),
// the scale libjpeg-turbo's Neon path uses so products fit u16 x u16.
constexpr uint32_t kYR = 4899, kYG = 9617, kYB = 1868;
constexpr int kShift = 14;
constexpr uint32_t kBias = 1u << (kShift - 1);

// ---------------------------------------------------------------------
// rgb_to_ycbcr (luma plane): Y = (cR*R + cG*G + cB*B + 2^15) >> 16
// ---------------------------------------------------------------------

class RgbToYcbcr : public Workload
{
  public:
    explicit RgbToYcbcr(const Options &opts)
        : pixels_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x4a01);
        rgb_ = randomInts<uint8_t>(rng, size_t(pixels_) * 3);
        outScalar_.assign(size_t(pixels_), 0);
        outNeon_.assign(size_t(pixels_), 1);
        outAuto_.assign(size_t(pixels_), 2);
    }

    void
    runScalar() override
    {
        for (int p = 0; p < pixels_; ++p) {
            const size_t base = size_t(p) * 3;
            Sc<uint32_t> r = sload(&rgb_[base]).to<uint32_t>();
            Sc<uint32_t> g = sload(&rgb_[base + 1]).to<uint32_t>();
            Sc<uint32_t> b = sload(&rgb_[base + 2]).to<uint32_t>();
            Sc<uint32_t> y = smadd(r, Sc<uint32_t>(kYR),
                                   Sc<uint32_t>(kBias));
            y = smadd(g, Sc<uint32_t>(kYG), y);
            y = smadd(b, Sc<uint32_t>(kYB), y);
            sstore(&outScalar_[size_t(p)], (y >> kShift).to<uint8_t>());
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

    void
    runAuto() override
    {
        // Vectorizes, but without VLD3 de-interleaving: three overlapping
        // loads plus a TBL-based shuffle cascade per 16 pixels, and
        // conservative 32-bit accumulation (Auto < Neon).
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            const size_t base = size_t(p) * 3;
            // Gather R/G/B planes with scalarized strided loads.
            auto rv = vdup<uint8_t, 128>(uint8_t(0));
            auto gv = rv, bv = rv;
            for (int j = 0; j < 16; ++j) {
                rv = vset_lane(rv, j, sload(&rgb_[base + size_t(3 * j)]));
                gv = vset_lane(gv, j,
                               sload(&rgb_[base + size_t(3 * j) + 1]));
                bv = vset_lane(bv, j,
                               sload(&rgb_[base + size_t(3 * j) + 2]));
            }
            computeY<128>(rv, gv, bv, &outAuto_[size_t(p)]);
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outAuto_);
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return uint64_t(pixels_) * 6; }

  private:
    template <int B>
    void
    computeY(const Vec<uint8_t, B> &r, const Vec<uint8_t, B> &g,
             const Vec<uint8_t, B> &b, uint8_t *out)
    {
        // u16 x u16 -> u32 widening multiply-accumulates against the
        // 14-bit-scale coefficients (libjpeg-turbo's Neon strategy).
        auto r16 = vmovl_lo(r), r16h = vmovl_hi(r);
        auto g16 = vmovl_lo(g), g16h = vmovl_hi(g);
        auto b16 = vmovl_lo(b), b16h = vmovl_hi(b);
        const auto cr = vdup<uint16_t, B>(uint16_t(kYR));
        const auto cg = vdup<uint16_t, B>(uint16_t(kYG));
        const auto cb = vdup<uint16_t, B>(uint16_t(kYB));
        const auto bias = vdup<uint32_t, B>(kBias);

        auto y00 = vmlal_lo(bias, r16, cr);
        y00 = vmlal_lo(y00, g16, cg);
        y00 = vmlal_lo(y00, b16, cb);
        auto y01 = vmlal_hi(bias, r16, cr);
        y01 = vmlal_hi(y01, g16, cg);
        y01 = vmlal_hi(y01, b16, cb);
        auto y10 = vmlal_lo(bias, r16h, cr);
        y10 = vmlal_lo(y10, g16h, cg);
        y10 = vmlal_lo(y10, b16h, cb);
        auto y11 = vmlal_hi(bias, r16h, cr);
        y11 = vmlal_hi(y11, g16h, cg);
        y11 = vmlal_hi(y11, b16h, cb);

        auto n_lo = vshrn(y00, y01, kShift);
        auto n_hi = vshrn(y10, y11, kShift);
        vst1(out, vmovn(n_lo, n_hi));
    }

    template <int B>
    void
    neonImpl()
    {
        constexpr int kLanes = Vec<uint8_t, B>::kLanes;
        int p = 0;
        for (; p + kLanes <= pixels_; p += kLanes) {
            auto rgb = vld3<B>(&rgb_[size_t(p) * 3]);
            computeY<B>(rgb[0], rgb[1], rgb[2], &outNeon_[size_t(p)]);
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outNeon_);
    }

    void
    scalarPixel(int p, Buf<uint8_t> &out)
    {
        const size_t base = size_t(p) * 3;
        Sc<uint32_t> r = sload(&rgb_[base]).to<uint32_t>();
        Sc<uint32_t> g = sload(&rgb_[base + 1]).to<uint32_t>();
        Sc<uint32_t> b = sload(&rgb_[base + 2]).to<uint32_t>();
        Sc<uint32_t> y = smadd(r, Sc<uint32_t>(kYR),
                               Sc<uint32_t>(kBias));
        y = smadd(g, Sc<uint32_t>(kYG), y);
        y = smadd(b, Sc<uint32_t>(kYB), y);
        sstore(&out[size_t(p)], (y >> kShift).to<uint8_t>());
        ctl::loop();
    }

    int pixels_;
    Buf<uint8_t> rgb_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// ycbcr_to_rgb (red channel): R = clamp(Y + 1.402*(Cr-128))
// ---------------------------------------------------------------------

class YcbcrToRgb : public Workload
{
  public:
    explicit YcbcrToRgb(const Options &opts)
        : pixels_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x4a02);
        y_ = randomInts<uint8_t>(rng, size_t(pixels_));
        cr_ = randomInts<uint8_t>(rng, size_t(pixels_));
        outScalar_.assign(size_t(pixels_), 0);
        outNeon_.assign(size_t(pixels_), 1);
        outAuto_.assign(size_t(pixels_), 2);
    }

    void
    runScalar() override
    {
        scalarBody(outScalar_);
    }

    void
    runNeon(int) override
    {
        // R = clamp(Y + (91881*(Cr-128) + 2^15 >> 16)), via s16 mul-high.
        const auto c = vdup<int16_t, 128>(int16_t(11485)); // 1.402 * 2^13
        const auto off = vdup<int16_t, 128>(int16_t(128));
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            auto yv = vld1<128>(&y_[size_t(p)]);
            auto crv = vld1<128>(&cr_[size_t(p)]);
            auto cr_lo = vsub(vreinterpret<int16_t>(vmovl_lo(crv)), off);
            auto cr_hi = vsub(vreinterpret<int16_t>(vmovl_hi(crv)), off);
            // (cr * 11485 * 2) >> 16 ~= cr * 1.402 >> 2 ... use QDMULH
            // then round-shift as libjpeg-turbo's ycc_rgb does.
            auto d_lo = vqdmulh(cr_lo, c);
            auto d_hi = vqdmulh(cr_hi, c);
            auto y_lo = vreinterpret<int16_t>(vmovl_lo(yv));
            auto y_hi = vreinterpret<int16_t>(vmovl_hi(yv));
            auto r_lo = vadd(y_lo, vrshr(d_lo, 2));
            auto r_hi = vadd(y_hi, vrshr(d_hi, 2));
            vst1(&outNeon_[size_t(p)], vqmovun(r_lo, r_hi));
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outNeon_);
    }

    void
    runAuto() override
    {
        // Vectorizes with an s32 inner type and explicit min/max clamps
        // instead of the saturating narrow (Auto < Neon).
        int p = 0;
        const auto c32 = vdup<int32_t, 128>(11485);
        const auto off32 = vdup<int32_t, 128>(128);
        const auto zero = vdup<int32_t, 128>(0);
        const auto v255 = vdup<int32_t, 128>(255);
        for (; p + 16 <= pixels_; p += 16) {
            auto yv = vld1<128>(&y_[size_t(p)]);
            auto crv = vld1<128>(&cr_[size_t(p)]);
            auto y16l = vmovl_lo(yv), y16h = vmovl_hi(yv);
            auto c16l = vmovl_lo(crv), c16h = vmovl_hi(crv);
            std::array<Vec<int32_t, 128>, 4> ys = {
                vreinterpret<int32_t>(vmovl_lo(y16l)),
                vreinterpret<int32_t>(vmovl_hi(y16l)),
                vreinterpret<int32_t>(vmovl_lo(y16h)),
                vreinterpret<int32_t>(vmovl_hi(y16h))};
            std::array<Vec<int32_t, 128>, 4> cs = {
                vreinterpret<int32_t>(vmovl_lo(c16l)),
                vreinterpret<int32_t>(vmovl_hi(c16l)),
                vreinterpret<int32_t>(vmovl_lo(c16h)),
                vreinterpret<int32_t>(vmovl_hi(c16h))};
            std::array<Vec<int32_t, 128>, 4> rs;
            for (int k = 0; k < 4; ++k) {
                auto d = vmul(vsub(cs[size_t(k)], off32), c32);
                d = vrshr(d, 13);
                auto r = vadd(ys[size_t(k)], d);
                rs[size_t(k)] = vmin(vmax(r, zero), v255);
            }
            auto n0 = vmovn(vreinterpret<uint32_t>(rs[0]),
                            vreinterpret<uint32_t>(rs[1]));
            auto n1 = vmovn(vreinterpret<uint32_t>(rs[2]),
                            vreinterpret<uint32_t>(rs[3]));
            vst1(&outAuto_[size_t(p)], vmovn(n0, n1));
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outAuto_);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    scalarBody(Buf<uint8_t> &out)
    {
        for (int p = 0; p < pixels_; ++p)
            scalarPixel(p, out);
    }

    void
    scalarPixel(int p, Buf<uint8_t> &out)
    {
        Sc<int32_t> y = sload(&y_[size_t(p)]).to<int32_t>();
        Sc<int32_t> cr = sload(&cr_[size_t(p)]).to<int32_t>();
        // Match the Neon fixed-point pipeline bit-exactly:
        // d = rshr(qdmulh16(cr - 128, 11485), 2).
        Sc<int32_t> diff = cr - Sc<int32_t>(128);
        Sc<int32_t> prod = diff * Sc<int32_t>(11485);
        Sc<int32_t> mulhi = (prod + prod) >> 16;       // QDMULH
        Sc<int32_t> d = (mulhi + Sc<int32_t>(2)) >> 2; // VRSHR #2
        Sc<int32_t> r = y + d;
        r = smax(r, Sc<int32_t>(0));
        r = smin(r, Sc<int32_t>(255));
        sstore(&out[size_t(p)], r.to<uint8_t>());
        ctl::loop();
    }

    int pixels_;
    Buf<uint8_t> y_, cr_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// downsample_h2v2: out[x] = (p00+p01+p10+p11 + bias) >> 2, bias = 1,2,1,2
// ---------------------------------------------------------------------

class DownsampleH2V2 : public Workload
{
  public:
    explicit DownsampleH2V2(const Options &opts)
        : width_(opts.imageWidth & ~31), rows_(opts.imageHeight & ~1)
    {
        Rng rng(opts.seed ^ 0x4a03);
        src_ = randomInts<uint8_t>(rng, size_t(width_) * size_t(rows_));
        const size_t out_n =
            size_t(width_ / 2) * size_t(rows_ / 2);
        outScalar_.assign(out_n, 0);
        outNeon_.assign(out_n, 1);
    }

    void
    runScalar() override
    {
        // The alternating bias is carried across iterations: the PHI
        // node LLVM cannot resolve (Section 5.2, Example 3).
        for (int y = 0; y < rows_; y += 2) {
            const uint8_t *r0 = &src_[size_t(y) * size_t(width_)];
            const uint8_t *r1 = r0 + width_;
            uint8_t *out =
                &outScalar_[size_t(y / 2) * size_t(width_ / 2)];
            Sc<uint32_t> bias(1u);
            for (int x = 0; x < width_; x += 2) {
                Sc<uint32_t> sum = sload(r0 + x).to<uint32_t>() +
                                   sload(r0 + x + 1).to<uint32_t>() +
                                   sload(r1 + x).to<uint32_t>() +
                                   sload(r1 + x + 1).to<uint32_t>();
                sstore(out + x / 2, ((sum + bias) >> 2).to<uint8_t>());
                bias = bias ^ Sc<uint32_t>(3u); // 1 <-> 2
                ctl::loop();
            }
        }
    }

    void
    runNeon(int) override
    {
        // Constant bias vector {1,2,1,2,...} (the Neon fix the paper
        // describes), horizontal pair-add then vertical add.
        uint16_t bias_mem[8];
        for (int i = 0; i < 8; ++i)
            bias_mem[i] = uint16_t(i % 2 ? 2 : 1);
        const auto bias = vld1<128>(bias_mem);
        for (int y = 0; y < rows_; y += 2) {
            const uint8_t *r0 = &src_[size_t(y) * size_t(width_)];
            const uint8_t *r1 = r0 + width_;
            uint8_t *out = &outNeon_[size_t(y / 2) * size_t(width_ / 2)];
            int x = 0;
            for (; x + 16 <= width_; x += 16) {
                auto d0 = vld1<128>(r0 + x);
                auto d1 = vld1<128>(r1 + x);
                auto h0 = vpaddl(d0);            // u16 pair sums
                auto h1 = vpaddl(d1);
                auto sum = vadd(vadd(h0, h1), bias);
                auto n = vshrn(sum, sum, 2);     // low half valid
                vst1_partial(out + x / 2, n, 8);
                ctl::loop();
            }
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int width_, rows_;
    Buf<uint8_t> src_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// upsample_h2v1_fancy: out[2x] = (3*s[x] + s[x-1] + 2) >> 2,
//                      out[2x+1] = (3*s[x] + s[x+1] + 1) >> 2
// ---------------------------------------------------------------------

class UpsampleH2V1 : public Workload
{
  public:
    explicit UpsampleH2V1(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x4a04);
        src_ = randomInts<uint8_t>(rng, size_t(n_) + 2);
        // All output buffers share the zero fill: the first/last output
        // pixels are edge-replicated by callers and stay untouched here.
        outScalar_.assign(size_t(n_) * 2, 0);
        outNeon_.assign(size_t(n_) * 2, 0);
        outAuto_.assign(size_t(n_) * 2, 0);
    }

    void
    runScalar() override
    {
        for (int x = 1; x + 1 < n_; ++x) {
            Sc<uint32_t> s = sload(&src_[size_t(x)]).to<uint32_t>();
            Sc<uint32_t> sm = sload(&src_[size_t(x - 1)]).to<uint32_t>();
            Sc<uint32_t> sp = sload(&src_[size_t(x + 1)]).to<uint32_t>();
            Sc<uint32_t> t = s * Sc<uint32_t>(3u);
            sstore(&outScalar_[size_t(2 * x)],
                   ((t + sm + Sc<uint32_t>(2u)) >> 2).to<uint8_t>());
            sstore(&outScalar_[size_t(2 * x + 1)],
                   ((t + sp + Sc<uint32_t>(1u)) >> 2).to<uint8_t>());
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        vecBody(outNeon_, false);
    }

    void
    runAuto() override
    {
        // Vectorizes; the interleaved store becomes two stores plus ZIPs
        // either way, but the compiler re-widens to 16-bit lanes twice
        // (Auto < Neon, modeled as an extra widen/narrow round trip).
        vecBody(outAuto_, true);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    vecBody(Buf<uint8_t> &out_buf, bool conservative)
    {
        const auto three = vdup<uint16_t, 128>(uint16_t(3));
        const auto c1 = vdup<uint16_t, 128>(uint16_t(1));
        const auto c2 = vdup<uint16_t, 128>(uint16_t(2));
        int x = 1;
        for (; x + 17 <= n_; x += 16) {
            auto s = vld1<128>(&src_[size_t(x)]);
            auto sm = vld1<128>(&src_[size_t(x - 1)]);
            auto sp = vld1<128>(&src_[size_t(x + 1)]);
            auto t_lo = vmul(vmovl_lo(s), three);
            auto t_hi = vmul(vmovl_hi(s), three);
            if (conservative) {
                // Extra widen/narrow round trip the compiler emits.
                auto widened = vmovl_lo(t_lo);
                auto widened2 = vmovl_hi(t_lo);
                t_lo = vmovn(widened, widened2);
                auto widened3 = vmovl_lo(t_hi);
                auto widened4 = vmovl_hi(t_hi);
                t_hi = vmovn(widened3, widened4);
            }
            auto e_lo = vshr(vadd(vaddw_lo(t_lo, sm), c2), 2);
            auto e_hi = vshr(vadd(vaddw_hi(t_hi, sm), c2), 2);
            auto o_lo = vshr(vadd(vaddw_lo(t_lo, sp), c1), 2);
            auto o_hi = vshr(vadd(vaddw_hi(t_hi, sp), c1), 2);
            auto evens = vmovn(e_lo, e_hi);
            auto odds = vmovn(o_lo, o_hi);
            vst2(&out_buf[size_t(2 * x)],
                 std::array<Vec<uint8_t, 128>, 2>{evens, odds});
            ctl::loop();
        }
        for (; x + 1 < n_; ++x) {
            Sc<uint32_t> s = sload(&src_[size_t(x)]).to<uint32_t>();
            Sc<uint32_t> sm = sload(&src_[size_t(x - 1)]).to<uint32_t>();
            Sc<uint32_t> sp = sload(&src_[size_t(x + 1)]).to<uint32_t>();
            Sc<uint32_t> t = s * Sc<uint32_t>(3u);
            sstore(&out_buf[size_t(2 * x)],
                   ((t + sm + Sc<uint32_t>(2u)) >> 2).to<uint8_t>());
            sstore(&out_buf[size_t(2 * x + 1)],
                   ((t + sp + Sc<uint32_t>(1u)) >> 2).to<uint8_t>());
            ctl::loop();
        }
    }

    int n_;
    Buf<uint8_t> src_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// smooth_row: out[x] = (s[x-1] + 2*s[x] + s[x+1] + 2) >> 2
// ---------------------------------------------------------------------

class SmoothRow : public Workload
{
  public:
    explicit SmoothRow(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x4a05);
        src_ = randomInts<uint8_t>(rng, size_t(n_) + 2);
        outScalar_.assign(size_t(n_), 0);
        outNeon_.assign(size_t(n_), 1);
        outAuto_.assign(size_t(n_), 2);
    }

    void
    runScalar() override
    {
        for (int x = 0; x < n_; ++x) {
            Sc<uint32_t> a = sload(&src_[size_t(x)]).to<uint32_t>();
            Sc<uint32_t> b = sload(&src_[size_t(x + 1)]).to<uint32_t>();
            Sc<uint32_t> c = sload(&src_[size_t(x + 2)]).to<uint32_t>();
            Sc<uint32_t> sum = a + b + b + c + Sc<uint32_t>(2u);
            sstore(&outScalar_[size_t(x)], (sum >> 2).to<uint8_t>());
            ctl::loop();
        }
    }

    void runNeon(int) override { vecBody(outNeon_, false); }

    void
    runAuto() override
    {
        // Vectorizes with conservative 32-bit arithmetic (the compiler
        // cannot prove the 16-bit sums do not overflow), doubling the
        // vector work (Auto < Neon).
        vecBody(outAuto_, true);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    vecBody(Buf<uint8_t> &out_buf, bool conservative)
    {
        const auto c2 = vdup<uint16_t, 128>(uint16_t(2));
        int x = 0;
        for (; x + 16 <= n_; x += 16) {
            auto a = vld1<128>(&src_[size_t(x)]);
            auto b = vld1<128>(&src_[size_t(x + 1)]);
            auto c = vld1<128>(&src_[size_t(x + 2)]);
            auto lo = vadd(vaddl_lo(a, c), vadd(vshll_lo(b, 1), c2));
            auto hi = vadd(vaddl_hi(a, c), vadd(vshll_hi(b, 1), c2));
            if (conservative) {
                // s32 round trip per half (compiler-widened arithmetic).
                auto w0 = vmovl_lo(lo), w1 = vmovl_hi(lo);
                auto w2 = vmovl_lo(hi), w3 = vmovl_hi(hi);
                lo = vmovn(vshr(w0, 0), vshr(w1, 0));
                hi = vmovn(vshr(w2, 0), vshr(w3, 0));
            }
            vst1(&out_buf[size_t(x)], vshrn(lo, hi, 2));
            ctl::loop();
        }
        for (; x < n_; ++x) {
            Sc<uint32_t> a = sload(&src_[size_t(x)]).to<uint32_t>();
            Sc<uint32_t> b = sload(&src_[size_t(x + 1)]).to<uint32_t>();
            Sc<uint32_t> c = sload(&src_[size_t(x + 2)]).to<uint32_t>();
            Sc<uint32_t> sum = a + b + b + c + Sc<uint32_t>(2u);
            sstore(&out_buf[size_t(x)], (sum >> 2).to<uint8_t>());
            ctl::loop();
        }
    }

    int n_;
    Buf<uint8_t> src_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "libjpeg-turbo", "LJ", Domain::ImageProcessing,
    true, false, false, true, 6.8, 2.4}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libjpeg-turbo", "LJ", "rgb_to_ycbcr",
                     Domain::ImageProcessing,
                     uint32_t(Pattern::StridedAccess),
                     autovec::Verdict{true, 0}, /*widerWidths=*/true, 0},
    [](const Options &o) { return std::make_unique<RgbToYcbcr>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libjpeg-turbo", "LJ", "ycbcr_to_rgb",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<YcbcrToRgb>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libjpeg-turbo", "LJ", "downsample_h2v2",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::ComplexPhi)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<DownsampleH2V2>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libjpeg-turbo", "LJ", "upsample_h2v1_fancy",
                     Domain::ImageProcessing,
                     uint32_t(Pattern::StridedAccess),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<UpsampleH2V1>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libjpeg-turbo", "LJ", "smooth_row",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<SmoothRow>(o); }}));

} // namespace swan::workloads::libjpeg
