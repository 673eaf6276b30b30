/**
 * @file
 * Skia workloads (symbol SK, Graphics). Skia rasterizes paint operations
 * into pixel bitmaps; the CPU-side vector hot spots are the convolution
 * filters (used for image scaling; vertical convolution is one of the
 * eight Figure-5 wider-register kernels and a Section 6.1 inter-reduction
 * example), the src-over row blitter, rectangle fills, and RGBA
 * premultiplication (4-channel pixels: the stride-4 VLD4/VST4 pattern of
 * Section 6.3).
 */

#include "workloads/common.hh"

namespace swan::workloads::skia
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

/** Fixed-point convolution taps (sum 256, blur-like). */
constexpr uint8_t kTaps[4] = {26, 102, 102, 26};

// ---------------------------------------------------------------------
// convolve_vertically: out[x] = (sum_k tap[k] * row_k[x]) >> 8
// ---------------------------------------------------------------------

class ConvolveVertically : public Workload
{
  public:
    explicit ConvolveVertically(const Options &opts)
        : width_(opts.imageWidth * 4), rows_(opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x5101);
        src_ = randomInts<uint8_t>(rng, size_t(width_) * size_t(rows_));
        const size_t out_n = size_t(width_) * size_t(rows_ - 3);
        outScalar_.assign(out_n, 0);
        outNeon_.assign(out_n, 1);
        outAuto_.assign(out_n, 2);
    }

    void
    runScalar() override
    {
        for (int y = 0; y + 3 < rows_; ++y) {
            const uint8_t *r0 = row(y);
            uint8_t *out = &outScalar_[size_t(y) * size_t(width_)];
            for (int x = 0; x < width_; ++x) {
                Sc<uint32_t> acc(128u);
                for (int k = 0; k < 4; ++k) {
                    Sc<uint8_t> p = sload(r0 + size_t(k) * size_t(width_) +
                                          size_t(x));
                    acc = smadd(p.to<uint32_t>(),
                                Sc<uint32_t>(uint32_t(kTaps[k])), acc);
                }
                sstore(out + x, (acc >> 8).to<uint8_t>());
                ctl::loop();
            }
        }
    }

    void
    runNeon(int vec_bits) override
    {
        switch (vec_bits) {
          case 256: neonImpl<256>(outNeon_); break;
          case 512: neonImpl<512>(outNeon_); break;
          case 1024: neonImpl<1024>(outNeon_); break;
          default: neonImpl<128>(outNeon_); break;
        }
    }

    void
    runAuto() override
    {
        // Vectorizes, but with conservative 32-bit accumulation (twice
        // the vector work of the hand-tuned 16-bit Neon code).
        autoImpl(outAuto_);
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override
    {
        return outScalar_.size() * 8;
    }

  private:
    const uint8_t *
    row(int y) const
    {
        return &src_[size_t(y) * size_t(width_)];
    }

    template <int B>
    void
    neonImpl(Buf<uint8_t> &out_buf)
    {
        using V8 = Vec<uint8_t, B>;
        constexpr int kLanes = V8::kLanes;
        std::array<V8, 4> taps;
        for (int k = 0; k < 4; ++k)
            taps[size_t(k)] = vdup<uint8_t, B>(kTaps[k]);
        const auto bias = vdup<uint16_t, B>(uint16_t(128));

        for (int y = 0; y + 3 < rows_; ++y) {
            uint8_t *out = &out_buf[size_t(y) * size_t(width_)];
            int x = 0;
            for (; x + kLanes <= width_; x += kLanes) {
                auto acc_lo = bias;
                auto acc_hi = bias;
                for (int k = 0; k < 4; ++k) {
                    V8 d = vld1<B>(row(y) + size_t(k) * size_t(width_) +
                                   size_t(x));
                    acc_lo = vmlal_lo(acc_lo, d, taps[size_t(k)]);
                    acc_hi = vmlal_hi(acc_hi, d, taps[size_t(k)]);
                }
                vst1(out + x, vshrn(acc_lo, acc_hi, 8));
                ctl::loop();
            }
            for (; x < width_; ++x) {
                Sc<uint32_t> acc(128u);
                for (int k = 0; k < 4; ++k) {
                    Sc<uint8_t> p = sload(row(y) +
                                          size_t(k) * size_t(width_) +
                                          size_t(x));
                    acc = smadd(p.to<uint32_t>(),
                                Sc<uint32_t>(uint32_t(kTaps[k])), acc);
                }
                sstore(out + x, (acc >> 8).to<uint8_t>());
                ctl::loop();
            }
        }
    }

    void
    autoImpl(Buf<uint8_t> &out_buf)
    {
        const auto bias = vdup<uint32_t, 128>(128u);
        for (int y = 0; y + 3 < rows_; ++y) {
            uint8_t *out = &out_buf[size_t(y) * size_t(width_)];
            int x = 0;
            for (; x + 16 <= width_; x += 16) {
                // Four u32 accumulators per 16 pixels (VF=4 widened).
                std::array<Vec<uint32_t, 128>, 4> acc = {bias, bias, bias,
                                                         bias};
                for (int k = 0; k < 4; ++k) {
                    auto d = vld1<128>(row(y) + size_t(k) * size_t(width_) +
                                       size_t(x));
                    auto w16_lo = vmovl_lo(d);
                    auto w16_hi = vmovl_hi(d);
                    auto t = vdup<uint32_t, 128>(uint32_t(kTaps[k]));
                    acc[0] = vmla(acc[0], vmovl_lo(w16_lo), t);
                    acc[1] = vmla(acc[1], vmovl_hi(w16_lo), t);
                    acc[2] = vmla(acc[2], vmovl_lo(w16_hi), t);
                    acc[3] = vmla(acc[3], vmovl_hi(w16_hi), t);
                }
                auto n16_lo = vshrn(acc[0], acc[1], 8);
                auto n16_hi = vshrn(acc[2], acc[3], 8);
                vst1(out + x, vmovn(n16_lo, n16_hi));
                ctl::loop();
            }
            for (; x < width_; ++x) {
                Sc<uint32_t> acc(128u);
                for (int k = 0; k < 4; ++k) {
                    Sc<uint8_t> p = sload(row(y) +
                                          size_t(k) * size_t(width_) +
                                          size_t(x));
                    acc = smadd(p.to<uint32_t>(),
                                Sc<uint32_t>(uint32_t(kTaps[k])), acc);
                }
                sstore(out + x, (acc >> 8).to<uint8_t>());
                ctl::loop();
            }
        }
    }

    int width_, rows_;
    Buf<uint8_t> src_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// convolve_horizontally: out[x] = (sum_k tap[k] * src[x+k]) >> 8
// ---------------------------------------------------------------------

class ConvolveHorizontally : public Workload
{
  public:
    explicit ConvolveHorizontally(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x5102);
        src_ = randomInts<uint8_t>(rng, size_t(n_) + 16);
        outScalar_.assign(size_t(n_), 0);
        outNeon_.assign(size_t(n_), 1);
    }

    void
    runScalar() override
    {
        for (int x = 0; x < n_; ++x) {
            Sc<uint32_t> acc(128u);
            for (int k = 0; k < 4; ++k) {
                Sc<uint8_t> p = sload(&src_[size_t(x + k)]);
                acc = smadd(p.to<uint32_t>(),
                            Sc<uint32_t>(uint32_t(kTaps[k])), acc);
            }
            sstore(&outScalar_[size_t(x)], (acc >> 8).to<uint8_t>());
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        // Sliding window via EXT on two consecutive vectors.
        std::array<Vec<uint8_t, 128>, 4> taps;
        for (int k = 0; k < 4; ++k)
            taps[size_t(k)] = vdup<uint8_t, 128>(kTaps[k]);
        const auto bias = vdup<uint16_t, 128>(uint16_t(128));
        int x = 0;
        for (; x + 16 <= n_; x += 16) {
            auto d0 = vld1<128>(&src_[size_t(x)]);
            auto d1 = vld1<128>(&src_[size_t(x + 16)]);
            auto acc_lo = bias;
            auto acc_hi = bias;
            for (int k = 0; k < 4; ++k) {
                auto dk = k == 0 ? d0 : vext(d0, d1, k);
                acc_lo = vmlal_lo(acc_lo, dk, taps[size_t(k)]);
                acc_hi = vmlal_hi(acc_hi, dk, taps[size_t(k)]);
            }
            vst1(&outNeon_[size_t(x)], vshrn(acc_lo, acc_hi, 8));
            ctl::loop();
        }
        for (; x < n_; ++x) {
            Sc<uint32_t> acc(128u);
            for (int k = 0; k < 4; ++k) {
                Sc<uint8_t> p = sload(&src_[size_t(x + k)]);
                acc = smadd(p.to<uint32_t>(),
                            Sc<uint32_t>(uint32_t(kTaps[k])), acc);
            }
            sstore(&outNeon_[size_t(x)], (acc >> 8).to<uint8_t>());
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int n_;
    Buf<uint8_t> src_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// blit_row_srcover: out = src + dst * (255 - src_a) / 255 on RGBA8888
// ---------------------------------------------------------------------

namespace
{

/** (x * y + 128) * 257 >> 16 — exact u8 divide-by-255 rounding. */
inline Sc<uint8_t>
mulDiv255(Sc<uint8_t> x, Sc<uint8_t> y)
{
    Sc<uint32_t> p = x.to<uint32_t>() * y.to<uint32_t>() +
                     Sc<uint32_t>(128u);
    return ((p + (p >> 8)) >> 8).to<uint8_t>();
}

} // namespace

class BlitRowSrcOver : public Workload
{
  public:
    explicit BlitRowSrcOver(const Options &opts)
        : pixels_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x5103);
        src_ = randomInts<uint8_t>(rng, size_t(pixels_) * 4);
        dst_ = randomInts<uint8_t>(rng, size_t(pixels_) * 4);
        outScalar_.assign(dst_.size(), 0);
        outNeon_.assign(dst_.size(), 1);
        outAuto_.assign(dst_.size(), 2);
    }

    void
    runScalar() override
    {
        scalarBody(outScalar_);
    }

    void
    scalarBody(Buf<uint8_t> &out)
    {
        for (int p = 0; p < pixels_; ++p) {
            const size_t base = size_t(p) * 4;
            Sc<uint8_t> sa = sload(&src_[base + 3]);
            Sc<uint8_t> inv = ~sa;
            for (int c = 0; c < 4; ++c) {
                Sc<uint8_t> s = sload(&src_[base + size_t(c)]);
                Sc<uint8_t> d = sload(&dst_[base + size_t(c)]);
                Sc<uint32_t> sum = s.to<uint32_t>() +
                                   mulDiv255(d, inv).to<uint32_t>();
                sstore(&out[base + size_t(c)],
                       smin(sum, Sc<uint32_t>(255u)).to<uint8_t>());
            }
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        // De-interleave 16 RGBA pixels with VLD4 (Section 6.3).
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            const size_t base = size_t(p) * 4;
            auto s = vld4<128>(&src_[base]);
            auto d = vld4<128>(&dst_[base]);
            auto inv = vmvn(s[3]);
            std::array<Vec<uint8_t, 128>, 4> out;
            for (int c = 0; c < 4; ++c) {
                // (d * inv + 128 + ((d*inv+128)>>8)) >> 8, then + src.
                auto lo = vmlal_lo(vdup<uint16_t, 128>(uint16_t(128)),
                                   d[size_t(c)], inv);
                auto hi = vmlal_hi(vdup<uint16_t, 128>(uint16_t(128)),
                                   d[size_t(c)], inv);
                lo = vadd(lo, vshr(lo, 8));
                hi = vadd(hi, vshr(hi, 8));
                auto blended = vshrn(lo, hi, 8);
                out[size_t(c)] = vqadd(s[size_t(c)], blended);
            }
            vst4(&outNeon_[base], out);
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outNeon_);
    }

    void
    runAuto() override
    {
        // Vectorizes without VLD4: gathers channels with a UZP tree and
        // re-interleaves with ZIPs (more permutes than Neon).
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            const size_t base = size_t(p) * 4;
            std::array<Vec<uint8_t, 128>, 4> sv, dv;
            for (int v = 0; v < 4; ++v) {
                sv[size_t(v)] = vld1<128>(&src_[base + size_t(16 * v)]);
                dv[size_t(v)] = vld1<128>(&dst_[base + size_t(16 * v)]);
            }
            auto deinterleave = [](std::array<Vec<uint8_t, 128>, 4> &v) {
                auto a0 = vuzp1(v[0], v[1]), a1 = vuzp2(v[0], v[1]);
                auto a2 = vuzp1(v[2], v[3]), a3 = vuzp2(v[2], v[3]);
                auto b0 = vuzp1(a0, a2), b1 = vuzp2(a0, a2);
                auto b2 = vuzp1(a1, a3), b3 = vuzp2(a1, a3);
                v = {b0, b2, b1, b3};
            };
            deinterleave(sv);
            deinterleave(dv);
            auto inv = vmvn(sv[3]);
            std::array<Vec<uint8_t, 128>, 4> out;
            for (int c = 0; c < 4; ++c) {
                auto lo = vmlal_lo(vdup<uint16_t, 128>(uint16_t(128)),
                                   dv[size_t(c)], inv);
                auto hi = vmlal_hi(vdup<uint16_t, 128>(uint16_t(128)),
                                   dv[size_t(c)], inv);
                lo = vadd(lo, vshr(lo, 8));
                hi = vadd(hi, vshr(hi, 8));
                out[size_t(c)] = vqadd(sv[size_t(c)], vshrn(lo, hi, 8));
            }
            // Re-interleave with ZIPs.
            auto z0 = vzip1(out[0], out[2]), z1 = vzip2(out[0], out[2]);
            auto z2 = vzip1(out[1], out[3]), z3 = vzip2(out[1], out[3]);
            vst1(&outAuto_[base], vzip1(z0, z2));
            vst1(&outAuto_[base + 16], vzip2(z0, z2));
            vst1(&outAuto_[base + 32], vzip1(z1, z3));
            vst1(&outAuto_[base + 48], vzip2(z1, z3));
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outAuto_);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    scalarPixel(int p, Buf<uint8_t> &out)
    {
        const size_t base = size_t(p) * 4;
        Sc<uint8_t> sa = sload(&src_[base + 3]);
        Sc<uint8_t> inv = ~sa;
        for (int c = 0; c < 4; ++c) {
            Sc<uint8_t> s = sload(&src_[base + size_t(c)]);
            Sc<uint8_t> d = sload(&dst_[base + size_t(c)]);
            Sc<uint32_t> sum = s.to<uint32_t>() +
                               mulDiv255(d, inv).to<uint32_t>();
            sstore(&out[base + size_t(c)],
                   smin(sum, Sc<uint32_t>(255u)).to<uint8_t>());
        }
        ctl::loop();
    }

    int pixels_;
    Buf<uint8_t> src_, dst_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// memset32_rect: fill a rectangle of 32-bit pixels with a color
// ---------------------------------------------------------------------

class Memset32Rect : public Workload
{
  public:
    explicit Memset32Rect(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight)
    {
        outScalar_.assign(size_t(n_), 0);
        outNeon_.assign(size_t(n_), 1);
        outAuto_.assign(size_t(n_), 2);
    }

    void
    runScalar() override
    {
        Sc<uint32_t> color(kColor);
        for (int i = 0; i < n_; ++i) {
            sstore(&outScalar_[size_t(i)], color);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        const auto color = vdup<uint32_t, 128>(kColor);
        int i = 0;
        for (; i + 8 <= n_; i += 8) {
            vst1(&outNeon_[size_t(i)], color);
            vst1(&outNeon_[size_t(i) + 4], color);
            ctl::loop();
        }
        for (; i < n_; ++i) {
            sstore(&outNeon_[size_t(i)], Sc<uint32_t>(kColor));
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // Clang turns this into a fully unrolled wide fill (Auto > Neon).
        const auto color = vdup<uint32_t, 128>(kColor);
        int i = 0;
        for (; i + 32 <= n_; i += 32) {
            for (int u = 0; u < 8; ++u)
                vst1(&outAuto_[size_t(i + 4 * u)], color);
            ctl::loop();
        }
        for (; i < n_; ++i) {
            sstore(&outAuto_[size_t(i)], Sc<uint32_t>(kColor));
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    static constexpr uint32_t kColor = 0xff33cc66u;
    int n_;
    Buf<uint32_t> outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// rgba_premultiply: c' = c * a / 255 per channel (alpha unchanged)
// ---------------------------------------------------------------------

class RgbaPremultiply : public Workload
{
  public:
    explicit RgbaPremultiply(const Options &opts)
        : pixels_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x5105);
        src_ = randomInts<uint8_t>(rng, size_t(pixels_) * 4);
        outScalar_.assign(src_.size(), 0);
        outNeon_.assign(src_.size(), 1);
        outAuto_.assign(src_.size(), 2);
    }

    void
    runScalar() override
    {
        for (int p = 0; p < pixels_; ++p) {
            const size_t base = size_t(p) * 4;
            Sc<uint8_t> a = sload(&src_[base + 3]);
            for (int c = 0; c < 3; ++c) {
                Sc<uint8_t> v = sload(&src_[base + size_t(c)]);
                sstore(&outScalar_[base + size_t(c)], mulDiv255(v, a));
            }
            sstore(&outScalar_[base + 3], a);
            ctl::loop();
        }
    }

    void runNeon(int) override { vecBody(outNeon_); }

    void
    runAuto() override
    {
        // Vectorizes cleanly with the same interleaved-access shape
        // (Auto ~= Neon case).
        vecBody(outAuto_);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    vecBody(Buf<uint8_t> &out_buf)
    {
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            const size_t base = size_t(p) * 4;
            auto v = vld4<128>(&src_[base]);
            std::array<Vec<uint8_t, 128>, 4> out;
            for (int c = 0; c < 3; ++c) {
                auto lo = vmlal_lo(vdup<uint16_t, 128>(uint16_t(128)),
                                   v[size_t(c)], v[3]);
                auto hi = vmlal_hi(vdup<uint16_t, 128>(uint16_t(128)),
                                   v[size_t(c)], v[3]);
                lo = vadd(lo, vshr(lo, 8));
                hi = vadd(hi, vshr(hi, 8));
                out[size_t(c)] = vshrn(lo, hi, 8);
            }
            out[3] = v[3];
            vst4(&out_buf[base], out);
            ctl::loop();
        }
        for (; p < pixels_; ++p) {
            const size_t base = size_t(p) * 4;
            Sc<uint8_t> a = sload(&src_[base + 3]);
            for (int c = 0; c < 3; ++c) {
                Sc<uint8_t> v = sload(&src_[base + size_t(c)]);
                sstore(&out_buf[base + size_t(c)], mulDiv255(v, a));
            }
            sstore(&out_buf[base + 3], a);
            ctl::loop();
        }
    }

    int pixels_;
    Buf<uint8_t> src_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "Skia", "SK", Domain::Graphics, true, true, false, true, 8.5, 4.6}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Skia", "SK", "convolve_vertically",
                     Domain::Graphics, uint32_t(Pattern::Reduction),
                     autovec::Verdict{true, 0}, /*widerWidths=*/true, 0},
    [](const Options &o) {
        return std::make_unique<ConvolveVertically>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Skia", "SK", "convolve_horizontally",
                     Domain::Graphics, uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::CostModel)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<ConvolveHorizontally>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Skia", "SK", "blit_row_srcover", Domain::Graphics,
                     uint32_t(Pattern::StridedAccess),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<BlitRowSrcOver>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Skia", "SK", "memset32_rect", Domain::Graphics, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<Memset32Rect>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Skia", "SK", "rgba_premultiply", Domain::Graphics,
                     uint32_t(Pattern::StridedAccess),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<RgbaPremultiply>(o);
    }}));

} // namespace swan::workloads::skia
