/**
 * @file
 * libwebp workloads (symbol LW, Image Processing). WebP intra prediction
 * filters for (de)compression — DC, TrueMotion (one of the eight Figure-5
 * wider-register kernels: its 16-byte block rows do not fill wider
 * registers, so packing overhead eats the gains), Vertical and Horizontal
 * — plus the Sharp-YUV update filter and 4:2:0 chroma upsampling
 * (Section 3.2).
 *
 * Predictors run per 16x16 block over many blocks; block pixel rows are
 * contiguous so the working set and access patterns match libwebp's.
 */

#include "workloads/common.hh"

namespace swan::workloads::libwebp
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

constexpr int kBlock = 16;

namespace
{

/** Shared state: per-block top rows (with corner) and left columns. */
class PredictorKernel : public Workload
{
  public:
    PredictorKernel(const Options &opts, uint64_t salt)
        : blocks_((opts.imageWidth / kBlock) * (opts.imageHeight / kBlock))
    {
        Rng rng(opts.seed ^ salt);
        // top_ has kBlock+2 entries per block: [corner, t0..t15, t16].
        top_ = randomInts<uint8_t>(rng, size_t(blocks_) * (kBlock + 2));
        left_ = randomInts<uint8_t>(rng, size_t(blocks_) * (kBlock + 1));
        outScalar_.assign(size_t(blocks_) * kBlock * kBlock, 0);
        outNeon_.assign(outScalar_.size(), 1);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  protected:
    const uint8_t *topOf(int b) const
    {
        return &top_[size_t(b) * (kBlock + 2) + 1];
    }
    uint8_t corner(int b) const
    {
        return top_[size_t(b) * (kBlock + 2)];
    }
    const uint8_t *leftOf(int b) const
    {
        return &left_[size_t(b) * (kBlock + 1) + 1];
    }
    uint8_t *blockOut(Buf<uint8_t> &buf, int b)
    {
        return &buf[size_t(b) * kBlock * kBlock];
    }

    int blocks_;
    Buf<uint8_t> top_, left_, outScalar_, outNeon_;
};

} // namespace

// ---------------------------------------------------------------------
// predict_dc: fill the block with (sum(top) + sum(left) + 16) >> 5
// ---------------------------------------------------------------------

class PredictDc : public PredictorKernel
{
  public:
    explicit PredictDc(const Options &opts) : PredictorKernel(opts, 0x3b01)
    {
    }

    void
    runScalar() override
    {
        for (int b = 0; b < blocks_; ++b) {
            Sc<uint32_t> sum(16u);
            for (int i = 0; i < kBlock; ++i) {
                sum += sload(topOf(b) + i).to<uint32_t>();
                sum += sload(leftOf(b) + i).to<uint32_t>();
                ctl::loop();
            }
            Sc<uint8_t> dc = (sum >> 5).to<uint8_t>();
            uint8_t *out = blockOut(outScalar_, b);
            for (int i = 0; i < kBlock * kBlock; ++i) {
                sstore(out + i, dc);
                ctl::loop();
            }
        }
    }

    void
    runNeon(int) override
    {
        for (int b = 0; b < blocks_; ++b) {
            auto t = vld1<128>(topOf(b));
            auto l = vld1<128>(leftOf(b));
            Sc<uint16_t> st = vaddlv(t);
            Sc<uint16_t> sl = vaddlv(l);
            Sc<uint16_t> dc16 = (st + sl + Sc<uint16_t>(uint16_t(16)))
                >> 5;
            auto fill = vdup<uint8_t, 128>(dc16.to<uint8_t>());
            uint8_t *out = blockOut(outNeon_, b);
            for (int y = 0; y < kBlock; ++y) {
                vst1(out + y * kBlock, fill);
                ctl::loop();
            }
        }
    }

  private:
};

// ---------------------------------------------------------------------
// predict_tm (TrueMotion): out[y][x] = clip(left[y] + top[x] - corner)
// ---------------------------------------------------------------------

class PredictTm : public PredictorKernel
{
  public:
    explicit PredictTm(const Options &opts) : PredictorKernel(opts, 0x3b02)
    {
    }

    void
    runScalar() override
    {
        for (int b = 0; b < blocks_; ++b) {
            Sc<int32_t> tl = Sc<int32_t>(int32_t(corner(b)));
            uint8_t *out = blockOut(outScalar_, b);
            for (int y = 0; y < kBlock; ++y) {
                Sc<int32_t> l = sload(leftOf(b) + y).to<int32_t>();
                Sc<int32_t> base = l - tl;
                for (int x = 0; x < kBlock; ++x) {
                    Sc<int32_t> v = base +
                                    sload(topOf(b) + x).to<int32_t>();
                    v = smax(v, Sc<int32_t>(0));
                    v = smin(v, Sc<int32_t>(255));
                    sstore(out + y * kBlock + x, v.to<uint8_t>());
                    ctl::loop();
                }
                ctl::loop();
            }
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

  private:
    /** Widen a 128-bit register to B bits by replication (packing). */
    template <int B>
    static Vec<uint8_t, B>
    replicate(const Vec<uint8_t, 128> &v)
    {
        if constexpr (B == 128) {
            return v;
        } else {
            auto half = replicate<B / 2>(v);
            return vcombine(half, half);
        }
    }

    template <int B>
    void
    neonImpl()
    {
        constexpr int kRowsPerVec = B / 128;
        for (int b = 0; b < blocks_; ++b) {
            auto t128 = vld1<128>(topOf(b));
            auto t = replicate<B>(t128);
            const auto tl = vdup<int16_t, B>(int16_t(corner(b)));
            // top - corner, widened to s16.
            auto w_lo = vsub(vreinterpret<int16_t>(vmovl_lo(t)), tl);
            auto w_hi = vsub(vreinterpret<int16_t>(vmovl_hi(t)), tl);
            uint8_t *out = blockOut(outNeon_, b);
            for (int y = 0; y < kBlock; y += kRowsPerVec) {
                // Pack per-row left values: one DUP per row plus a
                // combine tree (the Section 7.1 packing overhead).
                auto lv = packLeft<B>(b, y);
                auto s_lo = vadd(w_lo,
                                 vreinterpret<int16_t>(vmovl_lo(lv)));
                auto s_hi = vadd(w_hi,
                                 vreinterpret<int16_t>(vmovl_hi(lv)));
                vst1(out + y * kBlock, vqmovun(s_lo, s_hi));
                ctl::loop();
            }
        }
    }

    template <int B>
    Vec<uint8_t, B>
    packLeft(int b, int y)
    {
        if constexpr (B == 128) {
            Sc<uint8_t> l = sload(leftOf(b) + y);
            return vdup<uint8_t, 128>(l);
        } else {
            auto lo = packLeft<B / 2>(b, y);
            auto hi = packLeft<B / 2>(b, y + (B / 256));
            return vcombine(lo, hi);
        }
    }

    Buf<uint8_t> dummy_;
};

// ---------------------------------------------------------------------
// predict_vertical: every row = avg3-smoothed top row
// ---------------------------------------------------------------------

class PredictVertical : public PredictorKernel
{
  public:
    explicit PredictVertical(const Options &opts)
        : PredictorKernel(opts, 0x3b03)
    {
        outAuto_.assign(outScalar_.size(), 2);
    }

    void
    runScalar() override
    {
        for (int b = 0; b < blocks_; ++b) {
            uint8_t *out = blockOut(outScalar_, b);
            // avg3(t[-1], t[x], t[x+1]) with rounding.
            for (int x = 0; x < kBlock; ++x) {
                Sc<uint32_t> a =
                    sload(topOf(b) + x - 1).to<uint32_t>();
                Sc<uint32_t> c = sload(topOf(b) + x).to<uint32_t>();
                Sc<uint32_t> d =
                    sload(topOf(b) + x + 1).to<uint32_t>();
                Sc<uint32_t> v = (a + c + c + d + Sc<uint32_t>(2u)) >> 2;
                sstore(out + x, v.to<uint8_t>());
                ctl::loop();
            }
            for (int y = 1; y < kBlock; ++y) {
                for (int x = 0; x < kBlock; ++x) {
                    sstore(out + y * kBlock + x, sload(out + x));
                    ctl::loop();
                }
            }
        }
    }

    void runNeon(int) override { vecBody(outNeon_); }
    void runAuto() override { vecBody(outAuto_); } // vectorizes (~= Neon)

  private:
    void
    vecBody(Buf<uint8_t> &buf)
    {
        const auto c2 = vdup<uint16_t, 128>(uint16_t(2));
        for (int b = 0; b < blocks_; ++b) {
            uint8_t *out = blockOut(buf, b);
            auto a = vld1<128>(topOf(b) - 1);
            auto c = vld1<128>(topOf(b));
            auto d = vld1<128>(topOf(b) + 1);
            auto lo = vadd(vaddl_lo(a, d), vadd(vshll_lo(c, 1), c2));
            auto hi = vadd(vaddl_hi(a, d), vadd(vshll_hi(c, 1), c2));
            auto row = vshrn(lo, hi, 2);
            for (int y = 0; y < kBlock; ++y) {
                vst1(out + y * kBlock, row);
                ctl::loop();
            }
        }
    }

    Buf<uint8_t> outAuto_;
};

// ---------------------------------------------------------------------
// predict_horizontal: row y filled with avg3(left[y-1],left[y],left[y+1])
// ---------------------------------------------------------------------

class PredictHorizontal : public PredictorKernel
{
  public:
    explicit PredictHorizontal(const Options &opts)
        : PredictorKernel(opts, 0x3b04)
    {
    }

    void
    runScalar() override
    {
        for (int b = 0; b < blocks_; ++b) {
            uint8_t *out = blockOut(outScalar_, b);
            for (int y = 0; y < kBlock; ++y) {
                Sc<uint32_t> a =
                    sload(leftOf(b) + y - 1).to<uint32_t>();
                Sc<uint32_t> c = sload(leftOf(b) + y).to<uint32_t>();
                Sc<uint32_t> d = y + 1 < kBlock
                    ? sload(leftOf(b) + y + 1).to<uint32_t>()
                    : sload(leftOf(b) + y).to<uint32_t>();
                Sc<uint8_t> v =
                    ((a + c + c + d + Sc<uint32_t>(2u)) >> 2)
                        .to<uint8_t>();
                for (int x = 0; x < kBlock; ++x) {
                    sstore(out + y * kBlock + x, v);
                    ctl::loop();
                }
            }
        }
    }

    void
    runNeon(int) override
    {
        for (int b = 0; b < blocks_; ++b) {
            uint8_t *out = blockOut(outNeon_, b);
            for (int y = 0; y < kBlock; ++y) {
                Sc<uint32_t> a =
                    sload(leftOf(b) + y - 1).to<uint32_t>();
                Sc<uint32_t> c = sload(leftOf(b) + y).to<uint32_t>();
                Sc<uint32_t> d = y + 1 < kBlock
                    ? sload(leftOf(b) + y + 1).to<uint32_t>()
                    : sload(leftOf(b) + y).to<uint32_t>();
                Sc<uint8_t> v =
                    ((a + c + c + d + Sc<uint32_t>(2u)) >> 2)
                        .to<uint8_t>();
                vst1(out + y * kBlock, vdup<uint8_t, 128>(v));
                ctl::loop();
            }
        }
    }

  private:
};

// ---------------------------------------------------------------------
// sharp_yuv_update: out = clip(ref + (src - filtered), 0, 1023) on 10-bit
// ---------------------------------------------------------------------

class SharpYuvUpdate : public Workload
{
  public:
    explicit SharpYuvUpdate(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x3b05);
        ref_.resize(size_t(n_));
        src_.resize(size_t(n_));
        filt_.resize(size_t(n_));
        for (int i = 0; i < n_; ++i) {
            ref_[size_t(i)] = uint16_t(rng.range(0, 1023));
            src_[size_t(i)] = uint16_t(rng.range(0, 1023));
            filt_[size_t(i)] = uint16_t(rng.range(0, 1023));
        }
        outScalar_.assign(size_t(n_), 0);
        outNeon_.assign(size_t(n_), 1);
    }

    void
    runScalar() override
    {
        for (int i = 0; i < n_; ++i) {
            Sc<int32_t> r = sload(&ref_[size_t(i)]).to<int32_t>();
            Sc<int32_t> s = sload(&src_[size_t(i)]).to<int32_t>();
            Sc<int32_t> f = sload(&filt_[size_t(i)]).to<int32_t>();
            Sc<int32_t> v = r + s - f;
            v = smax(v, Sc<int32_t>(0));
            v = smin(v, Sc<int32_t>(1023));
            sstore(&outScalar_[size_t(i)], v.to<uint16_t>());
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        const auto zero = vdup<int16_t, 128>(int16_t(0));
        const auto maxv = vdup<int16_t, 128>(int16_t(1023));
        int i = 0;
        for (; i + 8 <= n_; i += 8) {
            auto r = vreinterpret<int16_t>(vld1<128>(&ref_[size_t(i)]));
            auto s = vreinterpret<int16_t>(vld1<128>(&src_[size_t(i)]));
            auto f = vreinterpret<int16_t>(vld1<128>(&filt_[size_t(i)]));
            auto v = vqsub(vqadd(r, s), f);
            v = vmin(vmax(v, zero), maxv);
            vst1(&outNeon_[size_t(i)], vreinterpret<uint16_t>(v));
            ctl::loop();
        }
        for (; i < n_; ++i) {
            Sc<int32_t> r = sload(&ref_[size_t(i)]).to<int32_t>();
            Sc<int32_t> s = sload(&src_[size_t(i)]).to<int32_t>();
            Sc<int32_t> f = sload(&filt_[size_t(i)]).to<int32_t>();
            Sc<int32_t> v = r + s - f;
            v = smax(v, Sc<int32_t>(0));
            v = smin(v, Sc<int32_t>(1023));
            sstore(&outNeon_[size_t(i)], v.to<uint16_t>());
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int n_;
    Buf<uint16_t> ref_, src_, filt_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// upsample_yuv444: out[2x] = (3*cur + prev + 2) >> 2 horizontal chroma
// pair upsampling (one output row of the 4:2:0 -> 4:4:4 fancy upsampler)
// ---------------------------------------------------------------------

class UpsampleYuv444 : public Workload
{
  public:
    explicit UpsampleYuv444(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight / 2)
    {
        Rng rng(opts.seed ^ 0x3b06);
        src_ = randomInts<uint8_t>(rng, size_t(n_) + 2);
        // Shared zero fill: edge pixels are replicated by callers.
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

    void runNeon(int) override { vecBody(outNeon_); }
    void
    runAuto() override
    {
        // Vectorizes; emits separate even/odd stores with ZIPs instead
        // of ST2 plus a re-load of the shifted vector (Auto < Neon).
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
            auto e_lo = vshr(vadd(vaddw_lo(t_lo, sm), c2), 2);
            auto e_hi = vshr(vadd(vaddw_hi(t_hi, sm), c2), 2);
            auto o_lo = vshr(vadd(vaddw_lo(t_lo, sp), c1), 2);
            auto o_hi = vshr(vadd(vaddw_hi(t_hi, sp), c1), 2);
            auto evens = vmovn(e_lo, e_hi);
            auto odds = vmovn(o_lo, o_hi);
            vst1(&outAuto_[size_t(2 * x)], vzip1(evens, odds));
            vst1(&outAuto_[size_t(2 * x) + 16], vzip2(evens, odds));
            // Compiler re-checks the runtime trip bound per block.
            ctl::addr(2);
            ctl::loop();
        }
        for (; x + 1 < n_; ++x)
            scalarTail(x, outAuto_);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    void
    vecBody(Buf<uint8_t> &buf)
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
            auto e_lo = vshr(vadd(vaddw_lo(t_lo, sm), c2), 2);
            auto e_hi = vshr(vadd(vaddw_hi(t_hi, sm), c2), 2);
            auto o_lo = vshr(vadd(vaddw_lo(t_lo, sp), c1), 2);
            auto o_hi = vshr(vadd(vaddw_hi(t_hi, sp), c1), 2);
            auto evens = vmovn(e_lo, e_hi);
            auto odds = vmovn(o_lo, o_hi);
            vst2(&buf[size_t(2 * x)],
                 std::array<Vec<uint8_t, 128>, 2>{evens, odds});
            ctl::loop();
        }
        for (; x + 1 < n_; ++x)
            scalarTail(x, buf);
    }

    void
    scalarTail(int x, Buf<uint8_t> &buf)
    {
        Sc<uint32_t> s = sload(&src_[size_t(x)]).to<uint32_t>();
        Sc<uint32_t> sm = sload(&src_[size_t(x - 1)]).to<uint32_t>();
        Sc<uint32_t> sp = sload(&src_[size_t(x + 1)]).to<uint32_t>();
        Sc<uint32_t> t = s * Sc<uint32_t>(3u);
        sstore(&buf[size_t(2 * x)],
               ((t + sm + Sc<uint32_t>(2u)) >> 2).to<uint8_t>());
        sstore(&buf[size_t(2 * x + 1)],
               ((t + sp + Sc<uint32_t>(1u)) >> 2).to<uint8_t>());
        ctl::loop();
    }

    int n_;
    Buf<uint8_t> src_, outScalar_, outNeon_, outAuto_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "libwebp", "LW", Domain::ImageProcessing,
    true, false, false, true, 7.3, 1.7}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libwebp", "LW", "predict_dc",
                     Domain::ImageProcessing,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::CostModel)},
                     false, 0},
    [](const Options &o) { return std::make_unique<PredictDc>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libwebp", "LW", "predict_tm",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::CostModel)},
                     /*widerWidths=*/true, 0},
    [](const Options &o) { return std::make_unique<PredictTm>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libwebp", "LW", "predict_vertical",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<PredictVertical>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libwebp", "LW", "predict_horizontal",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::CostModel)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<PredictHorizontal>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libwebp", "LW", "sharp_yuv_update",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<SharpYuvUpdate>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libwebp", "LW", "upsample_yuv444",
                     Domain::ImageProcessing,
                     uint32_t(Pattern::StridedAccess),
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) {
        return std::make_unique<UpsampleYuv444>(o);
    }}));

} // namespace swan::workloads::libwebp
