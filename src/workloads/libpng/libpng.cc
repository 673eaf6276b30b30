/**
 * @file
 * libpng workloads (symbol LP, Image Processing). PNG row de-filtering
 * for 4-byte (RGBA) pixels: Sub, Up, Avg and Paeth reconstruction filters
 * plus indexed-color palette expansion (Section 3.2: "color code (PNG's
 * true and indexed color)").
 *
 * Sub/Avg/Paeth carry a dependence on the previous reconstructed pixel,
 * which defeats the auto-vectorizer (complex PHI, Section 5.2 Example 3);
 * the Neon versions either build a prefix sum with EXT/ADD chains (Sub)
 * or walk pixel-by-pixel with 4 active lanes (Avg/Paeth, the libpng
 * upstream approach). Up is embarrassingly parallel and auto-vectorizes.
 * Palette expansion is the A[B[i]] look-up-table pattern (Section 6.2).
 */

#include "workloads/common.hh"

namespace swan::workloads::libpng
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

constexpr int kBpp = 4; //!< bytes per pixel (RGBA)

namespace
{

/** Base: a filtered row, the previous (reconstructed) row, outputs. */
class DefilterKernel : public Workload
{
  public:
    DefilterKernel(const Options &opts, uint64_t salt)
        : rowBytes_(opts.imageWidth * kBpp), rows_(opts.imageHeight)
    {
        Rng rng(opts.seed ^ salt);
        filtered_ =
            randomInts<uint8_t>(rng, size_t(rowBytes_) * size_t(rows_));
        prev_ = randomInts<uint8_t>(rng, size_t(rowBytes_));
        outScalar_.assign(filtered_.size(), 0);
        outNeon_.assign(filtered_.size(), 1);
        outAuto_.assign(filtered_.size(), 2);
    }

    bool verify() override { return outScalar_ == outNeon_; }

  protected:
    int rowBytes_, rows_;
    Buf<uint8_t> filtered_, prev_, outScalar_, outNeon_, outAuto_;
};

} // namespace

// ---------------------------------------------------------------------
// defilter_sub: out[i] = in[i] + out[i - 4]
// ---------------------------------------------------------------------

class DefilterSub : public DefilterKernel
{
  public:
    explicit DefilterSub(const Options &opts)
        : DefilterKernel(opts, 0x7001)
    {
    }

    void
    runScalar() override
    {
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            uint8_t *out = &outScalar_[size_t(y) * size_t(rowBytes_)];
            for (int i = 0; i < kBpp; ++i)
                sstore(out + i, sload(in + i));
            for (int i = kBpp; i < rowBytes_; ++i) {
                sstore(out + i, sload(in + i) + sload(out + i - kBpp));
                ctl::loop();
            }
        }
    }

    void
    runNeon(int) override
    {
        // 16-byte prefix sum over 4-byte groups: two EXT+ADD steps plus
        // the carried last pixel of the previous vector.
        const auto zero = vdup<uint8_t, 128>(uint8_t(0));
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            uint8_t *out = &outNeon_[size_t(y) * size_t(rowBytes_)];
            auto carry = vdup<uint8_t, 128>(uint8_t(0));
            int i = 0;
            for (; i + 16 <= rowBytes_; i += 16) {
                auto d = vld1<128>(in + i);
                auto s1 = vadd(d, vext(zero, d, 12));
                auto s2 = vadd(s1, vext(zero, s1, 8));
                // Broadcast the carried pixel (last 4 output bytes).
                auto v = vadd(s2, carry);
                vst1(out + i, v);
                auto v32 = vreinterpret<uint32_t>(v);
                carry = vreinterpret<uint8_t>(vdup_lane(v32, 3));
                ctl::loop();
            }
            // Scalar tail.
            for (; i < rowBytes_; ++i) {
                if (i < kBpp)
                    sstore(out + i, sload(in + i));
                else
                    sstore(out + i,
                           sload(in + i) + sload(out + i - kBpp));
                ctl::loop();
            }
        }
    }

    bool
    verify() override
    {
        // The vector prefix sum treats the first pixel as carry 0, which
        // matches the scalar "copy first pixel" semantics.
        return outScalar_ == outNeon_;
    }
};

// ---------------------------------------------------------------------
// defilter_up: out[i] = in[i] + up[i]
// ---------------------------------------------------------------------

class DefilterUp : public DefilterKernel
{
  public:
    explicit DefilterUp(const Options &opts) : DefilterKernel(opts, 0x7002)
    {
    }

    void
    runScalar() override
    {
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = upRow(y, outScalar_);
            uint8_t *out = &outScalar_[size_t(y) * size_t(rowBytes_)];
            for (int i = 0; i < rowBytes_; ++i) {
                sstore(out + i, sload(in + i) + sload(up + i));
                ctl::loop();
            }
        }
    }

    void runNeon(int) override { vecBody(outNeon_); }
    void runAuto() override { vecBody(outAuto_); } // vectorizes (~= Neon)

  private:
    const uint8_t *
    upRow(int y, const Buf<uint8_t> &out) const
    {
        return y == 0 ? prev_.data()
                      : &out[size_t(y - 1) * size_t(rowBytes_)];
    }

    void
    vecBody(Buf<uint8_t> &out_buf)
    {
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = upRow(y, out_buf);
            uint8_t *out = &out_buf[size_t(y) * size_t(rowBytes_)];
            int i = 0;
            for (; i + 16 <= rowBytes_; i += 16) {
                vst1(out + i, vadd(vld1<128>(in + i), vld1<128>(up + i)));
                ctl::loop();
            }
            for (; i < rowBytes_; ++i) {
                sstore(out + i, sload(in + i) + sload(up + i));
                ctl::loop();
            }
        }
    }
};

// ---------------------------------------------------------------------
// defilter_avg: out[i] = in[i] + (out[i-4] + up[i]) / 2
// ---------------------------------------------------------------------

class DefilterAvg : public DefilterKernel
{
  public:
    explicit DefilterAvg(const Options &opts)
        : DefilterKernel(opts, 0x7003)
    {
    }

    void
    runScalar() override
    {
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = y == 0
                ? prev_.data()
                : &outScalar_[size_t(y - 1) * size_t(rowBytes_)];
            uint8_t *out = &outScalar_[size_t(y) * size_t(rowBytes_)];
            for (int i = 0; i < rowBytes_; ++i) {
                Sc<uint32_t> left =
                    i < kBpp ? Sc<uint32_t>(0u)
                             : sload(out + i - kBpp).to<uint32_t>();
                Sc<uint32_t> u = sload(up + i).to<uint32_t>();
                Sc<uint8_t> avg = ((left + u) >> 1).to<uint8_t>();
                sstore(out + i, sload(in + i) + avg);
                ctl::loop();
            }
        }
    }

    void
    runNeon(int) override
    {
        // Pixel-at-a-time on 4 active lanes (libpng upstream strategy:
        // the carried dependence prevents full-width rows).
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = y == 0
                ? prev_.data()
                : &outNeon_[size_t(y - 1) * size_t(rowBytes_)];
            uint8_t *out = &outNeon_[size_t(y) * size_t(rowBytes_)];
            auto left = vdup<uint8_t, 128>(uint8_t(0));
            for (int i = 0; i < rowBytes_; i += kBpp) {
                auto d = vld1_partial<128>(in + i, kBpp);
                auto u = vld1_partial<128>(up + i, kBpp);
                auto v = vadd(d, vhadd(left, u));
                vst1_partial(out + i, v, kBpp);
                left = v;
                ctl::loop();
            }
        }
    }

  private:
};

// ---------------------------------------------------------------------
// defilter_paeth: out[i] = in[i] + paeth(out[i-4], up[i], up[i-4])
// ---------------------------------------------------------------------

class DefilterPaeth : public DefilterKernel
{
  public:
    explicit DefilterPaeth(const Options &opts)
        : DefilterKernel(opts, 0x7004)
    {
    }

    void
    runScalar() override
    {
        scalarBody(outScalar_, false);
    }

    void
    runNeon(int) override
    {
        // Pixel-at-a-time with branch-free VABD/VCLE/VBSL selection
        // (If-Conversion, Section 5.4).
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = y == 0
                ? prev_.data()
                : &outNeon_[size_t(y - 1) * size_t(rowBytes_)];
            uint8_t *out = &outNeon_[size_t(y) * size_t(rowBytes_)];
            auto a = vdup<uint8_t, 128>(uint8_t(0));  // left
            auto c = vdup<uint8_t, 128>(uint8_t(0));  // up-left
            for (int i = 0; i < rowBytes_; i += kBpp) {
                auto d = vld1_partial<128>(in + i, kBpp);
                auto b = vld1_partial<128>(up + i, kBpp);
                // 16-bit arithmetic avoids u8 overflow in p = a + b - c.
                auto a16 = vmovl_lo(a);
                auto b16 = vmovl_lo(b);
                auto c16 = vmovl_lo(c);
                auto pa = vabd(b16, c16);                 // |p - a|
                auto pb = vabd(a16, c16);                 // |p - b|
                auto pc = vabd(vadd(a16, b16),
                               vadd(c16, c16));           // |p - c|
                auto use_a = vand(vcle(pa, pb), vcle(pa, pc));
                auto use_b = vcle(pb, pc);
                auto sel16 = vbsl(use_a, a16,
                                  vbsl(use_b, b16, c16));
                auto sel = vmovn(sel16, sel16);
                auto v = vadd(d, sel);
                vst1_partial(out + i, v, kBpp);
                c = b;
                a = v;
                ctl::loop();
            }
        }
    }

    void
    runAuto() override
    {
        // The SLP vectorizer if-converts the predictor and packs each
        // 4-byte pixel into a vector, but the unaligned u8 accesses are
        // scalarized: every operand is assembled with 4 scalar loads +
        // lane inserts and every result is disassembled with lane
        // extracts. The packing overhead makes Auto slower than Scalar
        // (one of the two Auto < Scalar kernels of Table 4).
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = y == 0
                ? prev_.data()
                : &outAuto_[size_t(y - 1) * size_t(rowBytes_)];
            uint8_t *out = &outAuto_[size_t(y) * size_t(rowBytes_)];
            auto gather4 = [](const uint8_t *p) {
                auto v = vdup<uint8_t, 128>(uint8_t(0));
                for (int j = 0; j < 4; ++j)
                    v = vset_lane(v, j, sload(p + j));
                return v;
            };
            auto a = vdup<uint8_t, 128>(uint8_t(0));  // left
            auto c = vdup<uint8_t, 128>(uint8_t(0));  // up-left
            for (int i = 0; i < rowBytes_; i += kBpp) {
                auto d = gather4(in + i);
                auto b = gather4(up + i);
                auto a16 = vmovl_lo(a);
                auto b16 = vmovl_lo(b);
                auto c16 = vmovl_lo(c);
                auto pa = vabd(b16, c16);
                auto pb = vabd(a16, c16);
                auto pc = vabd(vadd(a16, b16), vadd(c16, c16));
                auto use_a = vand(vcle(pa, pb), vcle(pa, pc));
                auto use_b = vcle(pb, pc);
                auto sel16 = vbsl(use_a, a16, vbsl(use_b, b16, c16));
                auto sel = vmovn(sel16, sel16);
                auto v = vadd(d, sel);
                for (int j = 0; j < 4; ++j)
                    sstore(out + i + j, vget_lane(v, j));
                c = b;
                a = v;
                ctl::loop();
            }
        }
    }

  private:
    void
    scalarBody(Buf<uint8_t> &out_mat, bool versioning_overhead)
    {
        for (int y = 0; y < rows_; ++y) {
            const uint8_t *in = &filtered_[size_t(y) * size_t(rowBytes_)];
            const uint8_t *up = y == 0
                ? prev_.data()
                : &out_mat[size_t(y - 1) * size_t(rowBytes_)];
            uint8_t *out = &out_mat[size_t(y) * size_t(rowBytes_)];
            if (versioning_overhead) {
                // Pointer overlap checks emitted by the vectorizer.
                ctl::addr(6);
                ctl::branch();
                ctl::branch();
            }
            for (int i = 0; i < rowBytes_; ++i) {
                Sc<int32_t> a = i < kBpp
                    ? Sc<int32_t>(0)
                    : sload(out + i - kBpp).to<int32_t>();
                Sc<int32_t> b = sload(up + i).to<int32_t>();
                Sc<int32_t> c = i < kBpp
                    ? Sc<int32_t>(0)
                    : sload(up + i - kBpp).to<int32_t>();
                Sc<int32_t> p = a + b - c;
                Sc<int32_t> pa = sabs(p - a);
                Sc<int32_t> pb = sabs(p - b);
                Sc<int32_t> pc = sabs(p - c);
                Sc<int32_t> pred;
                if (pa <= pb && pa <= pc)
                    pred = a;
                else if (pb <= pc)
                    pred = b;
                else
                    pred = c;
                sstore(out + i,
                       sload(in + i) + pred.to<uint8_t>());
                ctl::loop();
                if (versioning_overhead && (i & 63) == 0)
                    ctl::addr(2); // loop-versioning bookkeeping
            }
        }
    }
};

// ---------------------------------------------------------------------
// expand_palette: out_rgba[i] = palette[idx[i]]
// ---------------------------------------------------------------------

class ExpandPalette : public Workload
{
  public:
    explicit ExpandPalette(const Options &opts)
        : n_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x7005);
        idx_ = randomInts<uint8_t>(rng, size_t(n_));
        palette_ = randomInts<uint32_t>(rng, 256);
        outScalar_.assign(size_t(n_), 0);
        outNeon_.assign(size_t(n_), 1);
    }

    void
    runScalar() override
    {
        for (int i = 0; i < n_; ++i) {
            Sc<uint8_t> k = sload(&idx_[size_t(i)]);
            Sc<uint32_t> c = sload(&palette_[k.v]); // A[B[i]]
            sstore(&outScalar_[size_t(i)], c);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        // The 256-entry table exceeds TBL's reach (Section 6.2): gather
        // through scalar lanes, then store the packed vector.
        int i = 0;
        for (; i + 4 <= n_; i += 4) {
            auto v = vdup<uint32_t, 128>(0u);
            for (int j = 0; j < 4; ++j) {
                Sc<uint8_t> k = sload(&idx_[size_t(i + j)]);
                Sc<uint32_t> c = sload(&palette_[k.v]);
                v = vset_lane(v, j, c);
            }
            vst1(&outNeon_[size_t(i)], v);
            ctl::loop();
        }
        for (; i < n_; ++i) {
            Sc<uint8_t> k = sload(&idx_[size_t(i)]);
            sstore(&outNeon_[size_t(i)], sload(&palette_[k.v]));
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    int n_;
    Buf<uint8_t> idx_;
    Buf<uint32_t> palette_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "libpng", "LP", Domain::ImageProcessing,
    true, false, false, true, 0.8, 0.3}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libpng", "LP", "defilter_sub",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::ComplexPhi)},
                     false, 0},
    [](const Options &o) { return std::make_unique<DefilterSub>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libpng", "LP", "defilter_up",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<DefilterUp>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libpng", "LP", "defilter_avg",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::ComplexPhi)},
                     false, 0},
    [](const Options &o) { return std::make_unique<DefilterAvg>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libpng", "LP", "defilter_paeth",
                     Domain::ImageProcessing, 0,
                     autovec::Verdict{false,
                                      autovec::Fail::ComplexPhi |
                                          autovec::Fail::OtherLegality},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<DefilterPaeth>(o);
    }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"libpng", "LP", "expand_palette",
                     Domain::ImageProcessing,
                     uint32_t(Pattern::RandomAccess),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::IndirectMemory)},
                     false, 0},
    [](const Options &o) {
        return std::make_unique<ExpandPalette>(o);
    }}));

} // namespace swan::workloads::libpng
