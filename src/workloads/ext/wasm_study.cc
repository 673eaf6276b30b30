/**
 * @file
 * Section 9 WebAssembly SIMD porting study. The paper's future work
 * plans WASM-SIMD versions of the suite because V8 executes a large
 * share of mobile browser time; this study ports four representative
 * kernels to the SIMD128 instruction set (simd/vec_wasm.hh) and
 * measures what each missing Neon feature costs:
 *
 *  - WasmRgbToY: no VLD3 de-interleave -> shuffle cascades, and no
 *    VMLAL -> extmul + add (the Section 6.3 strided-access gap).
 *  - WasmAdler32: no ADDV/VPADAL -> shuffle+add horizontal folding
 *    (the Section 6.1 reduction pattern).
 *  - WasmFirFilter: no fused multiply-add in the base proposal ->
 *    mul + add per tap; relaxed-simd restores FMLA parity (the
 *    Section 6.5 portable-API instruction budget).
 *  - WasmSha256: no cryptography instructions -> scalar rounds (the
 *    crypto share of ZL/BS's standout Figure-2 speedup).
 *
 * Like the other extension studies these kernels are not registered in
 * the global registry; bench/ext_wasm_simd and the tests construct them
 * through the ext.hh factories.
 */

#include "workloads/ext/ext.hh"

#include <utility>

#include "workloads/common.hh"

namespace swan::workloads::ext
{

using namespace swan::simd;
namespace ws = swan::simd::wasm;
using core::Options;
using core::Workload;
using ws::v128;

namespace
{

// ---------------------------------------------------------------------
// Shuffle-index machinery: i8x16_shuffle takes its 16 byte indices as
// template arguments (they are immediates in the wasm encoding), so the
// de-interleave patterns are computed constexpr and expanded with an
// index sequence.
// ---------------------------------------------------------------------

template <std::array<int, 16> kIdx, size_t... kSeq>
inline v128
shuffleArrImpl(const v128 &a, const v128 &b, std::index_sequence<kSeq...>)
{
    return ws::i8x16_shuffle<kIdx[kSeq]...>(a, b);
}

/** i8x16.shuffle with the indices supplied as a constexpr array. */
template <std::array<int, 16> kIdx>
inline v128
shuffleArr(const v128 &a, const v128 &b)
{
    return shuffleArrImpl<kIdx>(a, b, std::make_index_sequence<16>{});
}

/** Bytes of channel @p c that live in the first two registers (< 32). */
constexpr int
chanSplit(int c)
{
    int n = 0;
    for (int i = 0; i < 16; ++i) {
        if (c + 3 * i < 32)
            ++n;
    }
    return n;
}

/** Stage A: gather channel-@p kC bytes of v0:v1 into lanes [0, split). */
template <int kC>
constexpr std::array<int, 16>
chanStageA()
{
    std::array<int, 16> idx{};
    int n = 0;
    for (int i = 0; i < 16; ++i) {
        const int p = kC + 3 * i;
        if (p < 32)
            idx[size_t(n++)] = p;
    }
    return idx;
}

/** Stage B: keep stage A's lanes, fill the tail from v2. */
template <int kC>
constexpr std::array<int, 16>
chanStageB()
{
    std::array<int, 16> idx{};
    int n = chanSplit(kC);
    for (int i = 0; i < n; ++i)
        idx[size_t(i)] = i;
    for (int i = 0; i < 16; ++i) {
        const int p = kC + 3 * i;
        if (p >= 32)
            idx[size_t(n++)] = 16 + (p - 32);
    }
    return idx;
}

/**
 * De-interleave channel @p kC of 16 packed RGB pixels held in three
 * registers: two dependent shuffles, where Neon VLD3 does the whole
 * separation inside the load.
 */
template <int kC>
inline v128
deinterleaveChannel(const v128 &v0, const v128 &v1, const v128 &v2)
{
    const v128 partial = shuffleArr<chanStageA<kC>()>(v0, v1);
    return shuffleArr<chanStageB<kC>()>(partial, v2);
}

// ---------------------------------------------------------------------
// RGB -> Y (libjpeg-turbo port).
// ---------------------------------------------------------------------

constexpr uint32_t kYR = 4899, kYG = 9617, kYB = 1868;
constexpr int kShift = 14;
constexpr uint32_t kBias = 1u << (kShift - 1);

class WasmRgbToY : public Workload
{
  public:
    WasmRgbToY(const Options &opts, WasmIsa isa)
        : isa_(isa), pixels_(opts.imageWidth * opts.imageHeight)
    {
        Rng rng(opts.seed ^ 0x3a5e01u);
        rgb_ = randomInts<uint8_t>(rng, size_t(pixels_) * 3);
        outScalar_.assign(size_t(pixels_), 0);
        outNeon_.assign(size_t(pixels_), 1);
    }

    void
    runScalar() override
    {
        for (int p = 0; p < pixels_; ++p)
            scalarPixel(p, outScalar_);
    }

    void
    runNeon(int) override
    {
        if (isa_ == WasmIsa::NeonNative)
            neonImpl();
        else
            wasmImpl();
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return uint64_t(pixels_) * 6; }

  private:
    void
    scalarPixel(int p, Buf<uint8_t> &out)
    {
        const size_t base = size_t(p) * 3;
        Sc<uint32_t> r = sload(&rgb_[base]).to<uint32_t>();
        Sc<uint32_t> g = sload(&rgb_[base + 1]).to<uint32_t>();
        Sc<uint32_t> b = sload(&rgb_[base + 2]).to<uint32_t>();
        Sc<uint32_t> y = smadd(r, Sc<uint32_t>(kYR), Sc<uint32_t>(kBias));
        y = smadd(g, Sc<uint32_t>(kYG), y);
        y = smadd(b, Sc<uint32_t>(kYB), y);
        sstore(&out[size_t(p)], (y >> kShift).to<uint8_t>());
        ctl::loop();
    }

    /** Native Neon: VLD3 + widening multiply-accumulate + VSHRN. */
    void
    neonImpl()
    {
        const auto cr = vdup<uint16_t, 128>(uint16_t(kYR));
        const auto cg = vdup<uint16_t, 128>(uint16_t(kYG));
        const auto cb = vdup<uint16_t, 128>(uint16_t(kYB));
        const auto bias = vdup<uint32_t, 128>(kBias);
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            auto rgb = vld3<128>(&rgb_[size_t(p) * 3]);
            auto r16 = vmovl_lo(rgb[0]), r16h = vmovl_hi(rgb[0]);
            auto g16 = vmovl_lo(rgb[1]), g16h = vmovl_hi(rgb[1]);
            auto b16 = vmovl_lo(rgb[2]), b16h = vmovl_hi(rgb[2]);
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
            vst1(&outNeon_[size_t(p)], vmovn(n_lo, n_hi));
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outNeon_);
    }

    /**
     * One u32x4 quarter of the Y computation: extmul + add per
     * coefficient (wasm has no widening multiply-accumulate).
     */
    static v128
    wasmQuarter(const v128 &bias, const v128 &cr, const v128 &cg,
                const v128 &cb, const v128 &r16, const v128 &g16,
                const v128 &b16, bool high)
    {
        auto ext = [high](const v128 &x, const v128 &c) {
            return high ? ws::i32x4_extmul_high_u16x8(x, c)
                        : ws::i32x4_extmul_low_u16x8(x, c);
        };
        v128 y = ws::i32x4_add(bias, ext(r16, cr));
        y = ws::i32x4_add(y, ext(g16, cg));
        y = ws::i32x4_add(y, ext(b16, cb));
        return ws::i32x4_shr_u(y, kShift);
    }

    /** SIMD128: 3 loads + 6 shuffles replace VLD3; mul+add replace MLAL. */
    void
    wasmImpl()
    {
        const v128 cr = ws::splat(uint16_t(kYR));
        const v128 cg = ws::splat(uint16_t(kYG));
        const v128 cb = ws::splat(uint16_t(kYB));
        const v128 bias = ws::splat(kBias);
        int p = 0;
        for (; p + 16 <= pixels_; p += 16) {
            const size_t base = size_t(p) * 3;
            const v128 v0 = ws::v128_load(&rgb_[base]);
            const v128 v1 = ws::v128_load(&rgb_[base + 16]);
            const v128 v2 = ws::v128_load(&rgb_[base + 32]);
            const v128 r = deinterleaveChannel<0>(v0, v1, v2);
            const v128 g = deinterleaveChannel<1>(v0, v1, v2);
            const v128 b = deinterleaveChannel<2>(v0, v1, v2);

            const v128 r16l = ws::i16x8_extend_low_u8x16(r);
            const v128 r16h = ws::i16x8_extend_high_u8x16(r);
            const v128 g16l = ws::i16x8_extend_low_u8x16(g);
            const v128 g16h = ws::i16x8_extend_high_u8x16(g);
            const v128 b16l = ws::i16x8_extend_low_u8x16(b);
            const v128 b16h = ws::i16x8_extend_high_u8x16(b);

            const v128 y0 =
                wasmQuarter(bias, cr, cg, cb, r16l, g16l, b16l, false);
            const v128 y1 =
                wasmQuarter(bias, cr, cg, cb, r16l, g16l, b16l, true);
            const v128 y2 =
                wasmQuarter(bias, cr, cg, cb, r16h, g16h, b16h, false);
            const v128 y3 =
                wasmQuarter(bias, cr, cg, cb, r16h, g16h, b16h, true);

            const v128 n_lo = ws::i16x8_narrow_i32x4_s(y0, y1);
            const v128 n_hi = ws::i16x8_narrow_i32x4_s(y2, y3);
            ws::v128_store(&outNeon_[size_t(p)],
                           ws::i8x16_narrow_i16x8_u(n_lo, n_hi));
            ctl::loop();
        }
        for (; p < pixels_; ++p)
            scalarPixel(p, outNeon_);
    }

    WasmIsa isa_;
    int pixels_;
    Buf<uint8_t> rgb_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// Adler-32 (zlib port).
// ---------------------------------------------------------------------

constexpr uint32_t kAdlerBase = 65521;
constexpr size_t kAdlerNmax = 5552;

class WasmAdler32 : public Workload
{
  public:
    WasmAdler32(const Options &opts, WasmIsa isa) : isa_(isa)
    {
        Rng rng(opts.seed ^ 0x3a5e02u);
        data_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes));
    }

    void
    runScalar() override
    {
        Sc<uint32_t> s1(1u), s2(0u);
        size_t i = 0;
        const size_t n = data_.size();
        while (i < n) {
            const size_t end = std::min(n, i + kAdlerNmax);
            for (; i < end; ++i) {
                Sc<uint8_t> b = sload(&data_[i]);
                s1 += b.to<uint32_t>();
                s2 += s1;
                ctl::loop();
            }
            s1 = s1 % Sc<uint32_t>(kAdlerBase);
            s2 = s2 % Sc<uint32_t>(kAdlerBase);
        }
        outScalar_ = (s2.v << 16) | s1.v;
    }

    void
    runNeon(int) override
    {
        outNeon_ = isa_ == WasmIsa::NeonNative ? neonImpl() : wasmImpl();
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return 2 * data_.size(); }

  private:
    /** Native Neon: VMULL + VPADAL accumulate, ADDV reduce. */
    uint32_t
    neonImpl()
    {
        uint8_t taps_mem[16];
        for (int i = 0; i < 16; ++i)
            taps_mem[i] = uint8_t(16 - i);
        const auto taps = vld1<128>(taps_mem);

        uint32_t s1 = 1, s2 = 0;
        size_t i = 0;
        const size_t n = data_.size();
        while (i + 16 <= n) {
            const size_t block_end = std::min(n - 15, i + kAdlerNmax);
            auto vs1 = vset_lane(vdup<uint32_t, 128>(0u), 0,
                                 Sc<uint32_t>(s1));
            auto vs2 = vset_lane(vdup<uint32_t, 128>(0u), 0,
                                 Sc<uint32_t>(s2));
            for (; i + 16 <= n && i < block_end; i += 16) {
                vs2 = vadd(vs2, vshl(vs1, 4));
                auto d = vld1<128>(&data_[i]);
                vs2 = vpadal(vs2, vmull_lo(d, taps));
                vs2 = vpadal(vs2, vmull_hi(d, taps));
                vs1 = vpadal(vs1, vpaddl(d));
                ctl::loop();
            }
            s1 = vaddv(vs1).v % kAdlerBase;
            s2 = vaddv(vs2).v % kAdlerBase;
        }
        return finishScalar(s1, s2, i);
    }

    /**
     * SIMD128: the same loop shape, but pairwise accumulation costs
     * extadd + add (no VPADAL) and the block reduction folds with
     * shuffle+add cascades (no ADDV).
     */
    uint32_t
    wasmImpl()
    {
        uint8_t taps_mem[16];
        for (int i = 0; i < 16; ++i)
            taps_mem[i] = uint8_t(16 - i);
        const v128 taps = ws::v128_load(taps_mem);

        uint32_t s1 = 1, s2 = 0;
        size_t i = 0;
        const size_t n = data_.size();
        while (i + 16 <= n) {
            const size_t block_end = std::min(n - 15, i + kAdlerNmax);
            v128 vs1 = ws::replace_lane(ws::splat(0u), 0,
                                        Sc<uint32_t>(s1));
            v128 vs2 = ws::replace_lane(ws::splat(0u), 0,
                                        Sc<uint32_t>(s2));
            for (; i + 16 <= n && i < block_end; i += 16) {
                vs2 = ws::i32x4_add(vs2, ws::i32x4_shl(vs1, 4));
                const v128 d = ws::v128_load(&data_[i]);
                const v128 p_lo = ws::i16x8_extmul_low_u8x16(d, taps);
                const v128 p_hi = ws::i16x8_extmul_high_u8x16(d, taps);
                vs2 = ws::i32x4_add(
                    vs2, ws::i32x4_extadd_pairwise_u16x8(p_lo));
                vs2 = ws::i32x4_add(
                    vs2, ws::i32x4_extadd_pairwise_u16x8(p_hi));
                vs1 = ws::i32x4_add(
                    vs1, ws::i32x4_extadd_pairwise_u16x8(
                             ws::i16x8_extadd_pairwise_u8x16(d)));
                ctl::loop();
            }
            s1 = ws::hsum_u32x4(vs1).v % kAdlerBase;
            s2 = ws::hsum_u32x4(vs2).v % kAdlerBase;
        }
        return finishScalar(s1, s2, i);
    }

    uint32_t
    finishScalar(uint32_t s1, uint32_t s2, size_t i)
    {
        Sc<uint32_t> t1(s1), t2(s2);
        for (; i < data_.size(); ++i) {
            Sc<uint8_t> b = sload(&data_[i]);
            t1 += b.to<uint32_t>();
            t2 += t1;
            ctl::loop();
        }
        t1 = t1 % Sc<uint32_t>(kAdlerBase);
        t2 = t2 % Sc<uint32_t>(kAdlerBase);
        return (t2.v << 16) | t1.v;
    }

    WasmIsa isa_;
    Buf<uint8_t> data_;
    uint32_t outScalar_ = 0;
    uint32_t outNeon_ = 1;
};

// ---------------------------------------------------------------------
// 4-tap FIR filter (WebAudio-style f32 streaming MAC).
// ---------------------------------------------------------------------

constexpr float kFirTaps[4] = {0.1f, 0.4f, 0.4f, 0.1f};

class WasmFirFilter : public Workload
{
  public:
    WasmFirFilter(const Options &opts, WasmIsa isa) : isa_(isa)
    {
        Rng rng(opts.seed ^ 0x3a5e03u);
        n_ = size_t(std::max(opts.audioSamples, 64));
        in_ = randomFloats(rng, n_ + 3);
        outScalar_.assign(n_, 0.0f);
        outNeon_.assign(n_, 1.0f);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < n_; ++i) {
            Sc<float> acc(0.0f);
            for (int k = 0; k < 4; ++k) {
                acc = smadd(sload(&in_[i + size_t(k)]),
                            Sc<float>(kFirTaps[k]), acc);
            }
            sstore(&outScalar_[i], acc);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        switch (isa_) {
          case WasmIsa::NeonNative:
            neonImpl();
            break;
          case WasmIsa::Simd128:
            wasmImpl(/*fused=*/false);
            break;
          case WasmIsa::Relaxed:
            wasmImpl(/*fused=*/true);
            break;
        }
    }

    bool verify() override { return approxOutputs(outScalar_, outNeon_); }
    uint64_t flops() const override { return n_ * 8; }

  private:
    /** Native Neon: one FMLA per tap. */
    void
    neonImpl()
    {
        std::array<Vec<float, 128>, 4> taps;
        for (int k = 0; k < 4; ++k)
            taps[size_t(k)] = vdup<float, 128>(kFirTaps[k]);
        size_t i = 0;
        for (; i + 4 <= n_; i += 4) {
            auto acc = vmul(vld1<128>(&in_[i]), taps[0]);
            for (int k = 1; k < 4; ++k)
                acc = vmla(acc, vld1<128>(&in_[i + size_t(k)]),
                           taps[size_t(k)]);
            vst1(&outNeon_[i], acc);
            ctl::loop();
        }
        scalarTail(i);
    }

    /**
     * SIMD128: mul + add per tap (7 FP ops per vector of outputs);
     * relaxed-simd's f32x4.relaxed_madd restores the Neon budget (4).
     */
    void
    wasmImpl(bool fused)
    {
        std::array<v128, 4> taps;
        for (int k = 0; k < 4; ++k)
            taps[size_t(k)] = ws::splat(kFirTaps[k]);
        size_t i = 0;
        for (; i + 4 <= n_; i += 4) {
            v128 acc = ws::f32x4_mul(ws::v128_load(&in_[i]), taps[0]);
            for (int k = 1; k < 4; ++k) {
                const v128 x = ws::v128_load(&in_[i + size_t(k)]);
                if (fused) {
                    acc = ws::f32x4_relaxed_madd(x, taps[size_t(k)], acc);
                } else {
                    acc = ws::f32x4_add(
                        acc, ws::f32x4_mul(x, taps[size_t(k)]));
                }
            }
            ws::v128_store(&outNeon_[i], acc);
            ctl::loop();
        }
        scalarTail(i);
    }

    void
    scalarTail(size_t i)
    {
        for (; i < n_; ++i) {
            Sc<float> acc(0.0f);
            for (int k = 0; k < 4; ++k) {
                acc = smadd(sload(&in_[i + size_t(k)]),
                            Sc<float>(kFirTaps[k]), acc);
            }
            sstore(&outNeon_[i], acc);
            ctl::loop();
        }
    }

    WasmIsa isa_;
    size_t n_ = 0;
    Buf<float> in_, outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// SHA-256 (boringssl port).
// ---------------------------------------------------------------------

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

class WasmSha256 : public Workload
{
  public:
    WasmSha256(const Options &opts, WasmIsa isa) : isa_(isa)
    {
        Rng rng(opts.seed ^ 0x3a5e04u);
        data_ = randomInts<uint8_t>(rng,
                                    size_t(opts.bufferBytes) & ~63ull);
    }

    void runScalar() override { scalarRounds(outScalar_); }

    void
    runNeon(int) override
    {
        if (isa_ == WasmIsa::NeonNative)
            neonImpl();
        else
            scalarRounds(outNeon_); // wasm has no crypto instructions
    }

    bool
    verify() override
    {
        return std::memcmp(outScalar_, outNeon_, sizeof(outScalar_)) == 0;
    }

    uint64_t flops() const override { return data_.size() / 64 * 64 * 8; }

  private:
    static Sc<uint32_t>
    ror(Sc<uint32_t> x, int n)
    {
        return (x >> n) | (x << (32 - n));
    }

    /** Pure scalar rounds — all a wasm engine can issue for SHA-256. */
    void
    scalarRounds(uint32_t (&out)[8])
    {
        uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
        for (size_t blk = 0; blk + 64 <= data_.size(); blk += 64) {
            Sc<uint32_t> w[64];
            for (int i = 0; i < 16; ++i) {
                uint32_t word;
                std::memcpy(&word, &data_[blk + size_t(4 * i)], 4);
                uint64_t id = emitMem(InstrClass::SLoad,
                                      &data_[blk + size_t(4 * i)], 4,
                                      Lat::load);
                uint64_t rid = emitOp(InstrClass::SInt, Fu::SAlu,
                                      Lat::sAlu, id);
                w[i] = Sc<uint32_t>(__builtin_bswap32(word), rid);
            }
            for (int i = 16; i < 64; ++i) {
                Sc<uint32_t> s0 = ror(w[i - 15], 7) ^
                                  ror(w[i - 15], 18) ^ (w[i - 15] >> 3);
                Sc<uint32_t> s1 = ror(w[i - 2], 17) ^
                                  ror(w[i - 2], 19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16] + s0 + w[i - 7] + s1;
                ctl::loop();
            }
            Sc<uint32_t> a(h[0]), b(h[1]), c(h[2]), d(h[3]);
            Sc<uint32_t> e(h[4]), f(h[5]), g(h[6]), hh(h[7]);
            for (int i = 0; i < 64; ++i) {
                Sc<uint32_t> k = sload(&kK[i]);
                Sc<uint32_t> big1 = ror(e, 6) ^ ror(e, 11) ^ ror(e, 25);
                Sc<uint32_t> ch = (e & f) ^ (~e & g);
                Sc<uint32_t> t1 = hh + big1 + ch + k + w[i];
                Sc<uint32_t> big0 = ror(a, 2) ^ ror(a, 13) ^ ror(a, 22);
                Sc<uint32_t> maj = (a & b) ^ (a & c) ^ (b & c);
                Sc<uint32_t> t2 = big0 + maj;
                hh = g; g = f; f = e; e = d + t1;
                d = c; c = b; b = a; a = t1 + t2;
                ctl::loop();
            }
            h[0] += a.v; h[1] += b.v; h[2] += c.v; h[3] += d.v;
            h[4] += e.v; h[5] += f.v; h[6] += g.v; h[7] += hh.v;
            ctl::loop();
        }
        std::memcpy(out, h, sizeof(h));
    }

    /** Native Neon SHA-256 extension (SHA256H/H2/SU0/SU1). */
    void
    neonImpl()
    {
        uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
        for (size_t blk = 0; blk + 64 <= data_.size(); blk += 64) {
            auto abcd = vld1<128>(h);
            auto efgh = vld1<128>(h + 4);
            std::array<Vec<uint32_t, 128>, 4> w;
            for (int i = 0; i < 4; ++i) {
                auto bytes = vld1<128>(&data_[blk + size_t(16 * i)]);
                w[size_t(i)] = vreinterpret<uint32_t>(vrev32(bytes));
            }
            auto a0 = abcd, e0 = efgh;
            for (int r = 0; r < 16; ++r) {
                auto wk = vadd(w[0], vld1<128>(&kK[4 * r]));
                auto new_abcd = vsha256h(abcd, efgh, wk);
                efgh = vsha256h2(efgh, abcd, wk);
                abcd = new_abcd;
                if (r < 15) {
                    Vec<uint32_t, 128> next{};
                    if (r < 12) {
                        auto part = vsha256su0(w[0], w[1]);
                        next = vsha256su1(part, w[2], w[3]);
                    }
                    w[0] = w[1];
                    w[1] = w[2];
                    w[2] = w[3];
                    if (r < 12)
                        w[3] = next;
                }
                ctl::loop();
            }
            abcd = vadd(abcd, a0);
            efgh = vadd(efgh, e0);
            uint32_t tmp[8];
            vst1(tmp, abcd);
            vst1(tmp + 4, efgh);
            std::memcpy(h, tmp, sizeof(h));
            ctl::loop();
        }
        std::memcpy(outNeon_, h, sizeof(outNeon_));
    }

    WasmIsa isa_;
    Buf<uint8_t> data_;
    uint32_t outScalar_[8] = {};
    uint32_t outNeon_[8] = {1};
};

} // namespace

std::unique_ptr<Workload>
makeWasmRgbToY(const Options &opts, WasmIsa isa)
{
    return std::make_unique<WasmRgbToY>(opts, isa);
}

std::unique_ptr<Workload>
makeWasmAdler32(const Options &opts, WasmIsa isa)
{
    return std::make_unique<WasmAdler32>(opts, isa);
}

std::unique_ptr<Workload>
makeWasmFirFilter(const Options &opts, WasmIsa isa)
{
    return std::make_unique<WasmFirFilter>(opts, isa);
}

std::unique_ptr<Workload>
makeWasmSha256(const Options &opts, WasmIsa isa)
{
    return std::make_unique<WasmSha256>(opts, isa);
}

} // namespace swan::workloads::ext
