/**
 * @file
 * Unit and property tests for the WebAssembly SIMD128 instruction-set
 * model (simd/vec_wasm.hh): shaped arithmetic over the untyped v128,
 * widening/narrowing, shuffles and swizzles, the horizontal-fold helpers,
 * the relaxed-simd fused ops, and the trace records the porting study's
 * instruction-count claims rest on.
 */

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "simd/simd.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

using namespace swan;
using namespace swan::simd;
namespace ws = swan::simd::wasm;
using ws::v128;

namespace
{

/** Build a v128 from 16 explicit bytes. */
v128
bytes16(std::array<uint8_t, 16> b)
{
    v128 v;
    for (int i = 0; i < 16; ++i)
        v.lane[size_t(i)] = b[size_t(i)];
    return v;
}

/** Build a v128 holding iota bytes 0..15. */
v128
iotaBytes(uint8_t start = 0)
{
    std::array<uint8_t, 16> b{};
    for (int i = 0; i < 16; ++i)
        b[size_t(i)] = uint8_t(start + i);
    return bytes16(b);
}

/** Read lane @p i of the register under shape T (test-side, untraced). */
template <typename T>
T
laneAs(const v128 &v, int i)
{
    T out;
    std::memcpy(&out, v.lane.data() + size_t(i) * sizeof(T), sizeof(T));
    return out;
}

/** Build a v128 from lanes of shape T (test-side, untraced). */
template <typename T, size_t N>
v128
fromLanes(std::array<T, N> lanes)
{
    static_assert(N * sizeof(T) == 16);
    v128 v;
    std::memcpy(v.lane.data(), lanes.data(), 16);
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// Shaped integer arithmetic on the untyped register.
// ---------------------------------------------------------------------

TEST(WasmArith, I8x16AddWrapsAround)
{
    auto a = fromLanes<uint8_t, 16>({250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                     11, 12, 13, 14, 15});
    auto b = fromLanes<uint8_t, 16>({10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                     1, 1, 1, 1});
    auto r = ws::i8x16_add(a, b);
    EXPECT_EQ(laneAs<uint8_t>(r, 0), 4); // 250 + 10 wraps
    EXPECT_EQ(laneAs<uint8_t>(r, 1), 2);
}

TEST(WasmArith, I16x8MulKeepsLowHalf)
{
    auto a = fromLanes<uint16_t, 8>({300, 2, 3, 4, 5, 6, 7, 8});
    auto b = fromLanes<uint16_t, 8>({300, 2, 3, 4, 5, 6, 7, 8});
    auto r = ws::i16x8_mul(a, b);
    EXPECT_EQ(laneAs<uint16_t>(r, 0), uint16_t(300 * 300)); // 90000 wraps
    EXPECT_EQ(laneAs<uint16_t>(r, 1), 4);
}

TEST(WasmArith, I32x4SubAndShifts)
{
    auto a = fromLanes<uint32_t, 4>({100, 200, 300, 400});
    auto b = fromLanes<uint32_t, 4>({1, 2, 3, 4});
    auto r = ws::i32x4_sub(a, b);
    EXPECT_EQ(laneAs<uint32_t>(r, 3), 396u);
    r = ws::i32x4_shl(r, 2);
    EXPECT_EQ(laneAs<uint32_t>(r, 0), 396u);
    r = ws::i32x4_shr_u(r, 2);
    EXPECT_EQ(laneAs<uint32_t>(r, 0), 99u);
}

TEST(WasmArith, I32x4ShrSignExtends)
{
    auto a = fromLanes<int32_t, 4>({-8, 8, -16, 16});
    auto r = ws::i32x4_shr_s(a, 2);
    EXPECT_EQ(laneAs<int32_t>(r, 0), -2);
    EXPECT_EQ(laneAs<int32_t>(r, 1), 2);
}

TEST(WasmArith, SaturatingAddClampsU8)
{
    auto a = fromLanes<uint8_t, 16>({250, 250, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0, 0, 0, 0});
    auto b = fromLanes<uint8_t, 16>({250, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0, 0, 0});
    auto r = ws::i8x16_add_sat_u(a, b);
    EXPECT_EQ(laneAs<uint8_t>(r, 0), 255);
    EXPECT_EQ(laneAs<uint8_t>(r, 1), 254);
}

TEST(WasmArith, AvgrRoundsUp)
{
    auto a = fromLanes<uint8_t, 16>({1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0, 0, 0});
    auto b = fromLanes<uint8_t, 16>({2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0, 0, 0});
    auto r = ws::i8x16_avgr_u(a, b);
    EXPECT_EQ(laneAs<uint8_t>(r, 0), 2); // (1+2+1)>>1
    EXPECT_EQ(laneAs<uint8_t>(r, 1), 2);
}

TEST(WasmArith, MinMaxPerShape)
{
    auto a = fromLanes<int16_t, 8>({-5, 5, -5, 5, -5, 5, -5, 5});
    auto b = fromLanes<int16_t, 8>({0, 0, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(laneAs<int16_t>(ws::i16x8_min_s(a, b), 0), -5);
    EXPECT_EQ(laneAs<int16_t>(ws::i16x8_max_s(a, b), 0), 0);
    auto c = fromLanes<int32_t, 4>({-7, 7, -7, 7});
    auto z = fromLanes<int32_t, 4>({0, 0, 0, 0});
    EXPECT_EQ(laneAs<int32_t>(ws::i32x4_min_s(c, z), 0), -7);
    EXPECT_EQ(laneAs<int32_t>(ws::i32x4_max_s(c, z), 1), 7);
}

TEST(WasmArith, Q15MulrMatchesNeonSqrdmulh)
{
    auto a = fromLanes<int16_t, 8>({16384, -16384, 32767, -32768, 1000,
                                    -1000, 0, 5});
    auto b = fromLanes<int16_t, 8>({16384, 16384, 32767, -32768, 1000,
                                    1000, 5, 0});
    auto r = ws::i16x8_q15mulr_sat_s(a, b);
    auto expect = vqrdmulh(vreinterpret<int16_t>(a),
                           vreinterpret<int16_t>(b));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(laneAs<int16_t>(r, i), expect.lane[size_t(i)]);
}

// ---------------------------------------------------------------------
// Bitwise and comparisons.
// ---------------------------------------------------------------------

TEST(WasmBitwise, AndOrXorNotAndnot)
{
    auto a = fromLanes<uint32_t, 4>({0xf0f0f0f0u, 0, 0xffffffffu, 0});
    auto b = fromLanes<uint32_t, 4>({0xff00ff00u, 0, 0x0000ffffu, 0});
    EXPECT_EQ(laneAs<uint32_t>(ws::v128_and(a, b), 0), 0xf000f000u);
    EXPECT_EQ(laneAs<uint32_t>(ws::v128_or(a, b), 0), 0xfff0fff0u);
    EXPECT_EQ(laneAs<uint32_t>(ws::v128_xor(a, b), 0), 0x0ff00ff0u);
    EXPECT_EQ(laneAs<uint32_t>(ws::v128_not(a), 1), 0xffffffffu);
    EXPECT_EQ(laneAs<uint32_t>(ws::v128_andnot(a, b), 2), 0xffff0000u);
}

TEST(WasmBitwise, BitselectTakesMaskBits)
{
    auto a = fromLanes<uint32_t, 4>({0xaaaaaaaau, 1, 2, 3});
    auto b = fromLanes<uint32_t, 4>({0x55555555u, 9, 9, 9});
    auto m = fromLanes<uint32_t, 4>({0xffff0000u, 0xffffffffu, 0, 0});
    auto r = ws::v128_bitselect(a, b, m);
    EXPECT_EQ(laneAs<uint32_t>(r, 0), 0xaaaa5555u);
    EXPECT_EQ(laneAs<uint32_t>(r, 1), 1u);
    EXPECT_EQ(laneAs<uint32_t>(r, 2), 9u);
}

TEST(WasmBitwise, CompareLanesAllOnesOrZero)
{
    auto a = fromLanes<int32_t, 4>({5, -5, 7, 0});
    auto b = fromLanes<int32_t, 4>({0, 0, 7, 1});
    auto gt = ws::i32x4_gt_s(a, b);
    EXPECT_EQ(laneAs<uint32_t>(gt, 0), 0xffffffffu);
    EXPECT_EQ(laneAs<uint32_t>(gt, 1), 0u);
    EXPECT_EQ(laneAs<uint32_t>(gt, 2), 0u);
    auto eq = ws::i8x16_eq(iotaBytes(), iotaBytes());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(laneAs<uint8_t>(eq, i), 0xffu);
}

TEST(WasmBitwise, AnyTrueDetectsNonzero)
{
    auto zero = ws::splat(uint8_t(0));
    EXPECT_EQ(ws::v128_any_true(zero).v, 0u);
    auto one = ws::replace_lane(zero, 7, Sc<uint8_t>(1));
    EXPECT_EQ(ws::v128_any_true(one).v, 1u);
}

// ---------------------------------------------------------------------
// Widening / narrowing / pairwise.
// ---------------------------------------------------------------------

TEST(WasmWiden, ExtendLowHighU8)
{
    auto v = iotaBytes(240); // 240..255
    auto lo = ws::i16x8_extend_low_u8x16(v);
    auto hi = ws::i16x8_extend_high_u8x16(v);
    EXPECT_EQ(laneAs<uint16_t>(lo, 0), 240);
    EXPECT_EQ(laneAs<uint16_t>(lo, 7), 247);
    EXPECT_EQ(laneAs<uint16_t>(hi, 0), 248);
    EXPECT_EQ(laneAs<uint16_t>(hi, 7), 255);
}

TEST(WasmWiden, ExtmulMatchesWideProduct)
{
    auto a = fromLanes<uint16_t, 8>({60000, 2, 3, 4, 5, 6, 7, 50000});
    auto b = fromLanes<uint16_t, 8>({60000, 2, 3, 4, 5, 6, 7, 3});
    auto lo = ws::i32x4_extmul_low_u16x8(a, b);
    auto hi = ws::i32x4_extmul_high_u16x8(a, b);
    EXPECT_EQ(laneAs<uint32_t>(lo, 0), 3600000000u);
    EXPECT_EQ(laneAs<uint32_t>(hi, 3), 150000u);
}

TEST(WasmWiden, ExtaddPairwiseSumsAdjacent)
{
    auto v = iotaBytes(); // 0..15
    auto p = ws::i16x8_extadd_pairwise_u8x16(v);
    EXPECT_EQ(laneAs<uint16_t>(p, 0), 1);  // 0+1
    EXPECT_EQ(laneAs<uint16_t>(p, 7), 29); // 14+15
    auto q = ws::i32x4_extadd_pairwise_u16x8(p);
    EXPECT_EQ(laneAs<uint32_t>(q, 0), 6u); // 0+1+2+3
}

TEST(WasmWiden, DotProductSignedPairs)
{
    auto a = fromLanes<int16_t, 8>({1, 2, 3, 4, -5, 6, 100, 100});
    auto b = fromLanes<int16_t, 8>({10, 10, 10, 10, 10, 10, 300, 300});
    auto r = ws::i32x4_dot_i16x8_s(a, b);
    EXPECT_EQ(laneAs<int32_t>(r, 0), 30);
    EXPECT_EQ(laneAs<int32_t>(r, 1), 70);
    EXPECT_EQ(laneAs<int32_t>(r, 2), 10);
    EXPECT_EQ(laneAs<int32_t>(r, 3), 60000);
}

TEST(WasmNarrow, NarrowI16ToU8Saturates)
{
    auto lo = fromLanes<int16_t, 8>({-1, 0, 255, 256, 300, 128, 127, 1});
    auto hi = fromLanes<int16_t, 8>({5, 6, 7, 8, 9, 10, 11, 12});
    auto r = ws::i8x16_narrow_i16x8_u(lo, hi);
    EXPECT_EQ(laneAs<uint8_t>(r, 0), 0);   // -1 clamps to 0
    EXPECT_EQ(laneAs<uint8_t>(r, 2), 255);
    EXPECT_EQ(laneAs<uint8_t>(r, 3), 255); // 256 clamps
    EXPECT_EQ(laneAs<uint8_t>(r, 8), 5);   // high half follows
}

TEST(WasmNarrow, NarrowI32ToI16Saturates)
{
    auto lo = fromLanes<int32_t, 4>({-40000, 40000, 100, -100});
    auto hi = fromLanes<int32_t, 4>({1, 2, 3, 4});
    auto r = ws::i16x8_narrow_i32x4_s(lo, hi);
    EXPECT_EQ(laneAs<int16_t>(r, 0), -32768);
    EXPECT_EQ(laneAs<int16_t>(r, 1), 32767);
    EXPECT_EQ(laneAs<int16_t>(r, 2), 100);
    EXPECT_EQ(laneAs<int16_t>(r, 4), 1);
}

// ---------------------------------------------------------------------
// Floating point and conversions.
// ---------------------------------------------------------------------

TEST(WasmFloat, ArithmeticLanewise)
{
    auto a = fromLanes<float, 4>({1.0f, 2.0f, -3.0f, 4.0f});
    auto b = fromLanes<float, 4>({0.5f, 0.5f, 0.5f, 0.5f});
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_add(a, b), 0), 1.5f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_sub(a, b), 1), 1.5f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_mul(a, b), 2), -1.5f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_div(a, b), 3), 8.0f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_abs(a), 2), 3.0f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_neg(a), 0), -1.0f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_min(a, b), 2), -3.0f);
    EXPECT_FLOAT_EQ(laneAs<float>(ws::f32x4_max(a, b), 0), 1.0f);
}

TEST(WasmFloat, RelaxedMaddIsFusedMac)
{
    auto a = fromLanes<float, 4>({2.0f, 3.0f, 4.0f, 5.0f});
    auto b = fromLanes<float, 4>({10.0f, 10.0f, 10.0f, 10.0f});
    auto c = fromLanes<float, 4>({1.0f, 1.0f, 1.0f, 1.0f});
    auto r = ws::f32x4_relaxed_madd(a, b, c);
    EXPECT_FLOAT_EQ(laneAs<float>(r, 0), 21.0f);
    EXPECT_FLOAT_EQ(laneAs<float>(r, 3), 51.0f);
    auto s = ws::f32x4_relaxed_nmadd(a, b, c);
    EXPECT_FLOAT_EQ(laneAs<float>(s, 0), -19.0f);
}

TEST(WasmFloat, ConvertAndTruncRoundTrip)
{
    auto i = fromLanes<int32_t, 4>({-7, 0, 42, 1000000});
    auto f = ws::f32x4_convert_i32x4_s(i);
    EXPECT_FLOAT_EQ(laneAs<float>(f, 0), -7.0f);
    auto back = ws::i32x4_trunc_sat_f32x4_s(f);
    EXPECT_EQ(laneAs<int32_t>(back, 0), -7);
    EXPECT_EQ(laneAs<int32_t>(back, 3), 1000000);
}

TEST(WasmFloat, TruncSatClampsAndZeroesNaN)
{
    auto f = fromLanes<float, 4>({3e9f, -3e9f,
                                  std::numeric_limits<float>::quiet_NaN(),
                                  1.9f});
    auto r = ws::i32x4_trunc_sat_f32x4_s(f);
    EXPECT_EQ(laneAs<int32_t>(r, 0), INT32_MAX);
    EXPECT_EQ(laneAs<int32_t>(r, 1), INT32_MIN);
    EXPECT_EQ(laneAs<int32_t>(r, 2), 0);
    EXPECT_EQ(laneAs<int32_t>(r, 3), 1);
}

// ---------------------------------------------------------------------
// Shuffles, swizzle, lane access.
// ---------------------------------------------------------------------

TEST(WasmShuffle, IdentityAndCrossRegister)
{
    auto a = iotaBytes(0);
    auto b = iotaBytes(100);
    auto id = ws::i8x16_shuffle<0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                13, 14, 15>(a, b);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(laneAs<uint8_t>(id, i), i);
    auto cross = ws::i8x16_shuffle<0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5,
                                   21, 6, 22, 7, 23>(a, b);
    EXPECT_EQ(laneAs<uint8_t>(cross, 0), 0);
    EXPECT_EQ(laneAs<uint8_t>(cross, 1), 100);
    EXPECT_EQ(laneAs<uint8_t>(cross, 15), 107);
}

TEST(WasmShuffle, SwizzleOutOfRangeYieldsZero)
{
    auto a = iotaBytes(10);
    auto idx = fromLanes<uint8_t, 16>({0, 15, 16, 255, 1, 1, 1, 1, 1, 1,
                                       1, 1, 1, 1, 1, 1});
    auto r = ws::i8x16_swizzle(a, idx);
    EXPECT_EQ(laneAs<uint8_t>(r, 0), 10);
    EXPECT_EQ(laneAs<uint8_t>(r, 1), 25);
    EXPECT_EQ(laneAs<uint8_t>(r, 2), 0);
    EXPECT_EQ(laneAs<uint8_t>(r, 3), 0);
}

TEST(WasmShuffle, ExtractReplaceLane)
{
    auto v = fromLanes<float, 4>({1.5f, 2.5f, 3.5f, 4.5f});
    EXPECT_FLOAT_EQ(ws::extract_lane<float>(v, 2).v, 3.5f);
    auto w = ws::replace_lane(v, 2, Sc<float>(9.0f));
    EXPECT_FLOAT_EQ(ws::extract_lane<float>(w, 2).v, 9.0f);
    EXPECT_FLOAT_EQ(ws::extract_lane<float>(w, 3).v, 4.5f);
}

// ---------------------------------------------------------------------
// Horizontal folds.
// ---------------------------------------------------------------------

TEST(WasmHorizontal, HsumU32MatchesScalarSum)
{
    auto v = fromLanes<uint32_t, 4>({10, 20, 30, 40});
    EXPECT_EQ(ws::hsum_u32x4(v).v, 100u);
}

TEST(WasmHorizontal, HsumF32MatchesScalarSum)
{
    auto v = fromLanes<float, 4>({0.25f, 0.5f, 1.0f, 2.0f});
    EXPECT_FLOAT_EQ(ws::hsum_f32x4(v).v, 3.75f);
}

// ---------------------------------------------------------------------
// Trace-cost contracts: the porting study's instruction-count claims.
// ---------------------------------------------------------------------

namespace
{

/** Run @p f under a buffering recorder and return the records. */
template <typename F>
std::vector<trace::Instr>
captureOps(F &&f)
{
    trace::Recorder rec;
    trace::ScopedRecorder scope(&rec);
    f();
    return rec.take();
}

} // namespace

TEST(WasmTrace, ShapedOpsEmitOneInstruction)
{
    auto a = iotaBytes(1);
    auto t = captureOps([&] { ws::i16x8_add(a, a); });
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].cls, trace::InstrClass::VInt);
    t = captureOps([&] { ws::f32x4_mul(a, a); });
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].cls, trace::InstrClass::VFloat);
    t = captureOps([&] {
        ws::i8x16_shuffle<0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                          14, 15>(a, a);
    });
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].cls, trace::InstrClass::VMisc);
}

TEST(WasmTrace, LoadsAndStoresCarryAddresses)
{
    float buf[4] = {1, 2, 3, 4};
    auto t = captureOps([&] {
        auto v = ws::v128_load(buf);
        ws::v128_store(buf, v);
    });
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].cls, trace::InstrClass::VLoad);
    // A stack buffer lands in the canonical stack region, a few frames
    // from the recorder's anchor (trace/canon.hh).
    EXPECT_LT(t[0].addr, trace::CanonMap::kStackTop + 4096);
    EXPECT_GT(t[0].addr, trace::CanonMap::kStackTop - 4096);
    EXPECT_EQ(t[0].size, 16u);
    EXPECT_EQ(t[1].cls, trace::InstrClass::VStore);
    EXPECT_EQ(t[1].addr, t[0].addr);
}

TEST(WasmTrace, HsumCostsFiveInstructions)
{
    // 2 shuffles + 2 adds + 1 lane extract, where Neon ADDV costs one
    // across-vector op: the Section 6.1 reduction-pattern gap.
    auto v = ws::splat(uint32_t(3));
    auto t = captureOps([&] { ws::hsum_u32x4(v); });
    EXPECT_EQ(t.size(), 5u);
    auto neon = captureOps([&] { vaddv(vreinterpret<uint32_t>(v)); });
    EXPECT_EQ(neon.size(), 1u);
}

TEST(WasmTrace, DeinterleaveCostsShufflesNotLdN)
{
    // 16 RGB pixels: wasm needs 3 loads + 2 shuffles per channel; Neon
    // VLD3 is a single de-interleaving load.
    uint8_t rgb[48] = {};
    auto t = captureOps([&] {
        auto v0 = ws::v128_load(rgb);
        auto v1 = ws::v128_load(rgb + 16);
        auto v2 = ws::v128_load(rgb + 32);
        // One channel (R): two dependent shuffles.
        auto p = ws::i8x16_shuffle<0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30,
                                   0, 0, 0, 0, 0>(v0, v1);
        ws::i8x16_shuffle<0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 20, 23,
                          26, 29>(p, v2);
    });
    trace::MixStats mix;
    mix.addTrace(t);
    EXPECT_EQ(mix.count(trace::InstrClass::VLoad), 3u);
    EXPECT_EQ(mix.count(trace::InstrClass::VMisc), 2u);
    EXPECT_EQ(mix.count(trace::StrideKind::Ld3), 0u);

    auto neon = captureOps([&] { vld3<128>(rgb); });
    trace::MixStats nmix;
    nmix.addTrace(neon);
    EXPECT_EQ(nmix.count(trace::InstrClass::VLoad), 1u);
    EXPECT_EQ(nmix.count(trace::StrideKind::Ld3), 1u);
}

TEST(WasmTrace, SwizzleSemanticsMatchNeonTbl1)
{
    auto a = iotaBytes(50);
    auto idx = fromLanes<uint8_t, 16>({15, 14, 13, 12, 11, 10, 9, 8, 7, 6,
                                       5, 4, 3, 2, 1, 0});
    auto viaWasm = ws::i8x16_swizzle(a, idx);
    auto viaNeon = vqtbl1<128>(a, idx);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(viaWasm.lane[size_t(i)], viaNeon.lane[size_t(i)]);
}

// ---------------------------------------------------------------------
// Property sweep: shaped wasm ops agree with the Neon emulation they
// lower to, over pseudo-random inputs.
// ---------------------------------------------------------------------

class WasmVsNeonProperty : public ::testing::TestWithParam<uint32_t>
{
  protected:
    v128
    randomV128(uint64_t salt)
    {
        uint64_t s = (uint64_t(GetParam()) << 32) ^ salt;
        v128 v;
        for (auto &b : v.lane) {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            b = uint8_t(s >> 56);
        }
        return v;
    }
};

TEST_P(WasmVsNeonProperty, AddMulAgreeWithNeon)
{
    auto a = randomV128(1), b = randomV128(2);
    auto w = ws::i16x8_add(a, b);
    auto n = vadd(vreinterpret<uint16_t>(a), vreinterpret<uint16_t>(b));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(laneAs<uint16_t>(w, i), n.lane[size_t(i)]);
    auto wm = ws::i32x4_mul(a, b);
    auto nm = vmul(vreinterpret<uint32_t>(a), vreinterpret<uint32_t>(b));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(laneAs<uint32_t>(wm, i), nm.lane[size_t(i)]);
}

TEST_P(WasmVsNeonProperty, ExtmulAgreesWithVmull)
{
    auto a = randomV128(3), b = randomV128(4);
    auto w = ws::i16x8_extmul_low_u8x16(a, b);
    auto n = vmull_lo(a, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(laneAs<uint16_t>(w, i), n.lane[size_t(i)]);
    auto wh = ws::i16x8_extmul_high_u8x16(a, b);
    auto nh = vmull_hi(a, b);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(laneAs<uint16_t>(wh, i), nh.lane[size_t(i)]);
}

TEST_P(WasmVsNeonProperty, HsumAgreesWithAddv)
{
    auto a = randomV128(5);
    auto w = ws::hsum_u32x4(a);
    auto n = vaddv(vreinterpret<uint32_t>(a));
    EXPECT_EQ(w.v, n.v);
}

TEST_P(WasmVsNeonProperty, ExtaddPairwiseAgreesWithVpaddl)
{
    auto a = randomV128(6);
    auto w = ws::i16x8_extadd_pairwise_u8x16(a);
    auto n = vpaddl(a);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(laneAs<uint16_t>(w, i), n.lane[size_t(i)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WasmVsNeonProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));
