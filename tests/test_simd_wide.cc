/**
 * @file
 * Tests for widening/narrowing, pairwise and across-vector operations,
 * memory operations (vld1/vst1, partial forms, vld2/3/4, vst2/3/4) and
 * conversions.
 */

#include <gtest/gtest.h>

#include "simd/simd.hh"
#include "trace/stats.hh"

using namespace swan;
using namespace swan::simd;

TEST(SimdWide, MovlHalves)
{
    Vec<uint8_t, 128> v;
    for (int i = 0; i < 16; ++i)
        v.lane[size_t(i)] = uint8_t(200 + i);
    auto lo = vmovl_lo(v);
    auto hi = vmovl_hi(v);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(lo[i], 200 + i);
        EXPECT_EQ(hi[i], 208 + i);
    }
}

TEST(SimdWide, WideningArithmetic)
{
    auto a = vdup<uint8_t, 128>(uint8_t(250));
    auto b = vdup<uint8_t, 128>(uint8_t(10));
    EXPECT_EQ(vaddl_lo(a, b)[0], 260);
    EXPECT_EQ(vsubl_lo(b, a)[0], uint16_t(10 - 250)); // wraps in u16
    EXPECT_EQ(vmull_lo(a, b)[0], 2500);
    auto acc = vdup<uint16_t, 128>(uint16_t(7));
    EXPECT_EQ(vmlal_lo(acc, a, b)[0], 2507);
    EXPECT_EQ(vmlsl_lo(vdup<uint16_t, 128>(uint16_t(3000)), a, b)[0],
              500);
    EXPECT_EQ(vshll_lo(b, 3)[0], 80);
    EXPECT_EQ(vaddw_lo(acc, b)[0], 17);
    EXPECT_EQ(vaddw_hi(acc, b)[0], 17);
}

TEST(SimdWide, NarrowingPair)
{
    auto lo = vdup<uint16_t, 128>(uint16_t(0x1234));
    auto hi = vdup<uint16_t, 128>(uint16_t(0x5678));
    auto n = vmovn(lo, hi);
    EXPECT_EQ(n[0], 0x34);
    EXPECT_EQ(n[8], 0x78);
    auto s = vshrn(lo, hi, 8);
    EXPECT_EQ(s[0], 0x12);
    EXPECT_EQ(s[8], 0x56);
}

TEST(SimdWide, SaturatingNarrow)
{
    auto big = vdup<int16_t, 128>(int16_t(300));
    auto neg = vdup<int16_t, 128>(int16_t(-5));
    auto q = vqmovn(big, neg);
    EXPECT_EQ(q[0], 127);   // saturated s8
    EXPECT_EQ(q[8], -5);
    auto u = vqmovun(big, neg);
    EXPECT_EQ(u[0], 255);   // saturated u8
    EXPECT_EQ(u[8], 0);     // clamped below
}

TEST(SimdWide, RoundingNarrowShift)
{
    auto v = vdup<uint16_t, 128>(uint16_t(0x00ff));
    EXPECT_EQ(vrshrn(v, v, 4)[0], (0xff + 8) >> 4);
    auto s = vdup<int16_t, 128>(int16_t(-100));
    EXPECT_EQ(vqrshrun(s, s, 2)[0], 0); // negative clamps to 0
}

TEST(SimdWide, PairwiseOps)
{
    Vec<uint8_t, 128> v;
    for (int i = 0; i < 16; ++i)
        v.lane[size_t(i)] = uint8_t(i);
    auto pl = vpaddl(v);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(pl[i], uint16_t(2 * i + (2 * i + 1)));
    auto acc = vdup<uint16_t, 128>(uint16_t(100));
    auto pa = vpadal(acc, v);
    EXPECT_EQ(pa[0], 101);
    auto a32 = vdup<uint32_t, 128>(1u);
    auto b32 = vdup<uint32_t, 128>(9u);
    auto pp = vpadd(a32, b32);
    EXPECT_EQ(pp[0], 2u);
    EXPECT_EQ(pp[2], 18u);
}

TEST(SimdWide, AcrossVectorReductions)
{
    Vec<uint8_t, 128> v;
    uint32_t ref = 0;
    for (int i = 0; i < 16; ++i) {
        v.lane[size_t(i)] = uint8_t(10 + i);
        ref += uint32_t(10 + i);
    }
    EXPECT_EQ(vaddlv(v).v, ref);
    EXPECT_EQ(vmaxv(v).v, 25);
    EXPECT_EQ(vminv(v).v, 10);
    auto f = vdup<float, 128>(1.25f);
    EXPECT_FLOAT_EQ(vaddv(f).v, 5.0f);
}

TEST(SimdWide, ConversionsIntFloat)
{
    auto f = vdup<float, 128>(3.75f);
    auto i = vcvt<int32_t>(f);
    EXPECT_EQ(i[0], 3); // truncation
    auto back = vcvt<float>(i);
    EXPECT_FLOAT_EQ(back[0], 3.0f);
}

TEST(SimdWide, Fp16Conversions)
{
    auto h = vdup<Half, 128>(Half(1.5f));
    auto f_lo = vcvt_f32_lo(h);
    auto f_hi = vcvt_f32_hi(h);
    EXPECT_FLOAT_EQ(f_lo[0], 1.5f);
    EXPECT_FLOAT_EQ(f_hi[0], 1.5f);
    auto back = vcvt_f16(f_lo, f_hi);
    EXPECT_FLOAT_EQ(float(back[0]), 1.5f);
}

TEST(SimdMem, LoadStoreRoundTrip)
{
    int32_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    auto v = vld1<128>(buf);
    int32_t out[4] = {};
    vst1(out, v);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], buf[i]);
}

TEST(SimdMem, PartialLoadTracksActiveLanes)
{
    float buf[4] = {1, 2, 3, 4};
    auto v = vld1_partial<128>(buf, 3);
    EXPECT_EQ(v.active, 3);
    EXPECT_FLOAT_EQ(v[2], 3.0f);
    EXPECT_FLOAT_EQ(v[3], 0.0f);
    float out[4] = {-1, -1, -1, -1};
    vst1_partial(out, v, 3);
    EXPECT_FLOAT_EQ(out[2], 3.0f);
    EXPECT_FLOAT_EQ(out[3], -1.0f); // untouched
}

TEST(SimdMem, Vld4Deinterleaves)
{
    uint8_t buf[64];
    for (int i = 0; i < 64; ++i)
        buf[i] = uint8_t(i);
    auto q = vld4<128>(buf);
    for (int reg = 0; reg < 4; ++reg)
        for (int e = 0; e < 16; ++e)
            EXPECT_EQ(q[size_t(reg)][e], uint8_t(4 * e + reg));
    uint8_t out[64] = {};
    vst4(out, q);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], buf[i]);
}

TEST(SimdMem, Vld2RoundTrip)
{
    float buf[8] = {0, 10, 1, 11, 2, 12, 3, 13};
    auto pair = vld2<128>(buf);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(pair[0][i], float(i));
        EXPECT_FLOAT_EQ(pair[1][i], float(10 + i));
    }
    float out[8] = {};
    vst2(out, pair);
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(out[i], buf[i]);
}

TEST(SimdMem, StrideTagsRecorded)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    uint8_t buf[64] = {};
    auto q = vld4<128>(buf);
    vst4(buf, q);
    trace::MixStats mix;
    mix.addTrace(rec.instrs());
    EXPECT_EQ(mix.count(trace::StrideKind::Ld4), 1u);
    EXPECT_EQ(mix.count(trace::StrideKind::St4), 1u);
}

TEST(SimdMem, MemInstructionsCarryAddresses)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    uint16_t buf[8] = {};
    (void)vld1<128>(buf);
    const auto &instr = rec.instrs().back();
    // Stack addresses keep their distance to the recorder's anchor.
    EXPECT_EQ(instr.addr, trace::CanonMap::kStackTop +
                              (reinterpret_cast<uint64_t>(buf) -
                               reinterpret_cast<uint64_t>(&scoped)));
    EXPECT_EQ(instr.size, 16u);
    EXPECT_TRUE(instr.isLoad());
}
