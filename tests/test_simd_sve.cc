/**
 * @file
 * Unit and property tests for the future-ISA extension layer
 * (simd/vec_sve.hh): SVE-style predicates and merging arithmetic,
 * gather/scatter, arbitrary-stride loads/stores, and the Armv8.3
 * FCMLA/FCADD complex arithmetic — semantics, provenance, and the trace
 * records the timing model depends on.
 */

#include <complex>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "simd/simd.hh"
#include "trace/recorder.hh"

using namespace swan;
using namespace swan::simd;

namespace
{

template <typename T, int B>
Vec<T, B>
iota(T start, T step = T(1))
{
    Vec<T, B> v;
    T x = start;
    for (int i = 0; i < Vec<T, B>::kLanes; ++i) {
        v.lane[size_t(i)] = x;
        x = detail::wrapAdd(x, step);
    }
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// Predicates.
// ---------------------------------------------------------------------

TEST(SvePred, PtrueActivatesAllLanes)
{
    auto p = ptrue<float, 128>();
    EXPECT_EQ(p.count(), 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(p[i]);
}

TEST(SvePred, WhileltFullIteration)
{
    auto p = whilelt<float, 128>(0, 100);
    EXPECT_EQ(p.count(), 4);
}

TEST(SvePred, WhileltTailIteration)
{
    auto p = whilelt<float, 128>(8, 10);
    EXPECT_EQ(p.count(), 2);
    EXPECT_TRUE(p[0]);
    EXPECT_TRUE(p[1]);
    EXPECT_FALSE(p[2]);
    EXPECT_FALSE(p[3]);
}

TEST(SvePred, WhileltPastEndIsEmpty)
{
    auto p = whilelt<float, 128>(12, 10);
    EXPECT_EQ(p.count(), 0);
}

TEST(SvePred, WhileltNegativeBaseActivatesAll)
{
    auto p = whilelt<uint8_t, 128>(-4, 4);
    EXPECT_EQ(p.count(), 8); // i+k < 4 for k in [0,8)
}

TEST(SvePred, PandPorLanewise)
{
    auto a = whilelt<int32_t, 128>(0, 3); // 1110
    auto b = whilelt<int32_t, 128>(0, 1); // 1000
    EXPECT_EQ(pand(a, b).count(), 1);
    EXPECT_EQ(por(a, b).count(), 3);
}

TEST(SvePred, PcountReturnsScalarWithProvenance)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    auto p = whilelt<int32_t, 128>(0, 2);
    auto n = pcount(p);
    EXPECT_EQ(n.v, 2);
    EXPECT_NE(n.src, 0u);
}

TEST(SvePred, PtestEmitsBranchAndReportsAnyActive)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    EXPECT_TRUE(ptest(whilelt<int32_t, 128>(0, 1)));
    EXPECT_FALSE(ptest(whilelt<int32_t, 128>(5, 1)));
    auto instrs = rec.take();
    int branches = 0;
    for (const auto &i : instrs)
        branches += i.cls == trace::InstrClass::Branch ? 1 : 0;
    EXPECT_EQ(branches, 2);
}

TEST(SvePred, WiderWidthsScaleLaneCount)
{
    EXPECT_EQ((ptrue<float, 256>().count()), 8);
    EXPECT_EQ((ptrue<float, 512>().count()), 16);
    EXPECT_EQ((ptrue<float, 1024>().count()), 32);
    EXPECT_EQ((whilelt<float, 1024>(0, 20).count()), 20);
}

// ---------------------------------------------------------------------
// Masked memory.
// ---------------------------------------------------------------------

TEST(SveMaskedMem, LoadZeroesInactiveLanes)
{
    const float src[4] = {1, 2, 3, 4};
    auto pg = whilelt<float, 128>(0, 2);
    auto v = vld1_m<128>(src, pg);
    EXPECT_EQ(v[0], 1.0f);
    EXPECT_EQ(v[1], 2.0f);
    EXPECT_EQ(v[2], 0.0f);
    EXPECT_EQ(v[3], 0.0f);
    EXPECT_EQ(v.active, 2);
}

TEST(SveMaskedMem, StoreWritesOnlyActiveLanes)
{
    float dst[4] = {-1, -1, -1, -1};
    auto pg = whilelt<float, 128>(0, 3);
    vst1_m(dst, vdup<float, 128>(7.0f), pg);
    EXPECT_EQ(dst[0], 7.0f);
    EXPECT_EQ(dst[1], 7.0f);
    EXPECT_EQ(dst[2], 7.0f);
    EXPECT_EQ(dst[3], -1.0f);
}

TEST(SveMaskedMem, TraceRecordsActiveByteCount)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    const float src[4] = {1, 2, 3, 4};
    auto pg = whilelt<float, 128>(0, 3);
    (void)vld1_m<128>(src, pg);
    auto instrs = rec.take();
    ASSERT_GE(instrs.size(), 2u);
    const auto &ld = instrs.back();
    EXPECT_EQ(ld.cls, trace::InstrClass::VLoad);
    EXPECT_EQ(ld.size, 12u);
    EXPECT_EQ(ld.activeLanes, 3);
}

// ---------------------------------------------------------------------
// Merging arithmetic.
// ---------------------------------------------------------------------

TEST(SveMerging, AddPassesInactiveThrough)
{
    auto a = iota<int32_t, 128>(10, 10);
    auto b = vdup<int32_t, 128>(1);
    auto pg = whilelt<int32_t, 128>(0, 2);
    auto r = vadd_m(pg, a, b);
    EXPECT_EQ(r[0], 11);
    EXPECT_EQ(r[1], 21);
    EXPECT_EQ(r[2], 30); // untouched
    EXPECT_EQ(r[3], 40);
}

TEST(SveMerging, MlaMatchesUnmaskedOnFullPredicate)
{
    auto acc = iota<float, 128>(1);
    auto a = iota<float, 128>(2);
    auto b = iota<float, 128>(3);
    auto full = ptrue<float, 128>();
    auto masked = vmla_m(full, acc, a, b);
    auto plain = vmla(acc, a, b);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(masked[i], plain[i]);
}

TEST(SveMerging, SubMulRespectMask)
{
    auto a = vdup<int32_t, 128>(100);
    auto b = vdup<int32_t, 128>(3);
    auto pg = whilelt<int32_t, 128>(0, 1);
    EXPECT_EQ(vsub_m(pg, a, b)[0], 97);
    EXPECT_EQ(vsub_m(pg, a, b)[1], 100);
    EXPECT_EQ(vmul_m(pg, a, b)[0], 300);
    EXPECT_EQ(vmul_m(pg, a, b)[3], 100);
}

TEST(SveMerging, SelPicksPerLane)
{
    auto a = vdup<int32_t, 128>(1);
    auto b = vdup<int32_t, 128>(2);
    auto pg = whilelt<int32_t, 128>(0, 2);
    auto r = vsel(pg, a, b);
    EXPECT_EQ(r[0], 1);
    EXPECT_EQ(r[1], 1);
    EXPECT_EQ(r[2], 2);
    EXPECT_EQ(r[3], 2);
}

// ---------------------------------------------------------------------
// Gather / scatter.
// ---------------------------------------------------------------------

TEST(SveGather, GatherReadsTableAtIndices)
{
    std::vector<uint32_t> table(64);
    std::iota(table.begin(), table.end(), 100u);
    Vec<uint32_t, 128> idx;
    idx.lane = {63, 0, 7, 32};
    auto v = vgather(table.data(), idx);
    EXPECT_EQ(v[0], 163u);
    EXPECT_EQ(v[1], 100u);
    EXPECT_EQ(v[2], 107u);
    EXPECT_EQ(v[3], 132u);
}

TEST(SveGather, TraceRecordBoundsTouchedRegion)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    std::vector<uint32_t> table(64, 5u);
    Vec<uint32_t, 128> idx;
    idx.lane = {8, 2, 40, 13};
    (void)vgather(table.data(), idx);
    auto instrs = rec.take();
    ASSERT_EQ(instrs.size(), 1u);
    const auto &g = instrs.front();
    EXPECT_EQ(g.stride, trace::StrideKind::Gather);
    EXPECT_EQ(g.cls, trace::InstrClass::VLoad);
    // Canonical addresses (trace/canon.hh): the unregistered table's
    // first touched page maps to the page-map base, in-page offset
    // kept, and addr2 keeps its exact distance to addr.
    EXPECT_EQ(g.addr, trace::CanonMap::kPageBase +
                          (reinterpret_cast<uint64_t>(&table[2]) & 4095));
    EXPECT_EQ(g.addr2 - g.addr, 38 * sizeof(uint32_t));
    EXPECT_EQ(g.size, 16u);
    EXPECT_TRUE(g.isMultiAddress());
}

TEST(SveGather, GatherDependsOnIndexProducer)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    std::vector<uint32_t> table(16, 1u);
    auto idx = vdup<uint32_t, 128>(3u);
    auto v = vgather(table.data(), idx);
    auto instrs = rec.take();
    ASSERT_EQ(instrs.size(), 2u);
    EXPECT_EQ(instrs[1].dep0, instrs[0].id);
    EXPECT_EQ(v.src, instrs[1].id);
}

TEST(SveGather, PartialIndexVectorGathersActiveLanesOnly)
{
    std::vector<uint32_t> table(16);
    std::iota(table.begin(), table.end(), 0u);
    const uint32_t keys[2] = {5, 9};
    auto idx = vld1_partial<128>(keys, 2);
    auto v = vgather(table.data(), idx);
    EXPECT_EQ(v[0], 5u);
    EXPECT_EQ(v[1], 9u);
    EXPECT_EQ(v.active, 2);
}

TEST(SveScatter, ScatterWritesTableAtIndices)
{
    std::vector<uint32_t> table(16, 0u);
    Vec<uint32_t, 128> idx;
    idx.lane = {1, 5, 9, 13};
    auto vals = iota<uint32_t, 128>(100u);
    vscatter(table.data(), idx, vals);
    EXPECT_EQ(table[1], 100u);
    EXPECT_EQ(table[5], 101u);
    EXPECT_EQ(table[9], 102u);
    EXPECT_EQ(table[13], 103u);
    EXPECT_EQ(table[0], 0u);
}

TEST(SveScatter, OverlappingIndicesWriteInLaneOrder)
{
    std::vector<uint32_t> table(4, 0u);
    Vec<uint32_t, 128> idx;
    idx.lane = {2, 2, 2, 2};
    auto vals = iota<uint32_t, 128>(1u);
    vscatter(table.data(), idx, vals);
    EXPECT_EQ(table[2], 4u); // last lane wins
}

TEST(SveScatter, TraceRecordTagsScatter)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    std::vector<uint32_t> table(8, 0u);
    Vec<uint32_t, 128> idx;
    idx.lane = {7, 0, 3, 1};
    Vec<uint32_t, 128> vals;
    vals.lane = {1, 2, 3, 4};
    vscatter(table.data(), idx, vals);
    auto instrs = rec.take();
    ASSERT_EQ(instrs.size(), 1u);
    EXPECT_EQ(instrs[0].stride, trace::StrideKind::Scatter);
    EXPECT_EQ(instrs[0].cls, trace::InstrClass::VStore);
    EXPECT_EQ(instrs[0].addr,
              trace::CanonMap::kPageBase +
                  (reinterpret_cast<uint64_t>(&table[0]) & 4095));
    EXPECT_EQ(instrs[0].addr2 - instrs[0].addr, 7 * sizeof(uint32_t));
}

TEST(SveGather, GatherScatterRoundTripProperty)
{
    // scatter(gather(x)) with a permutation index is a permutation:
    // gathering back with the inverse recovers the original.
    std::vector<uint32_t> src(4), dst(4, 0u);
    src = {11, 22, 33, 44};
    Vec<uint32_t, 128> perm;
    perm.lane = {2, 0, 3, 1};
    auto g = vgather(src.data(), perm);
    vscatter(dst.data(), perm, g);
    EXPECT_EQ(src, dst);
}

TEST(SveGather, WideGatherCoversAllLanes)
{
    std::vector<uint32_t> table(256);
    std::iota(table.begin(), table.end(), 0u);
    Vec<uint32_t, 1024> idx;
    for (int i = 0; i < 32; ++i)
        idx.lane[size_t(i)] = uint32_t(7 * i % 256);
    auto v = vgather(table.data(), idx);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(v[i], uint32_t(7 * i % 256));
}

// ---------------------------------------------------------------------
// Arbitrary-stride load/store.
// ---------------------------------------------------------------------

TEST(SveStrided, LoadPicksEveryNth)
{
    std::vector<int16_t> buf(64);
    std::iota(buf.begin(), buf.end(), int16_t(0));
    auto v = vlds<128>(buf.data(), 8); // 8 lanes of s16
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(v[i], int16_t(8 * i));
}

TEST(SveStrided, StoreScattersEveryNth)
{
    std::vector<int16_t> buf(64, -1);
    auto v = iota<int16_t, 128>(int16_t(0));
    vsts(buf.data(), 8, v);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(buf[size_t(i)], i % 8 == 0 ? int16_t(i / 8)
                                             : int16_t(-1));
}

TEST(SveStrided, RoundTripIsIdentity)
{
    std::vector<float> src(32), dst(32, 0.0f);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = float(i) * 0.5f;
    auto v = vlds<128>(src.data(), 7);
    vsts(dst.data(), 7, v);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dst[size_t(7 * i)], src[size_t(7 * i)]);
}

TEST(SveStrided, TraceRecordCarriesExactStride)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    std::vector<float> buf(64, 1.0f);
    (void)vlds<128>(buf.data(), 8);
    vsts(buf.data(), 5, vdup<float, 128>(2.0f));
    auto instrs = rec.take();
    ASSERT_EQ(instrs.size(), 3u); // dup + lds + sts
    EXPECT_EQ(instrs[0].stride, trace::StrideKind::LdS);
    EXPECT_EQ(instrs[0].elemStride, 32);
    EXPECT_EQ(instrs[0].addr2 - instrs[0].addr, 3 * 8 * sizeof(float));
    EXPECT_EQ(instrs[2].stride, trace::StrideKind::StS);
    EXPECT_EQ(instrs[2].elemStride, 20);
}

TEST(SveStrided, UnitStrideDegeneratesToContiguous)
{
    std::vector<int32_t> buf(4);
    std::iota(buf.begin(), buf.end(), 0);
    auto a = vlds<128>(buf.data(), 1);
    auto b = vld1<128>(buf.data());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(SveStrided, MatchesNeonLd2ForStride2)
{
    // Property: two stride-2 loads reproduce VLD2's de-interleave.
    std::vector<uint8_t> buf(32);
    std::iota(buf.begin(), buf.end(), uint8_t(0));
    auto pair = vld2<128>(buf.data());
    auto even = vlds<128>(buf.data(), 2);
    auto odd = vlds<128>(buf.data() + 1, 2);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(even[i], pair[0][i]);
        EXPECT_EQ(odd[i], pair[1][i]);
    }
}

// ---------------------------------------------------------------------
// Complex arithmetic (FCMLA / FCADD).
// ---------------------------------------------------------------------

namespace
{

/** Reference complex MAC acc + a*b via std::complex. */
void
refCmac(const float *a, const float *b, const float *acc, float *out,
        int pairs)
{
    for (int i = 0; i < pairs; ++i) {
        std::complex<float> av(a[2 * i], a[2 * i + 1]);
        std::complex<float> bv(b[2 * i], b[2 * i + 1]);
        std::complex<float> cv(acc[2 * i], acc[2 * i + 1]);
        auto r = cv + av * bv;
        out[2 * i] = r.real();
        out[2 * i + 1] = r.imag();
    }
}

} // namespace

TEST(SveCmla, Rot0PlusRot90IsComplexMac)
{
    const float a[4] = {1.5f, -2.0f, 0.25f, 3.0f};
    const float b[4] = {-1.0f, 0.5f, 2.0f, -0.75f};
    const float c[4] = {10.0f, 20.0f, 30.0f, 40.0f};
    auto av = vld1<128>(a);
    auto bv = vld1<128>(b);
    auto acc = vld1<128>(c);
    acc = vcmla<0>(acc, av, bv);
    acc = vcmla<90>(acc, av, bv);
    float expect[4];
    refCmac(a, b, c, expect, 2);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(acc[i], expect[i]);
}

TEST(SveCmla, Rot180PlusRot270IsComplexConjMsub)
{
    // FCMLA #180 + #270 accumulates -a*b.
    const float a[4] = {2.0f, 1.0f, -1.0f, 0.5f};
    const float b[4] = {3.0f, -2.0f, 0.5f, 4.0f};
    const float c[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    auto acc = vld1<128>(c);
    acc = vcmla<180>(acc, vld1<128>(a), vld1<128>(b));
    acc = vcmla<270>(acc, vld1<128>(a), vld1<128>(b));
    for (int i = 0; i < 2; ++i) {
        std::complex<float> av(a[2 * i], a[2 * i + 1]);
        std::complex<float> bv(b[2 * i], b[2 * i + 1]);
        auto r = -av * bv;
        EXPECT_FLOAT_EQ(acc[2 * i], r.real());
        EXPECT_FLOAT_EQ(acc[2 * i + 1], r.imag());
    }
}

TEST(SveCmla, FcaddRotatesBy90And270)
{
    // FCADD #90: a + i*b; FCADD #270: a - i*b.
    const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    const float b[4] = {10.0f, 20.0f, 30.0f, 40.0f};
    auto r90 = vcadd<90>(vld1<128>(a), vld1<128>(b));
    auto r270 = vcadd<270>(vld1<128>(a), vld1<128>(b));
    EXPECT_FLOAT_EQ(r90[0], 1.0f - 20.0f);
    EXPECT_FLOAT_EQ(r90[1], 2.0f + 10.0f);
    EXPECT_FLOAT_EQ(r270[0], 1.0f + 20.0f);
    EXPECT_FLOAT_EQ(r270[1], 2.0f - 10.0f);
    EXPECT_FLOAT_EQ(r90[2], 3.0f - 40.0f);
    EXPECT_FLOAT_EQ(r270[3], 4.0f - 30.0f);
}

TEST(SveCmla, EmitsSingleVFloatPerRotation)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    auto a = vdup<float, 128>(1.0f);
    auto b = vdup<float, 128>(2.0f);
    auto acc = vdup<float, 128>(0.0f);
    rec.clear();
    acc = vcmla<0>(acc, a, b);
    acc = vcmla<90>(acc, a, b);
    auto instrs = rec.take();
    ASSERT_EQ(instrs.size(), 2u);
    for (const auto &i : instrs) {
        EXPECT_EQ(i.cls, trace::InstrClass::VFloat);
        EXPECT_EQ(i.latency, simd::Lat::vCmla);
    }
}

TEST(SveCmla, WideWidthsProcessAllPairs)
{
    constexpr int kPairs = 16; // 1024-bit f32
    float a[2 * kPairs], b[2 * kPairs], c[2 * kPairs], expect[2 * kPairs];
    for (int i = 0; i < 2 * kPairs; ++i) {
        a[i] = float(i) * 0.25f - 3.0f;
        b[i] = 1.0f - float(i) * 0.125f;
        c[i] = float(i);
    }
    auto acc = vld1<1024>(c);
    acc = vcmla<0>(acc, vld1<1024>(a), vld1<1024>(b));
    acc = vcmla<90>(acc, vld1<1024>(a), vld1<1024>(b));
    refCmac(a, b, c, expect, kPairs);
    for (int i = 0; i < 2 * kPairs; ++i)
        EXPECT_FLOAT_EQ(acc[i], expect[i]);
}

// ---------------------------------------------------------------------
// First-faulting loads.
// ---------------------------------------------------------------------

TEST(SveFirstFault, FullyValidWhenFarFromLimit)
{
    const uint8_t buf[32] = {1, 2, 3};
    auto ff = vldff1<128>(buf, buf + 32);
    EXPECT_EQ(ff.valid.count(), 16);
    EXPECT_EQ(ff.data[0], 1);
    EXPECT_EQ(ff.data[2], 3);
    EXPECT_EQ(ff.data[3], 0);
}

TEST(SveFirstFault, ClampsAtFaultBoundary)
{
    const uint8_t buf[32] = {};
    auto ff = vldff1<128>(buf + 8, buf + 13);
    EXPECT_EQ(ff.valid.count(), 5);
    EXPECT_TRUE(ff.valid[4]);
    EXPECT_FALSE(ff.valid[5]);
    EXPECT_EQ(ff.data.active, 5);
}

TEST(SveFirstFault, EmitsLoadPlusFfrRead)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    const uint8_t buf[32] = {};
    (void)vldff1<128>(buf, buf + 32);
    auto instrs = rec.take();
    ASSERT_EQ(instrs.size(), 2u);
    EXPECT_EQ(instrs[0].cls, trace::InstrClass::VLoad);
    EXPECT_EQ(instrs[1].cls, trace::InstrClass::VInt);
    EXPECT_EQ(instrs[1].dep0, instrs[0].id);
}

TEST(SveFirstFault, CmpeqPRespectsGoverningPredicate)
{
    Vec<uint8_t, 128> v;
    v.lane.fill(0);
    v.lane[3] = 7;
    auto pg = whilelt<uint8_t, 128>(0, 3); // lanes 0..2 only
    auto m = cmpeq_p(pg, v, uint8_t(0));
    EXPECT_EQ(m.count(), 3);   // lanes 0..2 are zero and governed
    EXPECT_FALSE(m[3]);        // lane 3 is 7 anyway
    auto m2 = cmpeq_p(pg, v, uint8_t(7));
    EXPECT_EQ(m2.count(), 0);  // the 7 sits outside the predicate
}

TEST(SveFirstFault, PfirstIdxFindsFirstActiveLane)
{
    Vec<uint8_t, 128> v;
    v.lane.fill(1);
    v.lane[5] = 0;
    v.lane[11] = 0;
    auto m = cmpeq_p(ptrue<uint8_t, 128>(), v, uint8_t(0));
    EXPECT_EQ(pfirstIdx(m).v, 5);
    auto none = cmpeq_p(ptrue<uint8_t, 128>(), v, uint8_t(9));
    EXPECT_EQ(pfirstIdx(none).v, -1);
}
