/**
 * @file
 * Tests for the trace substrate: recorder id assignment, buffered vs
 * streaming modes, instruction classification mapping (Figure 1 buckets),
 * MixStats accounting, the scalar instrumentation layer (Sc<T>) and the
 * canonical address space every registered kernel must stay inside.
 */

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "simd/scalar.hh"
#include "trace/instr.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

using namespace swan;
using namespace swan::simd;
using trace::Instr;
using trace::InstrClass;
using trace::PaperClass;

TEST(Trace, RecorderAssignsSequentialIds)
{
    trace::Recorder rec;
    Instr i;
    EXPECT_EQ(rec.emit(i), 1u);
    EXPECT_EQ(rec.emit(i), 2u);
    EXPECT_EQ(rec.count(), 2u);
    EXPECT_EQ(rec.instrs().size(), 2u);
    EXPECT_EQ(rec.instrs()[0].id, 1u);
}

TEST(Trace, StreamingRecorderForwardsWithoutBuffering)
{
    struct Counter : trace::Sink
    {
        int n = 0;
        void onInstr(const Instr &) override { ++n; }
    } sink;
    trace::Recorder rec(&sink);
    Instr i;
    rec.emit(i);
    rec.emit(i);
    EXPECT_EQ(sink.n, 2);
    EXPECT_TRUE(rec.instrs().empty());
}

TEST(Trace, ScopedRecorderInstallsAndRestores)
{
    EXPECT_EQ(trace::currentRecorder(), nullptr);
    {
        trace::Recorder rec;
        trace::ScopedRecorder scoped(&rec);
        EXPECT_EQ(trace::currentRecorder(), &rec);
        {
            trace::Recorder inner;
            trace::ScopedRecorder scoped2(&inner);
            EXPECT_EQ(trace::currentRecorder(), &inner);
        }
        EXPECT_EQ(trace::currentRecorder(), &rec);
    }
    EXPECT_EQ(trace::currentRecorder(), nullptr);
}

TEST(Trace, PaperClassMapping)
{
    EXPECT_EQ(trace::paperClass(InstrClass::SInt), PaperClass::SInteger);
    EXPECT_EQ(trace::paperClass(InstrClass::SLoad), PaperClass::SInteger);
    EXPECT_EQ(trace::paperClass(InstrClass::SStore),
              PaperClass::SInteger);
    EXPECT_EQ(trace::paperClass(InstrClass::Branch),
              PaperClass::SInteger);
    EXPECT_EQ(trace::paperClass(InstrClass::SFloat), PaperClass::SFloat);
    EXPECT_EQ(trace::paperClass(InstrClass::VLoad), PaperClass::VLoad);
    EXPECT_EQ(trace::paperClass(InstrClass::VCrypto),
              PaperClass::VCrypto);
    EXPECT_EQ(trace::paperClass(InstrClass::VMisc), PaperClass::VMisc);
}

TEST(Trace, MixStatsFractionsSumToOne)
{
    trace::Recorder rec;
    {
        trace::ScopedRecorder scoped(&rec);
        Sc<int32_t> a(1), b(2);
        auto c = a + b;
        Sc<float> f(1.5f), g(2.5f);
        auto h = f * g;
        (void)c;
        (void)h;
        ctl::loop();
    }
    trace::MixStats mix;
    mix.addTrace(rec.instrs());
    EXPECT_EQ(mix.total(), rec.count());
    double sum = 0;
    for (size_t c = 0; c < size_t(PaperClass::NumClasses); ++c)
        sum += mix.fraction(PaperClass(c));
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Trace, ScalarOpsClassified)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    Sc<int32_t> a(1), b(2);
    (void)(a + b);
    EXPECT_EQ(rec.instrs().back().cls, InstrClass::SInt);
    (void)(a * b);
    EXPECT_EQ(rec.instrs().back().cls, InstrClass::SInt);
    EXPECT_EQ(rec.instrs().back().fu, trace::Fu::SMul);
    Sc<float> f(1.0f), g(2.0f);
    (void)(f + g);
    EXPECT_EQ(rec.instrs().back().cls, InstrClass::SFloat);
    (void)(a < b); // emits compare + branch
    EXPECT_EQ(rec.instrs().back().cls, InstrClass::Branch);
}

TEST(Trace, ScalarMemoryCarriesAddressAndDeps)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    int32_t x = 42;
    Sc<int32_t> v = sload(&x);
    EXPECT_EQ(v.v, 42);
    EXPECT_GT(v.src, 0u);
    const auto &load = rec.instrs().back();
    EXPECT_EQ(load.cls, InstrClass::SLoad);
    // Canonical stack mapping: the distance to the anchor (the frame
    // that installed the recorder) is kept.
    EXPECT_EQ(load.addr, trace::CanonMap::kStackTop +
                             (reinterpret_cast<uint64_t>(&x) -
                              reinterpret_cast<uint64_t>(&scoped)));
    EXPECT_EQ(load.size, 4u);

    sstore(&x, v + Sc<int32_t>(1));
    const auto &store = rec.instrs().back();
    EXPECT_EQ(store.cls, InstrClass::SStore);
    EXPECT_NE(store.dep0, 0u);
    EXPECT_EQ(x, 43);
}

TEST(Trace, ConstantsCarryNoProvenance)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    Sc<int32_t> c(7);
    EXPECT_EQ(c.src, 0u);
    Sc<int32_t> d = c + Sc<int32_t>(1);
    EXPECT_GT(d.src, 0u);
    EXPECT_EQ(rec.instrs().back().dep0, 0u); // both operands constants
}

TEST(Trace, CtlLoopEmitsUpdateAndBranch)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    ctl::loop();
    ASSERT_EQ(rec.count(), 2u);
    EXPECT_EQ(rec.instrs()[0].cls, InstrClass::SInt);
    EXPECT_EQ(rec.instrs()[1].cls, InstrClass::Branch);
    EXPECT_EQ(rec.instrs()[1].dep0, rec.instrs()[0].id);
}

TEST(Trace, SelectAndMinMaxAreBranchless)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    Sc<int32_t> a(1), b(2);
    (void)sselect(true, a, b);
    (void)smin(a, b);
    (void)smax(a, b);
    for (const auto &i : rec.instrs())
        EXPECT_NE(i.cls, InstrClass::Branch);
}

TEST(Trace, MixStatsLoadStoreBytes)
{
    trace::Recorder rec;
    {
        trace::ScopedRecorder scoped(&rec);
        int64_t x = 0;
        sstore(&x, sload(&x));
    }
    trace::MixStats mix;
    mix.addTrace(rec.instrs());
    EXPECT_EQ(mix.loadBytes(), 8u);
    EXPECT_EQ(mix.storeBytes(), 8u);
}

TEST(Trace, TakeMovesTraceOut)
{
    trace::Recorder rec;
    {
        trace::ScopedRecorder scoped(&rec);
        ctl::loop();
    }
    auto instrs = rec.take();
    EXPECT_EQ(instrs.size(), 2u);
    EXPECT_TRUE(rec.instrs().empty());
    EXPECT_EQ(rec.count(), 0u);
}

TEST(Trace, EveryKernelRecordsOnlyRegionAndStackAddresses)
{
    // A workload must load its tables from registered buffers
    // (workloads::Buf): anything else falls back to the page map, which
    // keeps each address's in-page offset, i.e. wherever the linker put
    // the table, so the simulated cycles would follow the binary's link
    // layout. The page map hands out kPageBase + k pages and the stack
    // maps to just below kStackTop, so the lower half of the gap
    // between them is page-map territory no capture may reach. Explicit
    // tiny options: no environment decides the inputs.
    const core::Options o = core::Options::tiny();
    constexpr uint64_t lo = trace::CanonMap::kPageBase;
    constexpr uint64_t hi =
        (trace::CanonMap::kPageBase + trace::CanonMap::kStackTop) / 2;
    size_t captures = 0;
    for (const auto &spec : core::Registry::instance().kernels()) {
        for (const auto impl :
             {core::Impl::Scalar, core::Impl::Auto, core::Impl::Neon}) {
            auto w = spec.make(o);
            uint64_t paged = 0;
            for (const auto &i : core::Runner::capture(*w, impl))
                for (const uint64_t a : {i.addr, i.addr2})
                    paged += a >= lo && a < hi;
            EXPECT_EQ(paged, 0u) << spec.info.symbol << "/"
                                 << spec.info.name << " impl "
                                 << core::name(impl);
            ++captures;
        }
    }
    EXPECT_GE(captures, 3u * 59);
}
