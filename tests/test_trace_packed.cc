/**
 * @file
 * Tests of the packed trace encoding (trace/packed.hh): lossless
 * pack/decode round-trips on randomized traces (including the
 * multi-address Gather/Scatter/LdS records), the encoder against a
 * reference encoder of the documented format, the batch decoder
 * against a byte-wise reference decoder on intact and damaged streams,
 * payload
 * (disk-tier) round-trips and corruption handling, compression and
 * encode-on-emit losslessness on real captured traces, and the
 * simulateTraceMany single-pass multi-config replay producing results
 * bit-identical to N separate simulateTrace passes.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "sim/core_model.hh"
#include "trace/packed.hh"
#include "workloads/ext/ext.hh"

using namespace swan;
using trace::Instr;
using trace::PackedTrace;

namespace
{

bool
sameInstr(const Instr &a, const Instr &b)
{
    return a.id == b.id && a.dep0 == b.dep0 && a.dep1 == b.dep1 &&
           a.dep2 == b.dep2 && a.addr == b.addr && a.addr2 == b.addr2 &&
           a.size == b.size && a.elemStride == b.elemStride &&
           a.cls == b.cls && a.fu == b.fu && a.latency == b.latency &&
           a.vecBytes == b.vecBytes && a.lanes == b.lanes &&
           a.activeLanes == b.activeLanes && a.stride == b.stride;
}

void
expectSameTrace(const std::vector<Instr> &a, const std::vector<Instr> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameInstr(a[i], b[i])) << "record " << i;
}

/**
 * A randomized but recorder-shaped trace: sequential 1-based ids,
 * producer deps behind the consumer, multi-address records for the
 * Gather/Scatter/LdS/StS stride kinds.
 */
std::vector<Instr>
randomTrace(size_t n, uint32_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Instr> out;
    out.reserve(n);
    uint64_t addr = 0x7f0000001000ull + (seed % 7) * 4096;
    for (size_t i = 0; i < n; ++i) {
        Instr ins;
        ins.id = i + 1;
        const auto dep = [&]() -> uint64_t {
            if (i == 0 || rng() % 3 == 0)
                return 0;
            return 1 + rng() % i;
        };
        ins.dep0 = dep();
        ins.dep1 = dep();
        ins.dep2 = dep();
        ins.cls = trace::InstrClass(
            rng() % uint64_t(trace::InstrClass::NumClasses));
        ins.fu = trace::Fu(rng() % uint64_t(trace::Fu::NumFus));
        ins.latency = uint8_t(1 + rng() % 20);
        if (ins.isVector()) {
            ins.vecBytes = uint8_t(16 << (rng() % 3));
            ins.lanes = uint8_t(1 + rng() % 16);
            ins.activeLanes = uint8_t(1 + rng() % ins.lanes);
        }
        if (ins.isMem()) {
            // Mostly local strides, occasionally a far jump.
            addr += rng() % 16 == 0 ? (rng() % (1 << 20)) : (rng() % 256);
            ins.addr = addr;
            ins.size = uint32_t(1 << (rng() % 7));
            if (rng() % 4 == 0) {
                static const trace::StrideKind kinds[] = {
                    trace::StrideKind::Gather, trace::StrideKind::Scatter,
                    trace::StrideKind::LdS, trace::StrideKind::StS};
                ins.stride = kinds[rng() % 4];
                ins.activeLanes = uint8_t(1 + rng() % 8);
                ins.lanes = std::max(ins.lanes, ins.activeLanes);
                if (ins.stride == trace::StrideKind::LdS ||
                    ins.stride == trace::StrideKind::StS)
                    ins.elemStride = int32_t(rng() % 4096) - 2048;
                ins.addr2 = ins.addr + rng() % (1 << 16);
            }
        }
        out.push_back(ins);
    }
    return out;
}

std::vector<sim::CoreConfig>
threeCores()
{
    return {sim::primeConfig(), sim::goldConfig(), sim::silverConfig()};
}

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.timeSec, b.timeSec);
    EXPECT_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_EQ(a.feStallPct, b.feStallPct);
    EXPECT_EQ(a.beStallPct, b.beStallPct);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramAccessPerKCycle, b.dramAccessPerKCycle);
    EXPECT_EQ(a.byClass, b.byClass);
    EXPECT_EQ(a.vecBytes, b.vecBytes);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
}

/** Drain @p t through nextBatch() in @p batchSize chunks. */
std::vector<PackedTrace::Decoded>
decodeAll(const PackedTrace &t, size_t batchSize, bool *ok)
{
    PackedTrace::Cursor cur(t);
    std::vector<PackedTrace::Decoded> out;
    std::vector<PackedTrace::Decoded> buf(batchSize);
    size_t k;
    while ((k = cur.nextBatch(buf.data(), batchSize)) != 0)
        out.insert(out.end(), buf.begin(), buf.begin() + k);
    *ok = cur.ok();
    return out;
}

/** The AoS trace @p t encodes: each decoded record on its descriptor's
 *  shape. */
std::vector<Instr>
unpackAll(const PackedTrace &t)
{
    bool ok = false;
    const auto decoded = decodeAll(t, PackedTrace::kBlockInstrs, &ok);
    EXPECT_TRUE(ok);
    std::vector<Instr> out(decoded.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
        const PackedTrace::Decoded &d = decoded[i];
        Instr &o = out[i];
        t.expandDesc(d.desc, &o);
        o.id = d.id;
        o.dep0 = d.dep0;
        o.dep1 = d.dep1;
        o.dep2 = d.dep2;
        o.addr = d.addr;
        o.addr2 = d.addr2;
    }
    return out;
}

void
expectSameDecoded(const std::vector<PackedTrace::Decoded> &ref,
                  const std::vector<PackedTrace::Decoded> &got,
                  size_t batchSize)
{
    ASSERT_EQ(ref.size(), got.size()) << "bs=" << batchSize;
    for (size_t i = 0; i < ref.size(); ++i) {
        const auto &a = ref[i];
        const auto &b = got[i];
        ASSERT_TRUE(a.id == b.id && a.dep0 == b.dep0 && a.dep1 == b.dep1 &&
                    a.dep2 == b.dep2 && a.addr == b.addr &&
                    a.addr2 == b.addr2 && a.desc == b.desc)
            << "bs=" << batchSize << " record " << i;
    }
}

} // namespace

TEST(PackedTrace, RoundTripsRandomizedTraces)
{
    for (uint32_t seed : {1u, 2u, 3u, 42u, 1234u}) {
        const auto instrs = randomTrace(5000, seed);
        const auto packed = PackedTrace::pack(instrs);
        ASSERT_EQ(packed.size(), instrs.size());
        expectSameTrace(instrs, unpackAll(packed));
    }
}

TEST(PackedTrace, RoundTripsEmptyAndTiny)
{
    const PackedTrace empty = PackedTrace::pack({});
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.empty());
    EXPECT_TRUE(unpackAll(empty).empty());
    bool ok = false;
    EXPECT_TRUE(decodeAll(empty, 7, &ok).empty());
    EXPECT_TRUE(ok);

    const auto one = randomTrace(1, 7);
    expectSameTrace(one, unpackAll(PackedTrace::pack(one)));
}

TEST(PackedTrace, ScratchReuseProducesIdenticalEncodings)
{
    PackedTrace::Scratch scratch;
    const auto a = randomTrace(1500, 21);
    const auto b = randomTrace(800, 22);
    const auto pa1 = PackedTrace::pack(a, &scratch);
    const auto pb = PackedTrace::pack(b, &scratch);
    const auto pa2 = PackedTrace::pack(a, &scratch);
    expectSameTrace(a, unpackAll(pa1));
    expectSameTrace(b, unpackAll(pb));
    EXPECT_EQ(pa1.byteSize(), pa2.byteSize());
    expectSameTrace(unpackAll(pa1), unpackAll(pa2));
}

TEST(PackedTrace, CompressesARealKernelTrace)
{
    // Real captures across impls, widths and address kinds (heap
    // buffers, static tables, stack, multi-address gathers), each
    // captured twice from fresh workloads: once into the AoS buffer,
    // once encoded on emit (Runner::capturePacked).
    struct Case
    {
        const char *kernel; //!< registry name; null = the LUT gather
        core::Impl impl;
        int bits;
    };
    const Case cases[] = {
        {"ZL/adler32", core::Impl::Neon, 128},
        {"WA/vclip", core::Impl::Scalar, 128},
        {"LP/defilter_up", core::Impl::Auto, 128},
        {"BS/aes_encrypt", core::Impl::Neon, 128},
        {"PF/fft_forward", core::Impl::Scalar, 128},
        {"WA/audible", core::Impl::Neon, 512},
        {nullptr, core::Impl::Neon, 128},
    };
    const auto make = [](const Case &c) {
        if (!c.kernel)
            return workloads::ext::makeLutTransform(
                core::Options(), workloads::ext::LutImpl::Gather);
        const auto *spec = core::Registry::instance().find(c.kernel);
        return spec ? spec->make(core::Options())
                    : std::unique_ptr<core::Workload>();
    };
    for (const Case &c : cases) {
        const std::string what = c.kernel ? c.kernel : "LUT gather";
        auto w = make(c);
        ASSERT_NE(w, nullptr) << what;
        const auto instrs = core::Runner::capture(*w, c.impl, c.bits);
        ASSERT_FALSE(instrs.empty()) << what;

        const auto packed = PackedTrace::pack(instrs);
        const size_t aos = PackedTrace::aosBytes(instrs.size());
        // The acceptance bar is 2x; a real trace packs far tighter.
        EXPECT_LT(packed.byteSize() * 2, aos)
            << what << ": " << packed.byteSize() << " packed vs " << aos
            << " AoS bytes";
        expectSameTrace(instrs, unpackAll(packed));

        // Encode on emit is lossless: the same payload bytes as pack()
        // of the AoS capture, and the same mix as addTrace() of it.
        trace::MixStats aosMix;
        aosMix.addTrace(instrs);
        auto w2 = make(c);
        trace::MixStats mix;
        const auto emitted =
            core::Runner::capturePacked(*w2, c.impl, c.bits, &mix);
        std::string want, got;
        packed.appendPayload(&want);
        emitted.appendPayload(&got);
        EXPECT_EQ(emitted.size(), instrs.size()) << what;
        EXPECT_TRUE(want == got) << what << ": payloads differ";
        EXPECT_EQ(mix.counters(), aosMix.counters()) << what;
    }
}

TEST(PackedTrace, PayloadRoundTripsAndRejectsCorruption)
{
    const auto instrs = randomTrace(1200, 33);
    const auto packed = PackedTrace::pack(instrs);

    std::string blob;
    packed.appendPayload(&blob);

    PackedTrace back;
    ASSERT_TRUE(PackedTrace::parsePayload(
        reinterpret_cast<const uint8_t *>(blob.data()), blob.size(),
        &back));
    expectSameTrace(instrs, unpackAll(back));

    // Truncation, bit flips and short headers must all be rejected.
    PackedTrace junk;
    EXPECT_FALSE(PackedTrace::parsePayload(
        reinterpret_cast<const uint8_t *>(blob.data()), blob.size() - 1,
        &junk));
    std::string flipped = blob;
    flipped[flipped.size() / 2] = char(flipped[flipped.size() / 2] ^ 0x40);
    EXPECT_FALSE(PackedTrace::parsePayload(
        reinterpret_cast<const uint8_t *>(flipped.data()), flipped.size(),
        &junk));
    EXPECT_FALSE(PackedTrace::parsePayload(
        reinterpret_cast<const uint8_t *>(blob.data()), 4, &junk));
}

namespace
{

// Mirror of the payload header + FNV checksum, so tests can craft
// checksum-valid payloads whose *streams* are truncated or corrupt —
// the class of damage the header checksum cannot catch and the
// Cursor's checked decode must.
struct RawHeader
{
    uint64_t count;
    uint64_t mainLen;
    uint64_t multiLen;
    uint32_t descCount;
    uint32_t descSize;
    uint64_t checksum;
};

uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *b = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
payloadChecksum(const RawHeader &h, const uint8_t *body, size_t len)
{
    uint64_t c = 1469598103934665603ull;
    c = fnv1a(c, &h.count, sizeof h.count);
    c = fnv1a(c, &h.mainLen, sizeof h.mainLen);
    c = fnv1a(c, &h.multiLen, sizeof h.multiLen);
    c = fnv1a(c, &h.descCount, sizeof h.descCount);
    c = fnv1a(c, &h.descSize, sizeof h.descSize);
    return fnv1a(c, body, len);
}

/** Reassemble a payload blob from (possibly doctored) parts, with a
 *  freshly valid checksum. */
std::string
craftPayload(RawHeader h, const std::string &body)
{
    h.checksum = payloadChecksum(
        h, reinterpret_cast<const uint8_t *>(body.data()), body.size());
    std::string out(reinterpret_cast<const char *>(&h), sizeof h);
    out += body;
    return out;
}

/**
 * The checked reference nextBatch() is tested against: a plain
 * byte-wise decoder of an appendPayload() blob that shares no code with
 * the production decode tiers. Returns the records before the first
 * malformation and sets @p ok to the verdict Cursor::ok() must reach.
 */
std::vector<PackedTrace::Decoded>
referenceDecode(const std::string &blob, bool *ok)
{
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const auto *p = reinterpret_cast<const uint8_t *>(blob.data()) +
                    sizeof h + size_t(h.descCount) * h.descSize;
    const uint8_t *const end = p + h.mainLen;
    const uint8_t *mp = end;
    const uint8_t *const mend = mp + h.multiLen;
    bool bad = false;
    // A varint of at most 10 bytes that ends before the stream does.
    const auto varint = [&bad](const uint8_t *&q, const uint8_t *e) {
        uint64_t v = 0;
        for (int i = 0; i < 10 && q < e; ++i) {
            const uint8_t b = *q++;
            v |= uint64_t(b & 0x7f) << (7 * i);
            if (!(b & 0x80))
                return v;
        }
        bad = true;
        return v;
    };
    const auto delta = [&](const uint8_t *&q, const uint8_t *e) {
        const uint64_t z = varint(q, e);
        return (z >> 1) ^ (0 - (z & 1)); // zigzag, in two's complement
    };
    std::vector<PackedTrace::Decoded> out;
    uint64_t prevId = 0, prevAddr = 0;
    for (uint64_t r = 0; r < h.count; ++r) {
        PackedTrace::Decoded d{};
        const uint64_t tag = varint(p, end);
        d.id = prevId + 1;
        if (tag & 4)
            d.id += delta(p, end);
        if (tag & 8)
            d.dep0 = d.id - delta(p, end);
        if (tag & 16)
            d.dep1 = d.id - delta(p, end);
        if (tag & 32)
            d.dep2 = d.id - delta(p, end);
        if (tag & 1) {
            prevAddr += delta(p, end);
            d.addr = prevAddr;
        }
        if (tag & 2)
            d.addr2 = d.addr + delta(mp, mend);
        if (bad || (tag >> 6) >= h.descCount) {
            *ok = false;
            return out;
        }
        d.desc = uint32_t(tag >> 6);
        prevId = d.id;
        out.push_back(d);
    }
    *ok = p == end && mp == mend;
    return out;
}

/** referenceDecode() of @p t's payload. */
std::vector<PackedTrace::Decoded>
referenceDecode(const PackedTrace &t, bool *ok)
{
    std::string blob;
    t.appendPayload(&blob);
    return referenceDecode(blob, ok);
}

} // namespace

namespace
{

/**
 * The reference the record encoder is tested against, written from the
 * documented format (docs/trace.md) and sharing no code with it:
 * descriptors in first-seen order, a tag of index << 6 | flags, zigzag
 * varints, and the second address of a multi-address record in the
 * side stream. Returns the whole appendPayload() blob.
 */
std::string
referenceEncode(const std::vector<Instr> &instrs, uint32_t *descCount)
{
    const auto varint = [](std::string &out, uint64_t v) {
        do {
            const uint8_t low = uint8_t(v & 0x7f);
            v >>= 7;
            out.push_back(char(v ? low | 0x80 : low));
        } while (v);
    };
    const auto delta = [&](std::string &out, int64_t d) {
        varint(out, d < 0 ? (uint64_t(~d) << 1) | 1 : uint64_t(d) << 1);
    };
    std::map<std::string, uint32_t> index;
    std::string descs, main, multi;
    uint64_t prevId = 0, prevAddr = 0;
    for (const Instr &i : instrs) {
        // A descriptor's 16 bytes, field by field, pad byte zero.
        std::string d(16, '\0');
        std::memcpy(&d[0], &i.size, 4);
        std::memcpy(&d[4], &i.elemStride, 4);
        d[8] = char(i.cls);
        d[9] = char(i.fu);
        d[10] = char(i.latency);
        d[11] = char(i.vecBytes);
        d[12] = char(i.lanes);
        d[13] = char(i.activeLanes);
        d[14] = char(i.stride);
        const auto [it, fresh] = index.emplace(d, uint32_t(index.size()));
        if (fresh)
            descs += d;
        const bool jump = i.id != prevId + 1;
        varint(main, uint64_t(it->second) << 6 | (i.dep2 ? 32 : 0) |
                         (i.dep1 ? 16 : 0) | (i.dep0 ? 8 : 0) |
                         (jump ? 4 : 0) | (i.addr2 ? 2 : 0) |
                         (i.addr ? 1 : 0));
        if (jump)
            delta(main, int64_t(i.id - (prevId + 1)));
        for (uint64_t dep : {i.dep0, i.dep1, i.dep2})
            if (dep)
                delta(main, int64_t(i.id - dep));
        if (i.addr) {
            delta(main, int64_t(i.addr - prevAddr));
            prevAddr = i.addr;
        }
        if (i.addr2)
            delta(multi, int64_t(i.addr2 - i.addr));
        prevId = i.id;
    }
    *descCount = uint32_t(index.size());
    RawHeader h{};
    h.count = instrs.size();
    h.mainLen = main.size();
    h.multiLen = multi.size();
    h.descCount = *descCount;
    h.descSize = 16;
    return craftPayload(h, descs + main + multi);
}

/** @p instrs with every other record's storage filled with 0xff before
 *  its fields were set, so records of one shape differ in the padding
 *  byte after `stride`. */
std::vector<Instr>
withDirtyPadding(const std::vector<Instr> &instrs)
{
    std::vector<Instr> out(instrs.size());
    for (size_t k = 0; k < out.size(); k += 2)
        std::memset(static_cast<void *>(&out[k]), 0xff, sizeof(Instr));
    for (size_t k = 0; k < out.size(); ++k) {
        const Instr &i = instrs[k];
        Instr &o = out[k];
        o.id = i.id;
        o.dep0 = i.dep0;
        o.dep1 = i.dep1;
        o.dep2 = i.dep2;
        o.addr = i.addr;
        o.addr2 = i.addr2;
        o.size = i.size;
        o.elemStride = i.elemStride;
        o.cls = i.cls;
        o.fu = i.fu;
        o.latency = i.latency;
        o.vecBytes = i.vecBytes;
        o.lanes = i.lanes;
        o.activeLanes = i.activeLanes;
        o.stride = i.stride;
    }
    return out;
}

} // namespace

TEST(PackedTrace, EncodesTheDocumentedFormat)
{
    // Random shapes: thousands of descriptors, so the encoder's index
    // grows several times and tags take up to three bytes.
    const auto random = randomTrace(6000, 81);
    // Two traces back to back: the ids restart mid-stream (an id jump).
    auto twoTraces = randomTrace(2000, 83);
    const auto tail = randomTrace(1000, 85);
    twoTraces.insert(twoTraces.end(), tail.begin(), tail.end());
    const auto dirty = withDirtyPadding(twoTraces);
    const unsigned char *dirtyBytes =
        reinterpret_cast<const unsigned char *>(dirty.data());
    ASSERT_EQ(dirtyBytes[sizeof(Instr) - 1], 0xff) << "test setup";

    // One Builder for both inputs: finish() must leave it empty,
    // whatever its index grew to.
    trace::MixStats mix;
    PackedTrace::Builder builder(&mix);
    for (const auto *instrs : {&random, &dirty}) {
        uint32_t descCount = 0;
        const std::string want = referenceEncode(*instrs, &descCount);
        if (instrs == &random) {
            EXPECT_GT(descCount, 256u);
        }

        std::string packed;
        PackedTrace::pack(*instrs).appendPayload(&packed);
        EXPECT_TRUE(packed == want) << "pack() differs from the reference";

        mix = trace::MixStats();
        for (const Instr &i : *instrs)
            builder.onInstr(i);
        std::string built;
        builder.finish().appendPayload(&built);
        EXPECT_TRUE(built == want) << "Builder differs from the reference";

        trace::MixStats aosMix;
        aosMix.addTrace(*instrs);
        EXPECT_EQ(mix.counters(), aosMix.counters());
    }
}

TEST(PackedTraceChecked, CleanDecodeReportsOk)
{
    const auto instrs = randomTrace(2000, 51);
    const auto packed = PackedTrace::pack(instrs);
    bool ok = false;
    EXPECT_EQ(decodeAll(packed, PackedTrace::kBlockInstrs, &ok).size(),
              instrs.size());
    EXPECT_TRUE(ok);
}

TEST(PackedTraceChecked, RejectsTruncatedMainStream)
{
    const auto instrs = randomTrace(1500, 53);
    const auto packed = PackedTrace::pack(instrs);
    std::string blob;
    packed.appendPayload(&blob);
    ASSERT_GT(blob.size(), sizeof(RawHeader));

    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const std::string body = blob.substr(sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;

    // Chop K bytes off the end of the main stream, keep the header
    // consistent and the checksum valid: parsePayload cannot tell, so
    // the Cursor must stop cleanly (never reading out of bounds) and
    // flag the malformation instead of fabricating a full trace.
    for (size_t k = 1; k <= std::min<uint64_t>(24, h.mainLen); ++k) {
        RawHeader th = h;
        th.mainLen = h.mainLen - k;
        std::string tbody = body.substr(0, descBytes + size_t(th.mainLen));
        tbody += body.substr(descBytes + size_t(h.mainLen));
        const std::string crafted = craftPayload(th, tbody);

        PackedTrace t;
        if (!PackedTrace::parsePayload(
                reinterpret_cast<const uint8_t *>(crafted.data()),
                crafted.size(), &t))
            continue; // structural reject is fine too
        bool ok = true;
        const size_t n = decodeAll(t, 128, &ok).size();
        EXPECT_FALSE(ok) << "k=" << k;
        EXPECT_LE(n, instrs.size());
    }
}

TEST(PackedTraceChecked, FusedReplayThrowsOnTruncatedTrace)
{
    const auto instrs = randomTrace(1200, 55);
    const auto packed = PackedTrace::pack(instrs);
    std::string blob;
    packed.appendPayload(&blob);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const std::string body = blob.substr(sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;

    RawHeader th = h;
    th.mainLen = h.mainLen / 2;
    std::string tbody = body.substr(0, descBytes + size_t(th.mainLen));
    tbody += body.substr(descBytes + size_t(h.mainLen));
    const std::string crafted = craftPayload(th, tbody);
    PackedTrace t;
    ASSERT_TRUE(PackedTrace::parsePayload(
        reinterpret_cast<const uint8_t *>(crafted.data()),
        crafted.size(), &t));
    EXPECT_THROW(sim::simulateTraceMany(t, {sim::primeConfig()}, 0),
                 std::runtime_error);
}

TEST(PackedTraceChecked, RejectsTruncatedMultiStream)
{
    // Force multi-address records so the side stream is non-empty.
    auto instrs = randomTrace(800, 57);
    size_t multi = 0;
    for (auto &i : instrs)
        multi += i.addr2 != 0;
    ASSERT_GT(multi, 0u);

    const auto packed = PackedTrace::pack(instrs);
    std::string blob;
    packed.appendPayload(&blob);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    ASSERT_GT(h.multiLen, 0u);
    const std::string body = blob.substr(sizeof h);

    RawHeader th = h;
    th.multiLen = 0;
    const std::string crafted = craftPayload(
        th, body.substr(0, body.size() - size_t(h.multiLen)));
    PackedTrace t;
    if (PackedTrace::parsePayload(
            reinterpret_cast<const uint8_t *>(crafted.data()),
            crafted.size(), &t)) {
        bool ok = true;
        decodeAll(t, 128, &ok);
        EXPECT_FALSE(ok);
    }
}

TEST(PackedTraceChecked, RejectsLyingInstructionCount)
{
    const auto instrs = randomTrace(600, 59);
    const auto packed = PackedTrace::pack(instrs);
    std::string blob;
    packed.appendPayload(&blob);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const std::string body = blob.substr(sizeof h);

    for (int64_t delta : {int64_t(-1), int64_t(1), int64_t(100)}) {
        RawHeader th = h;
        th.count = uint64_t(int64_t(h.count) + delta);
        const std::string crafted = craftPayload(th, body);
        PackedTrace t;
        ASSERT_TRUE(PackedTrace::parsePayload(
            reinterpret_cast<const uint8_t *>(crafted.data()),
            crafted.size(), &t));
        bool ok = true;
        decodeAll(t, 128, &ok);
        // Count understates -> trailing stream bytes; overstates ->
        // stream runs dry early. Both are malformations.
        EXPECT_FALSE(ok) << "delta=" << delta;
    }
}

TEST(PackedTraceChecked, FuzzedStreamBytesNeverCrashTheDecoder)
{
    const auto instrs = randomTrace(1000, 61);
    const auto packed = PackedTrace::pack(instrs);
    std::string blob;
    packed.appendPayload(&blob);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;
    const std::string body = blob.substr(sizeof h);

    std::mt19937_64 rng(63);
    for (int round = 0; round < 64; ++round) {
        std::string fuzzed = body;
        // Corrupt 1-4 bytes inside the varint streams (checksum is
        // recomputed, so only the Cursor's own checking stands between
        // the damage and the consumer).
        const int flips = 1 + int(rng() % 4);
        for (int f = 0; f < flips; ++f) {
            const size_t at =
                descBytes + size_t(rng() % (fuzzed.size() - descBytes));
            fuzzed[at] = char(uint8_t(fuzzed[at]) ^ uint8_t(1 + rng() % 255));
        }
        const std::string crafted = craftPayload(h, fuzzed);
        PackedTrace t;
        if (!PackedTrace::parsePayload(
                reinterpret_cast<const uint8_t *>(crafted.data()),
                crafted.size(), &t))
            continue;
        // Decoding must terminate without reading out of bounds and
        // never fabricate more records than advertised; a stream the
        // cursor calls ok must have decoded exactly `count`.
        bool ok = false;
        const auto got = decodeAll(t, 128, &ok);
        for (const auto &d : got)
            ASSERT_LT(d.desc, t.descCount());
        EXPECT_LE(got.size(), size_t(h.count));
        if (ok) {
            EXPECT_EQ(got.size(), size_t(h.count));
        }
    }
}

TEST(PackedTraceBatch, MatchesTheReferenceDecoder)
{
    for (uint32_t seed : {1u, 42u, 77u}) {
        for (size_t n : {size_t(0), size_t(1), size_t(257), size_t(6000)}) {
            const auto instrs = randomTrace(n, seed);
            const auto packed = PackedTrace::pack(instrs);

            bool refOk = false;
            const auto ref = referenceDecode(packed, &refOk);
            ASSERT_TRUE(refOk);
            ASSERT_EQ(ref.size(), n);

            for (size_t bs : {size_t(1), size_t(13), size_t(128),
                              size_t(100000)}) {
                bool ok = false;
                const auto got = decodeAll(packed, bs, &ok);
                EXPECT_TRUE(ok) << "bs=" << bs << " n=" << n;
                expectSameDecoded(ref, got, bs);
            }
        }
    }
}

TEST(PackedTraceBatch, MatchesOnARealKernelTrace)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());
    const auto packed = PackedTrace::pack(instrs);

    bool refOk = false;
    const auto ref = referenceDecode(packed, &refOk);
    ASSERT_TRUE(refOk);

    bool ok = false;
    const auto got = decodeAll(packed, 128, &ok);
    EXPECT_TRUE(ok);
    expectSameDecoded(ref, got, 128);
}

TEST(PackedTraceBatch, DamagedStreamsGetTheSameVerdict)
{
    // Truncations, random bit flips and over-long varints through the
    // batch decoder: it must terminate in bounds and agree with the
    // byte-wise reference on the decoded prefix AND the ok() verdict —
    // it may not turn malformed input into records (or silence) the
    // reference would not.
    const auto instrs = randomTrace(900, 71);
    const auto packed = PackedTrace::pack(instrs);
    std::string blob;
    packed.appendPayload(&blob);
    RawHeader h;
    std::memcpy(&h, blob.data(), sizeof h);
    const size_t descBytes = size_t(h.descCount) * h.descSize;
    const std::string body = blob.substr(sizeof h);

    std::vector<std::string> crafted;
    for (size_t k = 1; k <= std::min<uint64_t>(16, h.mainLen); ++k) {
        RawHeader th = h;
        th.mainLen = h.mainLen - k;
        std::string tbody = body.substr(0, descBytes + size_t(th.mainLen));
        tbody += body.substr(descBytes + size_t(h.mainLen));
        crafted.push_back(craftPayload(th, tbody));
    }
    std::mt19937_64 rng(73);
    for (int round = 0; round < 48; ++round) {
        std::string fuzzed = body;
        const int flips = 1 + int(rng() % 4);
        for (int f = 0; f < flips; ++f) {
            const size_t at =
                descBytes + size_t(rng() % (fuzzed.size() - descBytes));
            fuzzed[at] =
                char(uint8_t(fuzzed[at]) ^ uint8_t(1 + rng() % 255));
        }
        crafted.push_back(craftPayload(h, fuzzed));
    }
    // One all-zero descriptor and a first record whose tag is an
    // 11-byte varint (ten continuation bytes, then 0), alone or before
    // 100 one-byte records, under a count one past the records
    // encoded. A decoder that stops after 10 bytes without flagging
    // reads the 11th byte as a record and accepts the second stream.
    const size_t firstOverlong = crafted.size();
    for (size_t trailing : {size_t(0), size_t(100)}) {
        RawHeader oh = h;
        oh.count = 2 + trailing;
        oh.descCount = 1;
        oh.mainLen = 11 + trailing;
        oh.multiLen = 0;
        std::string obody(size_t(h.descSize), '\0');
        obody += std::string(10, '\x80');
        obody += std::string(1 + trailing, '\0');
        crafted.push_back(craftPayload(oh, obody));
    }

    for (size_t c = 0; c < crafted.size(); ++c) {
        PackedTrace t;
        if (!PackedTrace::parsePayload(
                reinterpret_cast<const uint8_t *>(crafted[c].data()),
                crafted[c].size(), &t)) {
            // Structural reject: nothing reaches the decoders.
            ASSERT_LT(c, firstOverlong) << "case " << c;
            continue;
        }

        bool refOk = false;
        const auto ref = referenceDecode(crafted[c], &refOk);
        for (size_t bs : {size_t(7), size_t(128)}) {
            bool ok = false;
            const auto got = decodeAll(t, bs, &ok);
            EXPECT_EQ(refOk, ok) << "bs=" << bs << " case " << c;
            expectSameDecoded(ref, got, bs);
        }
        if (c >= firstOverlong) {
            bool ok = true;
            decodeAll(t, 128, &ok);
            EXPECT_FALSE(ok) << "case " << c;
            EXPECT_THROW(sim::simulateTraceMany(t, {sim::primeConfig()}, 0),
                         std::runtime_error)
                << "case " << c;
        }
    }
}

TEST(PackedReplay, PackedSimulationMatchesAoS)
{
    const auto instrs = randomTrace(4000, 17);
    const auto packed = PackedTrace::pack(instrs);
    for (const auto &cfg : threeCores()) {
        const auto aos = sim::simulateTrace(instrs, cfg, 1);
        const auto pkd = sim::simulateTrace(packed, cfg, 1);
        expectSameResult(aos, pkd);
    }
}

TEST(PackedReplay, SimulateTraceManyMatchesSeparatePasses)
{
    const auto instrs = randomTrace(4000, 19);
    const auto packed = PackedTrace::pack(instrs);
    const auto cfgs = threeCores();

    for (int warmup : {0, 1, 2}) {
        const auto many = sim::simulateTraceMany(packed, cfgs, warmup);
        ASSERT_EQ(many.size(), cfgs.size());
        for (size_t i = 0; i < cfgs.size(); ++i) {
            const auto one = sim::simulateTrace(instrs, cfgs[i], warmup);
            expectSameResult(one, many[i]);
        }
    }
}
