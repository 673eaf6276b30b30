#include "trace/packed.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SWAN_PACKED_HAVE_MMAP 1
#endif

namespace swan::trace
{

namespace
{

// --- per-record tag layout --------------------------------------------
// tag = descIndex << 6 | presence flags. A field whose flag is clear
// contributes zero stream bytes and zero decode work: the common
// sequential id costs nothing, and each absent dependence costs
// nothing — a typical scalar ALU record is tag + one dep distance,
// two bytes total.
constexpr uint64_t kHasAddr = 1;
constexpr uint64_t kHasMulti = 2;
constexpr uint64_t kHasIdJump = 4;  //!< id != prevId + 1
constexpr uint64_t kHasDep0 = 8;
constexpr uint64_t kHasDep1 = 16;
constexpr uint64_t kHasDep2 = 32;
constexpr int kTagFlagBits = 6;

/** Longest possible varint, and main-stream record (6 varints). */
constexpr size_t kMaxVarintBytes = 10;
constexpr ptrdiff_t kMaxRecordBytes = 6 * kMaxVarintBytes;

// --- varint / zigzag primitives ---------------------------------------

inline uint64_t
zigzag(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return int64_t(v >> 1) ^ -int64_t(v & 1);
}

/** Write @p v at @p p; @return the byte after it. */
inline uint8_t *
putVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
}

/** Strip each byte's continuation bit and fold the 7-bit groups of a
 *  masked little-endian word into one integer (up to 56 bits). */
inline uint64_t
fold7(uint64_t w)
{
    uint64_t x = (w & 0x007f007f007f007full) |
                 ((w & 0x7f007f007f007f00ull) >> 1);
    x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
    return (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
}

/**
 * Unchecked word-at-a-time varint read. One 8-byte load covers every
 * varint the encoder emits for the values seen in practice: the length
 * comes from the first clear continuation bit (ctz on the inverted msb
 * mask), and the payload bits fold together without a per-byte loop —
 * no data-dependent branches for anything up to 8 encoded bytes.
 * Reads at most 10 bytes and, like getVarint(), sets @p *bad when the
 * 10th still continues, so a record's verdict does not depend on how
 * far it sits from the stream end. Only used when the caller has
 * already established that a maximal record cannot run past the end
 * of the stream.
 */
inline uint64_t
rdFast(const uint8_t *&p, bool *bad)
{
    uint64_t w;
    std::memcpy(&w, p, 8);
    if (__builtin_expect(!(w & 0x80), 1)) {
        ++p;
        return w & 0x7f;
    }
    const uint64_t stops = ~w & 0x8080808080808080ull;
    if (__builtin_expect(stops != 0, 1)) {
        // Bytes 0..len-1 belong to this varint (2 <= len <= 8).
        const int len = (__builtin_ctzll(stops) >> 3) + 1;
        p += len;
        return fold7(w & (~0ull >> (64 - 8 * len)));
    }
    // 9- or 10-byte varint: all eight loaded bytes are continuation
    // bytes; fold their 56 payload bits and finish byte-wise.
    p += 8;
    uint64_t v = fold7(w & 0x7f7f7f7f7f7f7f7full);
    int shift = 56;
    while (true) {
        const uint64_t b = *p++;
        v |= (b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 64) {
            *bad = true;
            return v;
        }
    }
}

/**
 * Checked byte-wise varint read: never reads at or past @p end, and
 * sets @p *bad (leaves it untouched otherwise) when the varint is
 * truncated by the stream end or over-long (> 10 encoded bytes —
 * something the encoder never emits).
 */
inline uint64_t
getVarint(const uint8_t *&p, const uint8_t *end, bool *bad)
{
    uint64_t v = 0;
    int shift = 0;
    while (p < end) {
        const uint8_t b = *p++;
        if (shift < 64)
            v |= uint64_t(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 70) {
            *bad = true;
            return v;
        }
    }
    *bad = true;
    return v;
}

// --- descriptor index ---------------------------------------------------

/** The two 64-bit words of a Desc: its index key. */
struct ShapeKey
{
    uint64_t lo, hi;

    bool operator==(const ShapeKey &) const = default;
};

/**
 * @p i's shape bytes (size .. stride) as the words of the Desc they
 * make, pad byte zero. The second word is loaded one byte early and
 * shifted, so Instr's trailing padding byte, whose value is
 * indeterminate, is never read.
 */
inline ShapeKey
shapeKey(const Instr &i)
{
    const auto *b =
        reinterpret_cast<const unsigned char *>(&i) + offsetof(Instr, size);
    ShapeKey k;
    std::memcpy(&k.lo, b, 8);
    std::memcpy(&k.hi, b + 7, 8);
    k.hi = std::endian::native == std::endian::little ? k.hi >> 8
                                                      : k.hi << 8;
    return k;
}

/** Multiplicative hash; the slot is its top bits. */
inline uint64_t
slotHash(const ShapeKey &k)
{
    return ((k.lo * 0x9e3779b97f4a7c15ull) ^ k.hi) * 0xbf58476d1ce4e5b9ull;
}

constexpr uint32_t kEmptySlot = ~0u;
/** 512 slots: the table first grows at its 257th descriptor. */
constexpr int kInitialSlotBits = 9;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *b = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

// --- Buf ---------------------------------------------------------------

PackedTrace::Buf::Buf(size_t n) : n_(n)
{
    if (n == 0)
        return;
#ifdef SWAN_PACKED_HAVE_MMAP
    void *p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
        p_ = static_cast<uint8_t *>(p);
        mapped_ = true;
        return;
    }
#endif
    p_ = new uint8_t[n](); // zero-initialized like the mapping
}

void
PackedTrace::Buf::release()
{
    if (!p_)
        return;
#ifdef SWAN_PACKED_HAVE_MMAP
    if (mapped_) {
        ::munmap(p_, n_);
        p_ = nullptr;
        n_ = 0;
        return;
    }
#endif
    delete[] p_;
    p_ = nullptr;
    n_ = 0;
}

// --- encode ------------------------------------------------------------

PackedTrace::Builder::Builder(MixStats *mix)
    : slots_(size_t(1) << kInitialSlotBits, kEmptySlot),
      slotShift_(64 - kInitialSlotBits), mix_(mix)
{
}

void
PackedTrace::Builder::Stream::grow(size_t n)
{
    const size_t want = std::max({cap * 2, len + n, size_t(4096)});
    auto bigger = std::make_unique_for_overwrite<uint8_t[]>(want);
    if (len)
        std::memcpy(bigger.get(), data.get(), len);
    data = std::move(bigger);
    cap = want;
}

void
PackedTrace::Builder::growIndex()
{
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    slots_.resize(slots_.size() * 2, kEmptySlot);
    --slotShift_;
    const size_t mask = slots_.size() - 1;
    for (uint32_t idx = 0; idx < descs_.size(); ++idx) {
        size_t s =
            size_t(slotHash(std::bit_cast<ShapeKey>(descs_[idx])) >>
                   slotShift_);
        while (slots_[s] != kEmptySlot)
            s = (s + 1) & mask;
        slots_[s] = idx;
    }
}

uint32_t
PackedTrace::Builder::insertDesc(const Desc &d, size_t slot)
{
    const uint32_t idx = uint32_t(descs_.size());
    descs_.push_back(d);
    uses_.push_back(0);
    slots_[slot] = idx;
    if (descs_.size() * 2 > slots_.size())
        growIndex();
    return idx;
}

inline uint32_t
PackedTrace::Builder::descIndex(const Instr &i)
{
    const ShapeKey k = shapeKey(i);
    const size_t mask = slots_.size() - 1;
    for (size_t s = size_t(slotHash(k) >> slotShift_);; s = (s + 1) & mask) {
        const uint32_t idx = slots_[s];
        if (idx == kEmptySlot)
            return insertDesc(std::bit_cast<Desc>(k), s);
        if (std::bit_cast<ShapeKey>(descs_[idx]) == k)
            return idx;
    }
}

void
PackedTrace::Builder::add(const Instr &i)
{
    // Fields into locals first: the byte stores below may alias them.
    const uint64_t id = i.id, dep0 = i.dep0, dep1 = i.dep1, dep2 = i.dep2,
                   addr = i.addr, addr2 = i.addr2;
    const uint32_t idx = descIndex(i);
    ++uses_[idx];

    uint64_t flags = 0;
    if (addr != 0)
        flags |= kHasAddr;
    if (addr2 != 0)
        flags |= kHasMulti;
    if (id != prevId_ + 1)
        flags |= kHasIdJump;
    if (dep0 != 0)
        flags |= kHasDep0;
    if (dep1 != 0)
        flags |= kHasDep1;
    if (dep2 != 0)
        flags |= kHasDep2;
    uint8_t *p = main_.room(kMaxRecordBytes);
    p = putVarint(p, (uint64_t(idx) << kTagFlagBits) | flags);
    if (flags & kHasIdJump)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(prevId_ + 1)));
    if (flags & kHasDep0)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(dep0)));
    if (flags & kHasDep1)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(dep1)));
    if (flags & kHasDep2)
        p = putVarint(p, zigzag(int64_t(id) - int64_t(dep2)));
    if (flags & kHasAddr) {
        p = putVarint(p, zigzag(int64_t(addr - prevAddr_)));
        prevAddr_ = addr;
    }
    main_.len = size_t(p - main_.data.get());
    if (flags & kHasMulti) {
        uint8_t *m = multi_.room(kMaxVarintBytes);
        m = putVarint(m, zigzag(int64_t(addr2 - addr)));
        multi_.len = size_t(m - multi_.data.get());
    }
    prevId_ = id;
    ++count_;
}

PackedTrace
PackedTrace::Builder::finish()
{
    PackedTrace t;
    const size_t descBytes = descs_.size() * sizeof(Desc);
    t.buf_ = Buf(descBytes + main_.len + multi_.len);
    uint8_t *p = t.buf_.data();
    if (descBytes)
        std::memcpy(p, descs_.data(), descBytes);
    if (main_.len)
        std::memcpy(p + descBytes, main_.data.get(), main_.len);
    if (multi_.len)
        std::memcpy(p + descBytes + main_.len, multi_.data.get(),
                    multi_.len);
    t.count_ = count_;
    t.mainLen_ = main_.len;
    t.multiLen_ = multi_.len;
    t.descCount_ = uint32_t(descs_.size());
    if (mix_) {
        Instr shape;
        for (uint32_t d = 0; d < t.descCount_; ++d) {
            t.expandDesc(d, &shape);
            mix_->add(shape, uses_[d]);
        }
    }

    main_.len = 0;
    multi_.len = 0;
    descs_.clear();
    uses_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    prevId_ = 0;
    prevAddr_ = 0;
    count_ = 0;
    return t;
}

PackedTrace
PackedTrace::pack(const std::vector<Instr> &instrs)
{
    Builder b;
    return pack(instrs, &b);
}

PackedTrace
PackedTrace::pack(const std::vector<Instr> &instrs, Scratch *scratch)
{
    for (const Instr &i : instrs)
        scratch->add(i);
    return scratch->finish();
}

// --- decode ------------------------------------------------------------

PackedTrace::Cursor::Cursor(const PackedTrace &trace)
    : trace_(&trace), p_(trace.mainStream()), end_(p_ + trace.mainLen_),
      mp_(trace.multiStream()), mend_(mp_ + trace.multiLen_),
      left_(trace.count_)
{
}

/*
 * The fused replay engine's decode kernel, portable 64-bit SWAR, in
 * two tiers: the unchecked word-at-a-time rdFast() while a maximal
 * record still fits before the stream end, and the checked byte-wise
 * getVarint() near it. Both reject the same malformations, so the
 * decoded records and the ok() verdict do not depend on a record's
 * distance from the stream end. tests/test_trace_packed.cc compares
 * both with a plain byte-wise decoder's on intact, truncated, fuzzed
 * and over-long-varint streams.
 */
size_t
PackedTrace::Cursor::nextBatch(Decoded *out, size_t max)
{
    if (!trace_ || left_ == 0)
        return 0;
    // The decode recurrence lives in registers for the whole batch;
    // members are written back once on every exit path.
    const uint8_t *p = p_;
    const uint8_t *const end = end_;
    const uint8_t *mp = mp_;
    const uint8_t *const mend = mend_;
    const uint32_t descCount = trace_->descCount_;
    uint64_t prevId = prevId_;
    uint64_t prevAddr = prevAddr_;
    uint64_t left = left_;
    bool bad = false;
    size_t n = 0;
    while (n < max && left) {
        uint64_t tag, id, dep0 = 0, dep1 = 0, dep2 = 0, addr = 0,
                          addr2 = 0;
        // One field sequence over either read.
        bool tb = false;
        const auto fields = [&](auto rd) {
            tag = rd();
            id = prevId + 1;
            if (tag & kHasIdJump)
                id = uint64_t(int64_t(id) + unzigzag(rd()));
            if (tag & kHasDep0)
                dep0 = uint64_t(int64_t(id) - unzigzag(rd()));
            if (tag & kHasDep1)
                dep1 = uint64_t(int64_t(id) - unzigzag(rd()));
            if (tag & kHasDep2)
                dep2 = uint64_t(int64_t(id) - unzigzag(rd()));
            if (tag & kHasAddr) {
                prevAddr += uint64_t(unzigzag(rd()));
                addr = prevAddr;
            }
        };
        if (__builtin_expect(end - p >= kMaxRecordBytes, 1))
            fields([&] { return rdFast(p, &tb); });
        else
            fields([&] { return getVarint(p, end, &tb); });
        // The multi-address side stream is always read checked: it
        // may be empty.
        if (!tb && (tag & kHasMulti))
            addr2 = uint64_t(int64_t(addr) +
                             unzigzag(getVarint(mp, mend, &tb)));
        if (tb) {
            bad = true;
            break;
        }
        prevId = id;
        const uint64_t idx = tag >> kTagFlagBits;
        if (__builtin_expect(idx >= descCount, 0)) {
            bad = true;
            break;
        }
        --left;
        Decoded &o = out[n++];
        o.id = id;
        o.dep0 = dep0;
        o.dep1 = dep1;
        o.dep2 = dep2;
        o.addr = addr;
        o.addr2 = addr2;
        o.desc = uint32_t(idx);
    }
    p_ = p;
    mp_ = mp;
    prevId_ = prevId;
    prevAddr_ = prevAddr;
    if (bad) {
        bad_ = true;
        left_ = 0;
    } else {
        left_ = left;
    }
    return n;
}

void
PackedTrace::expandDesc(uint32_t idx, Instr *out) const
{
    const Desc &d = descs()[idx];
    *out = Instr{};
    out->size = d.size;
    out->elemStride = d.elemStride;
    out->cls = InstrClass(d.cls);
    out->fu = Fu(d.fu);
    out->latency = d.latency;
    out->vecBytes = d.vecBytes;
    out->lanes = d.lanes;
    out->activeLanes = d.activeLanes;
    out->stride = StrideKind(d.stride);
}

// --- payload (the sweep cache's .swtp entries and trace dumps) ---------

namespace
{

/** Payload header: everything needed to rebuild the PackedTrace. */
struct PayloadHeader
{
    uint64_t count;
    uint64_t mainLen;
    uint64_t multiLen;
    uint32_t descCount;
    uint32_t descSize; //!< sizeof(Desc) at write time (layout guard)
    uint64_t checksum; //!< FNV-1a over the body bytes
};

} // namespace

namespace
{

/** Checksum covering the header fields (checksum itself excluded)
 *  and the body, so a corrupted `count` is rejected too. */
uint64_t
payloadChecksum(const PayloadHeader &h, const uint8_t *body,
                size_t body_len)
{
    uint64_t c = kFnvOffset;
    c = fnv1a(c, &h.count, sizeof h.count);
    c = fnv1a(c, &h.mainLen, sizeof h.mainLen);
    c = fnv1a(c, &h.multiLen, sizeof h.multiLen);
    c = fnv1a(c, &h.descCount, sizeof h.descCount);
    c = fnv1a(c, &h.descSize, sizeof h.descSize);
    return fnv1a(c, body, body_len);
}

PayloadHeader
headerFor(uint64_t count, uint64_t main_len, uint64_t multi_len,
          uint32_t desc_count, const uint8_t *body, size_t body_len,
          uint32_t desc_size)
{
    PayloadHeader h{};
    h.count = count;
    h.mainLen = main_len;
    h.multiLen = multi_len;
    h.descCount = desc_count;
    h.descSize = desc_size;
    h.checksum = payloadChecksum(h, body, body_len);
    return h;
}

} // namespace

void
PackedTrace::appendPayloadHeader(std::string *out) const
{
    const PayloadHeader h =
        headerFor(count_, mainLen_, multiLen_, descCount_, buf_.data(),
                  buf_.size(), sizeof(Desc));
    out->append(reinterpret_cast<const char *>(&h), sizeof h);
}

void
PackedTrace::appendPayload(std::string *out) const
{
    appendPayloadHeader(out);
    if (buf_.size())
        out->append(reinterpret_cast<const char *>(buf_.data()),
                    buf_.size());
}

bool
PackedTrace::parsePayload(const uint8_t *data, size_t len,
                          PackedTrace *out, std::string *error)
{
    const auto reject = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    PayloadHeader h;
    if (len < sizeof h)
        return reject("truncated payload header");
    std::memcpy(&h, data, sizeof h);
    if (h.descSize != sizeof(Desc))
        return reject("descriptor layout of another build");
    const size_t descBytes = size_t(h.descCount) * sizeof(Desc);
    const size_t bodyLen = descBytes + h.mainLen + h.multiLen;
    if (h.mainLen > len || h.multiLen > len || descBytes > len ||
        len - sizeof h < bodyLen)
        return reject("truncated payload body");
    if (len - sizeof h != bodyLen)
        return reject("trailing bytes after the payload");
    const uint8_t *body = data + sizeof h;
    if (payloadChecksum(h, body, bodyLen) != h.checksum)
        return reject("payload checksum mismatch");
    // Validate every descriptor's enums once, so decoding never has to.
    for (uint32_t i = 0; i < h.descCount; ++i) {
        Desc d;
        std::memcpy(&d, body + size_t(i) * sizeof(Desc), sizeof(Desc));
        if (d.cls >= uint8_t(InstrClass::NumClasses) ||
            d.fu >= uint8_t(Fu::NumFus) ||
            d.stride >= uint8_t(StrideKind::NumKinds))
            return reject("descriptor out of range");
    }
    PackedTrace t;
    t.buf_ = Buf(bodyLen);
    if (bodyLen)
        std::memcpy(t.buf_.data(), body, bodyLen);
    t.count_ = h.count;
    t.mainLen_ = h.mainLen;
    t.multiLen_ = h.multiLen;
    t.descCount_ = h.descCount;
    *out = std::move(t);
    return true;
}

} // namespace swan::trace
