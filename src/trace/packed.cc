#include "trace/packed.hh"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define SWAN_PACKED_HAVE_MMAP 1
#endif

namespace swan::trace
{

using packed_detail::kHasAddr;
using packed_detail::kHasDep0;
using packed_detail::kHasDep1;
using packed_detail::kHasDep2;
using packed_detail::kHasIdJump;
using packed_detail::kHasMulti;
using packed_detail::kTagFlagBits;

namespace
{

// --- varint / zigzag encode primitives --------------------------------
// (The decode side lives in packed_detail in the header, shared with
// the fused replay engine's inline cursor.)

inline uint64_t
zigzag(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

inline void
putVarint(std::string &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(char(uint8_t(v) | 0x80));
        v >>= 7;
    }
    out.push_back(char(uint8_t(v)));
}

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

// --- pack --------------------------------------------------------------

void
PackedTrace::assemble(const Desc *descs, uint32_t desc_count,
                      const std::string &main, const std::string &multi,
                      uint64_t count)
{
    const size_t descBytes = size_t(desc_count) * sizeof(Desc);
    buf_ = Buf(descBytes + main.size() + multi.size());
    uint8_t *p = buf_.data();
    if (descBytes)
        std::memcpy(p, descs, descBytes);
    if (!main.empty())
        std::memcpy(p + descBytes, main.data(), main.size());
    if (!multi.empty())
        std::memcpy(p + descBytes + main.size(), multi.data(),
                    multi.size());
    count_ = count;
    mainLen_ = main.size();
    multiLen_ = multi.size();
    descCount_ = desc_count;
}

// Inlined into pack()'s loop, so its delta bases live in registers.
[[gnu::always_inline]] inline void
PackedTrace::encode(Scratch &s, uint64_t &prevId, uint64_t &prevAddr,
                    const Instr &i)
{
    Desc d;
    d.size = i.size;
    d.elemStride = i.elemStride;
    d.cls = uint8_t(i.cls);
    d.fu = uint8_t(i.fu);
    d.latency = i.latency;
    d.vecBytes = i.vecBytes;
    d.lanes = i.lanes;
    d.activeLanes = i.activeLanes;
    d.stride = uint8_t(i.stride);

    // Find-or-insert via hash with an exact-match chain, so a hash
    // collision can never alias two different descriptors.
    const uint64_t h = fnv1a(kFnvOffset, &d, sizeof d);
    auto it = s.index.find(h);
    int32_t idx = it == s.index.end() ? -1 : int32_t(it->second);
    while (idx >= 0 &&
           std::memcmp(&s.descs[size_t(idx)], &d, sizeof d) != 0)
        idx = s.chain[size_t(idx)];
    if (idx < 0) {
        idx = int32_t(s.descs.size());
        s.descs.push_back(d);
        s.chain.push_back(it == s.index.end() ? -1 : int32_t(it->second));
        s.index[h] = uint32_t(idx);
    }

    uint64_t flags = 0;
    if (i.addr != 0)
        flags |= kHasAddr;
    if (i.addr2 != 0)
        flags |= kHasMulti;
    if (i.id != prevId + 1)
        flags |= kHasIdJump;
    if (i.dep0 != 0)
        flags |= kHasDep0;
    if (i.dep1 != 0)
        flags |= kHasDep1;
    if (i.dep2 != 0)
        flags |= kHasDep2;
    putVarint(s.main, (uint64_t(uint32_t(idx)) << kTagFlagBits) | flags);
    if (flags & kHasIdJump)
        putVarint(s.main, zigzag(int64_t(i.id) - int64_t(prevId + 1)));
    prevId = i.id;
    if (flags & kHasDep0)
        putVarint(s.main, zigzag(int64_t(i.id) - int64_t(i.dep0)));
    if (flags & kHasDep1)
        putVarint(s.main, zigzag(int64_t(i.id) - int64_t(i.dep1)));
    if (flags & kHasDep2)
        putVarint(s.main, zigzag(int64_t(i.id) - int64_t(i.dep2)));
    if (flags & kHasAddr) {
        putVarint(s.main, zigzag(int64_t(i.addr - prevAddr)));
        prevAddr = i.addr;
    }
    if (flags & kHasMulti)
        putVarint(s.multi, zigzag(int64_t(i.addr2 - i.addr)));
}

PackedTrace
PackedTrace::pack(const std::vector<Instr> &instrs)
{
    Scratch scratch;
    return pack(instrs, &scratch);
}

PackedTrace
PackedTrace::pack(const std::vector<Instr> &instrs, Scratch *scratch)
{
    Scratch &s = *scratch;
    s.clear();
    s.main.reserve(instrs.size() * 8);
    uint64_t prevId = 0;
    uint64_t prevAddr = 0;
    for (const Instr &i : instrs)
        encode(s, prevId, prevAddr, i);
    PackedTrace t;
    t.assemble(s.descs.data(), uint32_t(s.descs.size()), s.main, s.multi,
               instrs.size());
    return t;
}

void
PackedTrace::Builder::add(const Instr &i)
{
    if (mix_)
        mix_->onInstr(i);
    encode(s_, prevId_, prevAddr_, i);
    ++count_;
}

PackedTrace
PackedTrace::Builder::finish()
{
    PackedTrace t;
    t.assemble(s_.descs.data(), uint32_t(s_.descs.size()), s_.main, s_.multi,
               count_);
    s_.clear();
    prevId_ = 0;
    prevAddr_ = 0;
    count_ = 0;
    return t;
}

// --- decode ------------------------------------------------------------

PackedTrace::Cursor::Cursor(const PackedTrace &trace) : trace_(&trace)
{
    reset();
}

void
PackedTrace::Cursor::reset()
{
    if (!trace_)
        return;
    p_ = trace_->mainStream();
    end_ = p_ + trace_->mainLen_;
    mp_ = trace_->multiStream();
    mend_ = mp_ + trace_->multiLen_;
    prevId_ = 0;
    prevAddr_ = 0;
    left_ = trace_->count_;
    bad_ = false;
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

size_t
PackedTrace::Cursor::next(Instr *out, size_t max)
{
    size_t n = 0;
    const Desc *descs = trace_ ? trace_->descs() : nullptr;
    Decoded d;
    while (n < max && next(d)) {
        const Desc &dd = descs[d.desc];
        Instr &o = out[n++];
        o.id = d.id;
        o.dep0 = d.dep0;
        o.dep1 = d.dep1;
        o.dep2 = d.dep2;
        o.addr = d.addr;
        o.addr2 = d.addr2;
        o.size = dd.size;
        o.elemStride = dd.elemStride;
        o.cls = InstrClass(dd.cls);
        o.fu = Fu(dd.fu);
        o.latency = dd.latency;
        o.vecBytes = dd.vecBytes;
        o.lanes = dd.lanes;
        o.activeLanes = dd.activeLanes;
        o.stride = StrideKind(dd.stride);
    }
    return n;
}

std::vector<Instr>
PackedTrace::unpack() const
{
    std::vector<Instr> out(size());
    Cursor cur(*this);
    const size_t n = cur.next(out.data(), out.size());
    out.resize(n);
    return out;
}

void
PackedTrace::deliver(Sink &sink) const
{
    Instr block[kBlockInstrs];
    Cursor cur(*this);
    size_t n;
    while ((n = cur.next(block, kBlockInstrs)) != 0)
        sink.onBlock(block, n);
}

// --- payload (the on-disk sweep trace tier) ----------------------------

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
                          PackedTrace *out)
{
    PayloadHeader h;
    if (len < sizeof h)
        return false;
    std::memcpy(&h, data, sizeof h);
    if (h.descSize != sizeof(Desc))
        return false;
    const size_t descBytes = size_t(h.descCount) * sizeof(Desc);
    const size_t bodyLen = descBytes + h.mainLen + h.multiLen;
    if (h.mainLen > len || h.multiLen > len || descBytes > len ||
        len != sizeof h + bodyLen)
        return false;
    const uint8_t *body = data + sizeof h;
    if (payloadChecksum(h, body, bodyLen) != h.checksum)
        return false;
    // Validate every descriptor's enums once, so decoding never has to.
    for (uint32_t i = 0; i < h.descCount; ++i) {
        Desc d;
        std::memcpy(&d, body + size_t(i) * sizeof(Desc), sizeof(Desc));
        if (d.cls >= uint8_t(InstrClass::NumClasses) ||
            d.fu >= uint8_t(Fu::NumFus) ||
            d.stride >= uint8_t(StrideKind::NumKinds))
            return false;
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
