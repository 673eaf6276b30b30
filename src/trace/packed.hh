/**
 * @file
 * Compact in-memory trace encoding. The sweep methodology is "capture
 * one dynamic trace, replay it against many core configurations", so
 * buffered traces dominate the process's peak memory and replay
 * throughput dominates every figure's wall clock. PackedTrace encodes
 * the 64-byte AoS trace::Instr stream into a byte stream of typically
 * 2-4 bytes per instruction:
 *
 *  - the per-instruction *shape* (class, functional unit, latency,
 *    vector geometry, stride kind, access size, element stride) is
 *    deduplicated into a small side table of descriptors — a dynamic
 *    trace has few distinct op sites — so each record starts with a
 *    one-byte tag of descriptor index plus field-presence flags;
 *  - fields at their common value cost nothing: a sequential id
 *    (the recorder's 1,2,3,... numbering) and each absent dependence
 *    contribute zero bytes;
 *  - present dependences are stored as varint producer *distances*
 *    (id - dep), which are small for the register-renamed windows the
 *    simulator models;
 *  - memory addresses are delta-encoded against the previous accessed
 *    address; the rare second address of multi-address records
 *    (Gather/Scatter/LdS/StS) lives in a side stream.
 *
 * The encoding is lossless: unpack()/iteration reconstructs the exact
 * Instr sequence, so replaying a packed trace is byte-identical to
 * replaying the AoS buffer it came from.
 *
 * Capture encodes on emit: a Recorder streams straight into a Builder
 * (counting the trace's MixStats on the way), so no capture holds the
 * 64-byte-per-instruction AoS buffer; pack() of an AoS buffer runs the
 * same record encoder and produces the same bytes.
 *
 * Storage lives in anonymous mmap regions, not the C++ heap, so a
 * finished trace's pages go back to the OS the moment it is dropped.
 */

#ifndef SWAN_TRACE_PACKED_HH
#define SWAN_TRACE_PACKED_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/instr.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

namespace swan::trace
{

/**
 * Decode primitives shared by the block decoder (packed.cc) and the
 * inline single-record Cursor path that the fused replay engine
 * (sim/core_model.cc) compiles into its step loop. Header-inline so
 * both consumers see one definition of the stream format.
 */
namespace packed_detail
{

inline int64_t
unzigzag(uint64_t v)
{
    return int64_t(v >> 1) ^ -int64_t(v & 1);
}

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

/** Longest possible main-stream record: 6 varints of up to 10 bytes. */
constexpr ptrdiff_t kMaxRecordBytes = 60;

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
 * Only used when the caller has already established that a maximal
 * record cannot run past the end of the stream.
 */
inline uint64_t
rdFast(const uint8_t *&p)
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
        if (shift >= 64)
            return v;
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

} // namespace packed_detail

/** Losslessly packed dynamic instruction trace. */
class PackedTrace
{
  private:
    /** Deduplicated per-instruction shape (the descriptor side table). */
    struct Desc
    {
        uint32_t size = 0;
        int32_t elemStride = 0;
        uint8_t cls = 0;
        uint8_t fu = 0;
        uint8_t latency = 0;
        uint8_t vecBytes = 0;
        uint8_t lanes = 0;
        uint8_t activeLanes = 0;
        uint8_t stride = 0;
        uint8_t pad = 0; //!< keeps the struct memcmp/memcpy-clean
    };
    static_assert(sizeof(Desc) == 16, "descriptor layout is part of the "
                                      "payload format");

  public:
    /** Instrs decoded per block by deliver() (16 KiB of Instr: the
     *  block buffer stays cache-resident while every core model of a
     *  multi-config replay consumes it). */
    static constexpr size_t kBlockInstrs = 256;

    PackedTrace() = default;

    /**
     * Reusable encoder working memory. Drivers that pack many traces
     * back to back pass the same Scratch every time: clear() keeps
     * capacity, so steady-state packing makes no heap allocations.
     */
    struct Scratch
    {
        std::string main;
        std::string multi;
        std::vector<Desc> descs;
        /** FNV(desc bytes) -> head of the chain into descs. */
        std::unordered_map<uint64_t, uint32_t> index;
        /** Per-desc link to the previous desc with the same hash. */
        std::vector<int32_t> chain;

        void
        clear()
        {
            main.clear();
            multi.clear();
            descs.clear();
            index.clear();
            chain.clear();
        }
    };

    /**
     * Incremental encoder: the trace grows one instruction at a time,
     * and finish() assembles it. A Recorder streaming into a Builder
     * encodes on emit; it shares pack()'s record encoder, so the bytes
     * are the same either way.
     */
    class Builder final : public Sink
    {
      public:
        /** @param mix when non-null, counts every added instruction
         *             (MixStats::addTrace of the same stream) */
        explicit Builder(MixStats *mix = nullptr) : mix_(mix) {}

        Builder(const Builder &) = delete;
        Builder &operator=(const Builder &) = delete;

        /** Append one instruction in program order. */
        void add(const Instr &i);
        void onInstr(const Instr &i) override { add(i); }

        /** Instructions added since construction (or finish()). */
        size_t size() const { return size_t(count_); }

        /** The encoded trace; the builder starts over empty. */
        PackedTrace finish();

      private:
        Scratch s_;
        MixStats *mix_;
        uint64_t prevId_ = 0;
        uint64_t prevAddr_ = 0;
        uint64_t count_ = 0;
    };

    /** Encode a buffered (AoS) trace. */
    static PackedTrace pack(const std::vector<Instr> &instrs);

    /** pack() borrowing @p scratch instead of allocating its own. */
    static PackedTrace pack(const std::vector<Instr> &instrs,
                            Scratch *scratch);

    /** Number of instructions. */
    size_t size() const { return size_t(count_); }
    bool empty() const { return count_ == 0; }

    /** Bytes held by the encoding. */
    size_t byteSize() const { return buf_.size(); }

    /** What the same trace costs as an AoS Instr buffer. */
    static size_t aosBytes(size_t n) { return n * sizeof(Instr); }

    /** Decode the full trace back into an AoS buffer. */
    std::vector<Instr> unpack() const;

    /** Stream the trace into @p sink in kBlockInstrs-sized blocks. */
    void deliver(Sink &sink) const;

    /**
     * One decoded record's identity fields. The shape fields live in
     * the descriptor side table (see descCount()/expandDesc()); the
     * fused replay engine keeps a per-descriptor prototype instead of
     * re-expanding them per instruction.
     */
    struct Decoded
    {
        uint64_t id;
        uint64_t dep0, dep1, dep2;
        uint64_t addr;
        uint64_t addr2;
        uint32_t desc;      //!< descriptor index, < descCount()
    };
    // The fused driver's decode-batch buffers are sized by this struct:
    // growing it grows every replay's staging footprint.
    static_assert(sizeof(Decoded) == 56, "Decoded grew");

    /**
     * Which batch-decode kernel family Cursor::nextBatch runs. Every
     * implementation is bit-identical in output and cursor state
     * transitions (including ok() checked-decode semantics); the
     * choice is pure throughput. Auto defers to the process-wide
     * runtime ISA dispatch (swan/internal/simd_dispatch.hh).
     */
    enum class DecodeImpl : uint8_t
    {
        Auto,   //!< runtime-dispatched best available
        Scalar, //!< guaranteed fallback: a loop over next(Decoded&)
        Swar,   //!< portable 64-bit SWAR batch kernel
        Native, //!< AVX2+BMI2 / NEON; degrades to Swar if unavailable
    };

    /** Incremental block decoder (checked: see ok()). */
    class Cursor
    {
      public:
        Cursor() = default; //!< empty cursor; next() returns 0
        explicit Cursor(const PackedTrace &trace);

        /**
         * Decode up to @p max instructions into @p out.
         * @return the number decoded; 0 at end of trace.
         */
        size_t next(Instr *out, size_t max);

        /**
         * Decode exactly one record into registers (no Instr
         * materialization) — the scalar endpoint every batch kernel
         * falls back to.
         * @return false at end of trace, or when the stream is
         * malformed (check ok() to tell the two apart).
         */
        bool next(Decoded &out);

        /**
         * Decode up to @p max records into @p out with the
         * runtime-dispatched batch kernel — the fused replay engine's
         * entry point. Cursor state (position, delta bases, ok())
         * advances exactly as @p max calls of next(Decoded&) would;
         * the batch kernels only amortize bounds checks and keep the
         * decode recurrence in registers across the whole batch.
         * @return the number decoded; 0 at end of trace or on a
         * malformed stream (check ok() to tell the two apart).
         */
        size_t nextBatch(Decoded *out, size_t max);

        /** nextBatch() forcing a specific kernel family (tests and
         *  benches; Native degrades to Swar when the hardware lacks
         *  it). */
        size_t nextBatch(Decoded *out, size_t max, DecodeImpl impl);

        /** Rewind to the first instruction. */
        void reset();

        /**
         * Checked decode: false once this cursor has observed a
         * malformed stream — a record truncated by the varint stream
         * end, a descriptor index out of range, an exhausted
         * multi-address side stream, or (once the advertised
         * instruction count has been decoded) trailing stream bytes.
         * Decoding never reads outside the encoded buffer either way;
         * ok() upgrades "stop early on garbage" to "reject".
         */
        bool ok() const;

      private:
        /** Shared body of the SWAR and pext batch kernels: the Fold
         *  policy abstracts multi-byte varint bit extraction (fold7
         *  vs BMI2 pext). Defined in trace/packed_batch_impl.hh and
         *  instantiated per kernel translation unit (the AVX2 one is
         *  compiled with its own ISA flags). */
        template <class Fold> size_t nextBatchImpl(Decoded *out, size_t max);
        /** The guaranteed-available fallback: a next(Decoded&) loop. */
        size_t nextBatchScalar(Decoded *out, size_t max);
        /** Portable 64-bit SWAR batch kernel (packed_batch.cc). */
        size_t nextBatchSwar(Decoded *out, size_t max);
        /** Best native kernel this build carries: AVX2+BMI2 pext on
         *  x86-64 (packed_batch_avx2.cc), NEON on AArch64, else an
         *  alias of the SWAR kernel. Call only via nextBatch — the
         *  x86 variant requires runtime AVX2/BMI2 support. */
        size_t nextBatchNative(Decoded *out, size_t max);

        const PackedTrace *trace_ = nullptr;
        const uint8_t *p_ = nullptr;        //!< main stream position
        const uint8_t *end_ = nullptr;
        const uint8_t *mp_ = nullptr;       //!< multi-address stream
        const uint8_t *mend_ = nullptr;
        uint64_t prevId_ = 0;
        uint64_t prevAddr_ = 0;
        uint64_t left_ = 0;                 //!< records still to decode
        bool bad_ = false;                  //!< malformation observed
    };

    /** Input iterator reconstructing Instr views one at a time. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = Instr;
        using difference_type = std::ptrdiff_t;
        using pointer = const Instr *;
        using reference = const Instr &;

        Iterator() = default; // end sentinel

        explicit Iterator(const PackedTrace &trace) : cur_(trace)
        {
            ++*this;
        }

        reference operator*() const { return instr_; }
        pointer operator->() const { return &instr_; }

        Iterator &
        operator++()
        {
            done_ = cur_.next(&instr_, 1) == 0;
            return *this;
        }

        bool operator==(const Iterator &o) const { return done_ == o.done_; }
        bool operator!=(const Iterator &o) const { return !(*this == o); }

      private:
        Cursor cur_;
        Instr instr_;
        bool done_ = true;
    };

    Iterator begin() const { return empty() ? Iterator() : Iterator(*this); }
    Iterator end() const { return Iterator(); }

    /**
     * Append the encoded payload (header + streams) to @p out, for the
     * on-disk sweep trace tier. Same-host format, FNV-checksummed.
     */
    void appendPayload(std::string *out) const;

    /** appendPayload() in two pieces, so a writer can stream the body
     *  without copying it: the fixed-size header, appended to @p out,
     *  and the body, which is the byteSize() bytes at payloadBody(). */
    void appendPayloadHeader(std::string *out) const;
    const uint8_t *payloadBody() const { return buf_.data(); }

    /**
     * Parse an appendPayload() blob. @return false (and leaves @p out
     * untouched) on any truncation, bound or checksum violation.
     */
    static bool parsePayload(const uint8_t *data, size_t len,
                             PackedTrace *out);

    /** Number of deduplicated shape descriptors. */
    uint32_t descCount() const { return descCount_; }

    /**
     * Expand descriptor @p idx into @p out's shape fields (class, FU,
     * latency, vector geometry, stride kind, access size); the
     * identity fields (id, deps, addresses) are zeroed. Used by the
     * fused replay engine to precompute one step prototype per
     * descriptor. Precondition: idx < descCount().
     */
    void expandDesc(uint32_t idx, Instr *out) const;

  private:
    friend class Cursor;

    /** Anonymous-mmap byte buffer (new[] fallback off POSIX). */
    class Buf
    {
      public:
        Buf() = default;
        explicit Buf(size_t n);
        ~Buf() { release(); }

        Buf(const Buf &) = delete;
        Buf &operator=(const Buf &) = delete;
        Buf(Buf &&o) noexcept { *this = std::move(o); }
        Buf &
        operator=(Buf &&o) noexcept
        {
            release();
            p_ = o.p_;
            n_ = o.n_;
            mapped_ = o.mapped_;
            o.p_ = nullptr;
            o.n_ = 0;
            return *this;
        }

        uint8_t *data() { return p_; }
        const uint8_t *data() const { return p_; }
        size_t size() const { return n_; }

        void release();

      private:
        uint8_t *p_ = nullptr;
        size_t n_ = 0;
        bool mapped_ = false;
    };

    /** Append @p i's record to @p s, advancing the id and address
     *  delta bases — the one record encoder pack() and Builder share. */
    static void encode(Scratch &s, uint64_t &prevId, uint64_t &prevAddr,
                       const Instr &i);

    /** Assemble buf_ = [descs | main stream | multi stream]. */
    void assemble(const Desc *descs, uint32_t desc_count,
                  const std::string &main, const std::string &multi,
                  uint64_t count);

    const Desc *descs() const
    {
        return reinterpret_cast<const Desc *>(buf_.data());
    }
    const uint8_t *mainStream() const
    {
        return buf_.data() + size_t(descCount_) * sizeof(Desc);
    }
    const uint8_t *multiStream() const
    {
        return mainStream() + mainLen_;
    }

    Buf buf_;
    uint64_t count_ = 0;
    uint64_t mainLen_ = 0;
    uint64_t multiLen_ = 0;
    uint32_t descCount_ = 0;
};

inline bool
PackedTrace::Cursor::ok() const
{
    if (bad_)
        return false;
    // Fully consumed: the streams must land exactly on their ends
    // (trailing bytes mean the advertised count lied).
    if (trace_ && left_ == 0)
        return p_ == end_ && mp_ == mend_;
    return true;
}

/**
 * Single-record decode, inline so the fused replay loop pays no call
 * (and no Instr staging store) per instruction. The structure mirrors
 * the block decoder's three tiers: a branch-free extraction when the
 * next 8 bytes are all single-byte varints (the overwhelmingly common
 * case — a record is typically 2-4 bytes), an unchecked word-at-a-time
 * read when a maximal record cannot overrun the stream, and a fully
 * checked byte-wise tail.
 */
inline bool
PackedTrace::Cursor::next(Decoded &out)
{
    using namespace packed_detail;
    if (left_ == 0)
        return false;
    const uint8_t *p = p_;
    const uint32_t descCount = trace_->descCount_;
    uint64_t tag, id, dep0 = 0, dep1 = 0, dep2 = 0, addr = 0, addr2 = 0;
    if (__builtin_expect(end_ - p >= 8, 1)) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        if (__builtin_expect(!(w & 0x8080808080808080ull), 1)) {
            tag = w & 0xff;
            if (__builtin_expect(!(tag & kHasMulti), 1)) {
                // Flag-indexed shifts: absent fields cost a mask, not
                // a mispredicted branch.
                const uint64_t fIdJ = (tag >> 2) & 1;
                const uint64_t fD0 = (tag >> 3) & 1;
                const uint64_t fD1 = (tag >> 4) & 1;
                const uint64_t fD2 = (tag >> 5) & 1;
                const uint64_t fA = tag & 1;
                const uint64_t pIdJ = 1;
                const uint64_t pD0 = pIdJ + fIdJ;
                const uint64_t pD1 = pD0 + fD0;
                const uint64_t pD2 = pD1 + fD1;
                const uint64_t pA = pD2 + fD2;
                p_ = p + (pA + fA);
                id = uint64_t(
                    int64_t(prevId_ + 1) +
                    (unzigzag((w >> (8 * pIdJ)) & 0xff) & -int64_t(fIdJ)));
                dep0 = uint64_t(int64_t(id) -
                                unzigzag((w >> (8 * pD0)) & 0xff)) &
                       -uint64_t(fD0);
                dep1 = uint64_t(int64_t(id) -
                                unzigzag((w >> (8 * pD1)) & 0xff)) &
                       -uint64_t(fD1);
                dep2 = uint64_t(int64_t(id) -
                                unzigzag((w >> (8 * pD2)) & 0xff)) &
                       -uint64_t(fD2);
                prevAddr_ += uint64_t(unzigzag((w >> (8 * pA)) & 0xff) &
                                      -int64_t(fA));
                addr = prevAddr_ & -uint64_t(fA);
                prevId_ = id;
                const uint64_t idx = tag >> kTagFlagBits;
                if (__builtin_expect(idx >= descCount, 0)) {
                    bad_ = true;
                    left_ = 0;
                    return false;
                }
                --left_;
                out.id = id;
                out.dep0 = dep0;
                out.dep1 = dep1;
                out.dep2 = dep2;
                out.addr = addr;
                out.addr2 = 0;
                out.desc = uint32_t(idx);
                return true;
            }
        }
    }
    if (__builtin_expect(end_ - p >= kMaxRecordBytes, 1)) {
        // A maximal record fits: skip per-byte checks. The rare
        // multi-address side read stays checked below (the side
        // stream may be empty).
        tag = rdFast(p);
        id = prevId_ + 1;
        if (tag & kHasIdJump)
            id = uint64_t(int64_t(id) + unzigzag(rdFast(p)));
        if (tag & kHasDep0)
            dep0 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
        if (tag & kHasDep1)
            dep1 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
        if (tag & kHasDep2)
            dep2 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
        if (tag & kHasAddr) {
            prevAddr_ += uint64_t(unzigzag(rdFast(p)));
            addr = prevAddr_;
        }
    } else {
        bool bad = false;
        tag = getVarint(p, end_, &bad);
        id = prevId_ + 1;
        if (tag & kHasIdJump)
            id = uint64_t(int64_t(id) + unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasDep0)
            dep0 = uint64_t(int64_t(id) - unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasDep1)
            dep1 = uint64_t(int64_t(id) - unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasDep2)
            dep2 = uint64_t(int64_t(id) - unzigzag(getVarint(p, end_, &bad)));
        if (tag & kHasAddr) {
            prevAddr_ += uint64_t(unzigzag(getVarint(p, end_, &bad)));
            addr = prevAddr_;
        }
        if (bad) {
            bad_ = true;
            left_ = 0;
            return false;
        }
    }
    if (tag & kHasMulti) {
        bool bad = false;
        const uint64_t multiTok = getVarint(mp_, mend_, &bad);
        if (bad) {
            bad_ = true;
            left_ = 0;
            return false;
        }
        addr2 = uint64_t(int64_t(addr) + unzigzag(multiTok));
    }
    prevId_ = id;
    const uint64_t idx = tag >> kTagFlagBits;
    if (__builtin_expect(idx >= descCount, 0)) {
        bad_ = true;
        left_ = 0;
        return false;
    }
    p_ = p;
    --left_;
    out.id = id;
    out.dep0 = dep0;
    out.dep1 = dep1;
    out.dep2 = dep2;
    out.addr = addr;
    out.addr2 = addr2;
    out.desc = uint32_t(idx);
    return true;
}

} // namespace swan::trace

#endif // SWAN_TRACE_PACKED_HH
