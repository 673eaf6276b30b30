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
 *    varint tag of descriptor index and field-presence flags
 *    (index << 6 | flags: one byte for descriptors 0 and 1, two from
 *    descriptor 2 to 255);
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
 * The encoding is lossless: Cursor::nextBatch records over expandDesc
 * shapes reconstruct the exact Instr sequence, so replaying a packed
 * trace is byte-identical to replaying the AoS buffer it came from.
 *
 * Capture encodes on emit: a Recorder streams straight into a Builder
 * (counting the trace's MixStats on the way), so no capture holds the
 * 64-byte-per-instruction AoS buffer; pack() of an AoS buffer is a
 * loop over a Builder, so both produce the same bytes.
 *
 * Storage lives in anonymous mmap regions, not the C++ heap, so a
 * finished trace's pages go back to the OS the moment it is dropped.
 */

#ifndef SWAN_TRACE_PACKED_HH
#define SWAN_TRACE_PACKED_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/instr.hh"
#include "trace/recorder.hh"
#include "trace/stats.hh"

namespace swan::trace
{

/** Losslessly packed dynamic instruction trace. */
class PackedTrace
{
  private:
    /**
     * Deduplicated per-instruction shape (the descriptor side table).
     * Its first 15 bytes mirror Instr's, from size to stride, so the
     * encoder copies a shape as bytes and keys its index on the two
     * 64-bit words of a Desc.
     */
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
    // Fields in Instr's order; the ends pin the offsets.
    static_assert(offsetof(Desc, cls) ==
                          offsetof(Instr, cls) - offsetof(Instr, size) &&
                      offsetof(Desc, stride) ==
                          offsetof(Instr, stride) - offsetof(Instr, size),
                  "Desc must mirror Instr's shape bytes");

  public:
    /** Decode block: a Cursor::nextBatch batch size whose Decoded
     *  buffer stays cache-resident (14 KiB); the fused replay engine
     *  steps four blocks per batch. */
    static constexpr size_t kBlockInstrs = 256;

    PackedTrace() = default;

    /**
     * The record encoder: the trace grows one instruction at a time,
     * and finish() assembles it. A Recorder streaming into a Builder
     * encodes on emit, and pack() is a loop over one.
     *
     * Descriptors are found in an open-addressed table of indices
     * into the descriptor list (first-seen order), keyed on a Desc's
     * two 64-bit words and grown at half load. Each record is written
     * through a raw pointer after one capacity check. The mix is
     * counted per descriptor and folded into MixStats at finish().
     */
    class Builder final : public Sink
    {
      public:
        /** @param mix when non-null, counts every added instruction at
         *             finish() (MixStats::addTrace of the same stream) */
        explicit Builder(MixStats *mix = nullptr);

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
        /** Append-only byte stream written through a raw pointer;
         *  grown by copy, its spare capacity never touched. */
        struct Stream
        {
            std::unique_ptr<uint8_t[]> data;
            size_t len = 0;
            size_t cap = 0;

            /** Where the next @p n bytes go: room for them first. */
            uint8_t *
            room(size_t n)
            {
                if (cap - len < n)
                    grow(n);
                return data.get() + len;
            }
            void grow(size_t n);
        };

        /** Index of @p i's descriptor, inserted if new. */
        uint32_t descIndex(const Instr &i);
        /** Append @p d, new, to the list and to the index at @p slot. */
        uint32_t insertDesc(const Desc &d, size_t slot);
        /** Double the slot table and re-insert every descriptor. */
        void growIndex();

        Stream main_;
        Stream multi_;
        std::vector<Desc> descs_;     //!< first-seen order
        std::vector<uint64_t> uses_;  //!< instructions per descriptor
        std::vector<uint32_t> slots_; //!< descriptor index, or empty
        int slotShift_ = 0;           //!< 64 - log2(slots_.size())
        MixStats *mix_;
        uint64_t prevId_ = 0;
        uint64_t prevAddr_ = 0;
        uint64_t count_ = 0;
    };

    /** Reusable encoder working memory: a Builder, which finish()
     *  leaves empty with its capacity kept. */
    using Scratch = Builder;

    /** Encode a buffered (AoS) trace. */
    static PackedTrace pack(const std::vector<Instr> &instrs);

    /** pack() on @p scratch, an empty Builder counting no mix, so a
     *  driver packing many traces back to back reuses its capacity. */
    static PackedTrace pack(const std::vector<Instr> &instrs,
                            Scratch *scratch);

    /** Number of instructions. */
    size_t size() const { return size_t(count_); }
    bool empty() const { return count_ == 0; }

    /** Bytes held by the encoding. */
    size_t byteSize() const { return buf_.size(); }

    /** What the same trace costs as an AoS Instr buffer. */
    static size_t aosBytes(size_t n) { return n * sizeof(Instr); }

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

    /** Incremental batch decoder (checked: see ok()). */
    class Cursor
    {
      public:
        Cursor() = default; //!< empty cursor; nextBatch() returns 0
        explicit Cursor(const PackedTrace &trace);

        /**
         * Decode the next up to @p max records into @p out — the one
         * decoder of the stream format, run by the fused replay
         * engine. Portable SWAR: the decode recurrence stays in
         * registers across the whole batch, so bounds checks amortize.
         * @return the number decoded; 0 at end of trace or on a
         * malformed stream (check ok() to tell the two apart).
         */
        size_t nextBatch(Decoded *out, size_t max);

        /**
         * Checked decode: false once this cursor has observed a
         * malformed stream — a varint truncated by the stream end or
         * longer than the encoder's 10 bytes, a descriptor index out of
         * range, an exhausted multi-address side stream, or (once the
         * advertised instruction count has been decoded) trailing
         * stream bytes.
         * Decoding never reads outside the encoded buffer either way;
         * ok() upgrades "stop early on garbage" to "reject".
         */
        bool ok() const;

      private:
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

    /**
     * Append the encoded payload (header + streams) to @p out: the
     * body of the sweep cache's `.swtp` entries and of `swan run
     * --dump-trace` files. Same-host format, FNV-checksummed.
     */
    void appendPayload(std::string *out) const;

    /** appendPayload() in two pieces, so a writer can stream the body
     *  without copying it: the fixed-size header, appended to @p out,
     *  and the body, which is the byteSize() bytes at payloadBody(). */
    void appendPayloadHeader(std::string *out) const;
    const uint8_t *payloadBody() const { return buf_.data(); }

    /**
     * Parse an appendPayload() blob. @return false (and leaves @p out
     * untouched) on any truncation, bound or checksum violation; then
     * @p error, when non-null, names the violation.
     */
    static bool parsePayload(const uint8_t *data, size_t len,
                             PackedTrace *out, std::string *error = nullptr);

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

} // namespace swan::trace

#endif // SWAN_TRACE_PACKED_HH
