/**
 * @file
 * Batch varint decode: Cursor::nextBatch, the fused replay engine's
 * decode kernel. It is portable 64-bit SWAR: all-single-byte records
 * decode with flag-indexed shifts out of one 8-byte load, and
 * multi-byte varints fold their 7-bit groups with packed_detail::rdFast.
 *
 * The body is a transplant of the inline Cursor::next(Decoded&) with
 * the decode recurrence — stream position, previous id, previous
 * address, records left — hoisted into locals for the whole batch:
 * the per-record member loads/stores and the end-of-batch overrun
 * checks amortize across up to `max` records. Everything observable
 * is bit-identical to a next(Decoded&) loop: the same Decoded
 * sequence, the same count, the same ok() verdict on truncated
 * records, descriptor range violations, exhausted multi streams and
 * trailing bytes. tests/test_trace_packed.cc checks it against
 * next(Decoded&) on intact, truncated and fuzzed streams.
 */

#include "trace/packed.hh"

namespace swan::trace
{

size_t
PackedTrace::Cursor::nextBatch(Decoded *out, size_t max)
{
    using namespace packed_detail;
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
        if (__builtin_expect(end - p >= 8, 1)) {
            uint64_t w;
            std::memcpy(&w, p, 8);
            if (__builtin_expect(!(w & 0x8080808080808080ull), 1)) {
                tag = w & 0xff;
                if (__builtin_expect(!(tag & kHasMulti), 1)) {
                    // All-single-byte record: flag-indexed shifts,
                    // identical to the inline next(Decoded&) tier.
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
                    p += pA + fA;
                    id = uint64_t(
                        int64_t(prevId + 1) +
                        (unzigzag((w >> (8 * pIdJ)) & 0xff) &
                         -int64_t(fIdJ)));
                    dep0 = uint64_t(int64_t(id) -
                                    unzigzag((w >> (8 * pD0)) & 0xff)) &
                           -uint64_t(fD0);
                    dep1 = uint64_t(int64_t(id) -
                                    unzigzag((w >> (8 * pD1)) & 0xff)) &
                           -uint64_t(fD1);
                    dep2 = uint64_t(int64_t(id) -
                                    unzigzag((w >> (8 * pD2)) & 0xff)) &
                           -uint64_t(fD2);
                    prevAddr += uint64_t(unzigzag((w >> (8 * pA)) & 0xff) &
                                         -int64_t(fA));
                    addr = prevAddr & -uint64_t(fA);
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
                    o.addr2 = 0;
                    o.desc = uint32_t(idx);
                    continue;
                }
            }
        }
        if (__builtin_expect(end - p >= kMaxRecordBytes, 1)) {
            // A maximal record fits: unchecked word-at-a-time reads.
            tag = rdFast(p);
            id = prevId + 1;
            if (tag & kHasIdJump)
                id = uint64_t(int64_t(id) + unzigzag(rdFast(p)));
            if (tag & kHasDep0)
                dep0 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
            if (tag & kHasDep1)
                dep1 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
            if (tag & kHasDep2)
                dep2 = uint64_t(int64_t(id) - unzigzag(rdFast(p)));
            if (tag & kHasAddr) {
                prevAddr += uint64_t(unzigzag(rdFast(p)));
                addr = prevAddr;
            }
        } else {
            // Checked near-end tail: byte-wise, never reads past end.
            bool tb = false;
            tag = getVarint(p, end, &tb);
            id = prevId + 1;
            if (tag & kHasIdJump)
                id = uint64_t(int64_t(id) +
                              unzigzag(getVarint(p, end, &tb)));
            if (tag & kHasDep0)
                dep0 = uint64_t(int64_t(id) -
                                unzigzag(getVarint(p, end, &tb)));
            if (tag & kHasDep1)
                dep1 = uint64_t(int64_t(id) -
                                unzigzag(getVarint(p, end, &tb)));
            if (tag & kHasDep2)
                dep2 = uint64_t(int64_t(id) -
                                unzigzag(getVarint(p, end, &tb)));
            if (tag & kHasAddr) {
                prevAddr += uint64_t(unzigzag(getVarint(p, end, &tb)));
                addr = prevAddr;
            }
            if (tb) {
                bad = true;
                break;
            }
        }
        if (tag & kHasMulti) {
            bool tb = false;
            const uint64_t multiTok = getVarint(mp, mend, &tb);
            if (tb) {
                bad = true;
                break;
            }
            addr2 = uint64_t(int64_t(addr) + unzigzag(multiTok));
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

} // namespace swan::trace
