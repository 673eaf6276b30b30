/**
 * @file
 * The canonical trace address space. Traces feed address-sensitive
 * cache models, so a recorded address must not depend on where this
 * run of the host process happened to place a buffer (ASLR, argv
 * length, heap history, which thread captured). trace::Recorder::emit
 * — the one point every recorded address passes — translates each
 * host address into a canonical one:
 *
 *  - **Registered regions.** Workload heap buffers (inputs, outputs,
 *    run-time scratch, and the workload objects themselves) are
 *    registered with the calling thread's region table when allocated
 *    (workloads/common.hh, core::Workload::operator new). The first
 *    touch of a region in a capture assigns it the next dense
 *    canonical base above kHeapBase (64-byte aligned), so the same
 *    capture sequence always lays out the same canonical heap.
 *  - **The capturing thread's stack** maps relative to the frame where
 *    the recorder was installed (ScopedRecorder): the anchor becomes
 *    kStackTop and every stack address keeps its distance to it. A
 *    page map cannot do this job, because the stack's in-page offsets
 *    move with ASLR and argv length.
 *  - **Everything else** (static tables such as simd/crypto_tables.cc)
 *    goes through a first-touch page map: the k-th distinct host page
 *    a capture touches becomes kPageBase + k pages, keeping the
 *    in-page offset.
 *
 * Every piece of translation state is per capture (one CanonMap per
 * Recorder) and affine within a region, so the distance between two
 * addresses of one region — a multi-address record's addr2 - addr,
 * an LdS/StS element stride — is preserved exactly, and canonical
 * deltas are never larger than the dense layout requires.
 */

#ifndef SWAN_TRACE_CANON_HH
#define SWAN_TRACE_CANON_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace swan::trace
{

/**
 * Register [base, base + bytes) as a workload heap region of the
 * calling thread (a no-op for bytes == 0). Regions are per thread: a
 * capture resolves addresses against the table of the thread it runs
 * on, so make the workload on the thread that captures it (the sweep
 * scheduler, Session::run's callers and the CLI all do). An address in
 * another thread's region falls back to the page map.
 */
void registerRegion(const void *base, size_t bytes);

/** Forget the region starting at @p base (its memory is being freed). */
void unregisterRegion(const void *base);

/** Per-capture host -> canonical address translation. */
class CanonMap
{
  public:
    /** Canonical layout: pages, then the stack, then the heap, all
     *  within 2^31 so address deltas stay short varints. */
    static constexpr uint64_t kPageBase = 0x1000'0000;
    static constexpr uint64_t kStackTop = 0x3000'0000;
    static constexpr uint64_t kHeapBase = 0x4000'0000;
    static constexpr uint64_t kHeapAlign = 64;
    static constexpr uint64_t kPageBytes = 4096;

    /** Set the stack anchor: the address of an object in the frame
     *  that installs the recorder. 0 = no stack mapping. */
    void setStackAnchor(uintptr_t anchor);

    /** Canonical form of host address @p a (nonzero for a nonzero
     *  input). */
    uint64_t
    translate(uint64_t a)
    {
        for (const Hot &h : hot_)
            if (a - h.lo < h.len)
                return h.canon + (a - h.lo);
        return translateSlow(a);
    }

    /** Drop the cached region ranges (a region of this thread was
     *  freed; its host range may be reused by a new region). */
    void
    forgetRanges()
    {
        for (Hot &h : hot_)
            h = Hot{};
    }

  private:
    /** One recently translated region: host [lo, lo + len). */
    struct Hot
    {
        uint64_t lo = 0;
        uint64_t len = 0;
        uint64_t canon = 0;
    };
    /** A region this capture has touched, by registration serial. */
    struct Assigned
    {
        uint64_t serial;
        uint64_t canon;
    };

    uint64_t translateSlow(uint64_t a);
    void cacheHot(uint64_t lo, uint64_t len, uint64_t canon);

    Hot hot_[4];
    unsigned hotNext_ = 0;
    std::vector<Assigned> assigned_;
    uint64_t heapNext_ = kHeapBase;
    uintptr_t anchor_ = 0;
    uint64_t stackLo_ = 0, stackHi_ = 0;
    bool stackKnown_ = false;
    std::unordered_map<uint64_t, uint64_t> pages_;
};

} // namespace swan::trace

#endif // SWAN_TRACE_CANON_HH
