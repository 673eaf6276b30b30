#include "trace/canon.hh"

#include <map>

#include "trace/recorder.hh"

#if defined(__linux__)
#include <pthread.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SWAN_CANON_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWAN_CANON_ASAN 1
#endif
#endif
#ifdef SWAN_CANON_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace swan::trace
{

namespace
{

/** One registered region: host [base, end), with a thread-unique
 *  serial so a freed-and-reused host range is a new region. */
struct Region
{
    uint64_t end;
    uint64_t serial;
};

/** The calling thread's registered regions, keyed by host base. */
struct RegionTable
{
    std::map<uint64_t, Region> byBase;
    uint64_t nextSerial = 1;
    ~RegionTable();
};

// Set once the table is destroyed at thread exit: buffers freed after
// that (static-duration objects on the main thread) must not touch it.
// Trivially destructible, so it outlives the table.
thread_local bool tlsTableGone = false;
thread_local RegionTable tlsTable;

RegionTable::~RegionTable()
{
    tlsTableGone = true;
}

/**
 * ASan's use-after-return detection moves frames into a per-thread
 * "fake stack" whose slot depends on call history. Map an address in a
 * live fake frame to the real-stack position of the frame it stands in
 * for (plus its offset in the frame), so stack addresses keep a fixed
 * distance to the anchor under ASan too. Identity everywhere else.
 */
uintptr_t
realStack(uintptr_t a)
{
#ifdef SWAN_CANON_ASAN
    void *beg = nullptr;
    if (void *real = __asan_addr_is_in_fake_stack(
            __asan_get_current_fake_stack(), reinterpret_cast<void *>(a),
            &beg, nullptr))
        return reinterpret_cast<uintptr_t>(real) +
               (a - reinterpret_cast<uintptr_t>(beg));
#endif
    return a;
}

/** A region was added or removed: the capture in progress on this
 *  thread (if any) must re-resolve ranges it cached. */
void
notifyRecorder()
{
    if (Recorder *rec = currentRecorder())
        rec->canon().forgetRanges();
}

} // namespace

void
registerRegion(const void *base, size_t bytes)
{
    if (bytes == 0 || tlsTableGone)
        return;
    RegionTable &t = tlsTable;
    const uint64_t lo = reinterpret_cast<uintptr_t>(base);
    const uint64_t hi = lo + bytes;
    // A live region can never overlap a new allocation; an overlapping
    // entry is stale (freed on another thread), so drop it.
    auto it = t.byBase.lower_bound(lo);
    if (it != t.byBase.begin() && std::prev(it)->second.end > lo)
        --it;
    while (it != t.byBase.end() && it->first < hi)
        it = t.byBase.erase(it);
    t.byBase.emplace(lo, Region{hi, t.nextSerial++});
    notifyRecorder();
}

void
unregisterRegion(const void *base)
{
    if (tlsTableGone)
        return;
    if (tlsTable.byBase.erase(reinterpret_cast<uintptr_t>(base)))
        notifyRecorder();
}

void
CanonMap::setStackAnchor(uintptr_t anchor)
{
    anchor_ = anchor ? realStack(anchor) : 0;
    stackKnown_ = false;
    forgetRanges();
}

void
CanonMap::cacheHot(uint64_t lo, uint64_t len, uint64_t canon)
{
    hot_[hotNext_] = Hot{lo, len, canon};
    hotNext_ = (hotNext_ + 1) % (sizeof hot_ / sizeof hot_[0]);
}

uint64_t
CanonMap::translateSlow(uint64_t a)
{
    // 1. A registered region of this thread: dense first-touch bases.
    if (!tlsTableGone) {
        const auto &regions = tlsTable.byBase;
        auto it = regions.upper_bound(a);
        if (it != regions.begin() && a < std::prev(it)->second.end) {
            --it;
            const uint64_t lo = it->first;
            const uint64_t serial = it->second.serial;
            uint64_t canon = 0;
            for (const Assigned &r : assigned_)
                if (r.serial == serial)
                    canon = r.canon;
            const uint64_t len = it->second.end - lo;
            if (!canon) {
                canon = heapNext_;
                heapNext_ = (canon + len + kHeapAlign - 1) & ~(kHeapAlign - 1);
                assigned_.push_back(Assigned{serial, canon});
            }
            cacheHot(lo, len, canon);
            return canon + (a - lo);
        }
    }

    // 2. The capturing thread's stack, relative to the anchor. A frame
    // ASan moved to its fake stack maps through the real frame (never
    // cached: fake frames are reused by other calls).
    if (anchor_) {
        const uintptr_t r = realStack(a);
        if (r != a)
            return kStackTop + (r - anchor_);
    }
    if (anchor_ && !stackKnown_) {
        stackKnown_ = true;
        // Fallback window when the thread's exact bounds are unknown:
        // the default thread stack below the anchor, plus the frames of
        // the installing function's callers above it.
        stackLo_ = anchor_ - (uint64_t(8) << 20);
        stackHi_ = anchor_ + (uint64_t(64) << 10);
#if defined(__linux__)
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            void *addr = nullptr;
            size_t size = 0;
            if (pthread_attr_getstack(&attr, &addr, &size) == 0 && size) {
                const uint64_t lo = reinterpret_cast<uintptr_t>(addr);
                if (anchor_ >= lo && anchor_ < lo + size) {
                    stackLo_ = lo;
                    stackHi_ = lo + size;
                }
            }
            pthread_attr_destroy(&attr);
        }
#endif
    }
    if (anchor_ && a >= stackLo_ && a < stackHi_) {
        const uint64_t canon = kStackTop - (anchor_ - stackLo_);
        cacheHot(stackLo_, stackHi_ - stackLo_, canon);
        return canon + (a - stackLo_);
    }

    // 3. Anything else: first-touch page map, in-page offset kept.
    const uint64_t page = a & ~(kPageBytes - 1);
    auto [it, fresh] = pages_.emplace(page, 0);
    if (fresh)
        it->second = kPageBase + (pages_.size() - 1) * kPageBytes;
    cacheHot(page, kPageBytes, it->second);
    return it->second + (a - page);
}

} // namespace swan::trace
