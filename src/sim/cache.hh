/**
 * @file
 * Set-associative cache model with LRU replacement and write-back
 * write-allocate policy, plus the three-level hierarchy + MSHR + DRAM
 * timing used by the trace-driven core models (the cache parameters of
 * Table 3).
 */

#ifndef SWAN_SIM_CACHE_HH
#define SWAN_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/configs.hh"
#include "sim/dram.hh"

namespace swan::sim
{

/** One set-associative cache level. */
class Cache
{
  public:
    /** @throws std::invalid_argument unless ways and lineBytes are
     *  positive and lineBytes and the set count are powers of two. */
    explicit Cache(const CacheConfig &cfg);

    struct Result
    {
        bool hit = false;
        bool writeback = false;     //!< a dirty line was evicted
        uint64_t wbLineAddr = 0;
    };

    /** Look up (and on miss, fill) the line containing @p addr. */
    Result access(uint64_t addr, bool is_write);

    /**
     * Hit-only fast path: when the line is resident, perform exactly
     * the bookkeeping access() would (access/tick counters, LRU
     * stamp, dirty bit) and return true; on a miss, touch nothing and
     * return false so the caller can run the full access(). Inline so
     * the replay loop's dominant case never leaves the step code.
     */
    bool
    accessHit(uint64_t addr, bool is_write)
    {
        const uint64_t line = lineAddr(addr);
        const uint64_t set = line & uint64_t(numSets_ - 1);
        const uint64_t tag = tagOf(line);
        Line *base = &lines_[size_t(set) * size_t(cfg_.ways)];
        for (int w = 0; w < cfg_.ways; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                ++accesses_;
                ++tick_;
                l.lru = tick_;
                l.dirty = l.dirty || is_write;
                return true;
            }
        }
        return false;
    }

    /** Look up without filling or updating stats (used by prefetch). */
    bool probe(uint64_t addr) const;

    void reset();
    void resetStats();

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    double
    missRate() const
    {
        return accesses_ ? double(misses_) / double(accesses_) : 0.0;
    }

    int lineBytes() const { return cfg_.lineBytes; }
    int latency() const { return cfg_.latency; }

    /**
     * Invalidate every line without touching the access/miss counters
     * or the LRU clock. Fault-injection actuator: a cache-flush storm
     * (sim::ReplayObserver payload) models an adversarial context
     * switch / cache-maintenance burst, so subsequent accesses re-miss
     * and the re-fill traffic shows up in the normal statistics.
     */
    void
    flushAll()
    {
        for (Line &l : lines_) {
            l.valid = false;
            l.dirty = false;
        }
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    // lineBytes and numSets are asserted powers of two at
    // construction, so the per-access address splits are shifts and
    // masks — a runtime-divisor integer division here costs more than
    // the rest of a hit lookup combined.
    uint64_t lineAddr(uint64_t addr) const
    {
        return addr >> unsigned(__builtin_ctz(uint32_t(cfg_.lineBytes)));
    }
    uint64_t tagOf(uint64_t line) const
    {
        return line >> unsigned(__builtin_ctz(uint32_t(numSets_)));
    }

    CacheConfig cfg_;
    int numSets_;
    std::vector<Line> lines_;   // numSets_ * ways, row-major by set
    uint64_t tick_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Three-level hierarchy with MSHR-limited misses and a bandwidth-limited
 * DRAM behind the LLC. Returns load-to-use latencies; keeps the per-level
 * access/miss statistics the paper reports as MPKI (Table 5).
 */
class MemHierarchy
{
  public:
    /** @throws std::invalid_argument for fewer than one MSHR or a
     *  cache level Cache rejects. */
    explicit MemHierarchy(const CoreConfig &cfg);

    /** Which level serviced an access. */
    enum class Level { L1, L2, Llc, Dram };

    struct Result
    {
        uint64_t latency = 0;   //!< load-to-use latency in cycles
        Level level = Level::L1;
    };

    /**
     * Timed load at @p cycle. Accesses spanning multiple lines pay the
     * slowest line. MSHRs bound the number of overlapping misses.
     */
    Result load(uint64_t addr, uint32_t size, uint64_t cycle);

    /**
     * Store: updates cache state and traffic counters. Store latency is
     * hidden by the store buffer; the returned latency is the commit-side
     * latency (1 cycle).
     */
    Result store(uint64_t addr, uint32_t size, uint64_t cycle);

    /**
     * Single-line L1-hit fast paths: bit-identical bookkeeping to
     * load()/store() for their dominant case, inline in the caller;
     * return false — touching nothing — when the access spans lines
     * or misses L1, so the full path can run instead.
     */
    bool
    loadHit(uint64_t addr, uint32_t size, uint64_t *latency)
    {
        const unsigned ls =
            unsigned(__builtin_ctz(uint32_t(l1_.lineBytes())));
        if ((addr >> ls) != ((addr + (size ? size - 1 : 0)) >> ls))
            return false;
        if (!l1_.accessHit(addr, false))
            return false;
        *latency = uint64_t(l1_.latency());
        return true;
    }
    bool
    storeHit(uint64_t addr, uint32_t size)
    {
        const unsigned ls =
            unsigned(__builtin_ctz(uint32_t(l1_.lineBytes())));
        if ((addr >> ls) != ((addr + (size ? size - 1 : 0)) >> ls))
            return false;
        return l1_.accessHit(addr, true);
    }

    void reset();
    void resetStats();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

    /**
     * Fault-injection actuators (see sim/faults.hh). dram() exposes
     * the mutable DRAM model so payloads can retime it mid-replay;
     * flushCaches() invalidates all three levels at once. Statistics
     * are deliberately untouched — a fault perturbs *state*, and its
     * cost surfaces through the ordinary miss/traffic counters.
     */
    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }
    void
    flushCaches()
    {
        l1_.flushAll();
        l2_.flushAll();
        llc_.flushAll();
    }

    uint64_t dramReads() const { return dramReads_; }
    uint64_t dramWrites() const { return dramWrites_; }
    uint64_t dramAccesses() const { return dramReads_ + dramWrites_; }

  private:
    struct FillResult
    {
        Level level = Level::L2;
        uint64_t extra = 0; //!< bandwidth queueing beyond the hit latency
    };

    /** Fill below L1 at @p cycle; models L2/LLC/DRAM bandwidth queues. */
    FillResult fillFrom(uint64_t addr, uint64_t cycle);

    CoreConfig cfg_;
    Cache l1_, l2_, llc_;
    Dram dram_;
    std::vector<uint64_t> mshrFree_;
    double l2Free_ = 0.0;
    double llcFree_ = 0.0;
    uint64_t dramReads_ = 0;
    uint64_t dramWrites_ = 0;
};

} // namespace swan::sim

#endif // SWAN_SIM_CACHE_HH
