/**
 * @file
 * Set-associative cache model with LRU replacement and write-back
 * write-allocate policy, and the three-level memory system of the
 * trace-driven core models (the cache parameters of Table 3), in two
 * parts: CacheHierarchy, the functional contents (which lines each
 * level holds, the L1 next-line prefetch, DRAM traffic counts), and
 * MemTiming, one configuration's timing (MSHRs, fill queues, DRAM
 * channel, latencies). The caches never read a cycle, so the first is
 * a function of the address stream alone and configurations with equal
 * geometry can share it; sim::CoreModel composes the two.
 */

#ifndef SWAN_SIM_CACHE_HH
#define SWAN_SIM_CACHE_HH

#include <cstddef>
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

/** Which level serviced an access. */
enum class MemLevel : uint8_t { L1, L2, Llc, Dram };

/**
 * Outcome byte of one L1-missing line: what the functional hierarchy
 * (CacheHierarchy) did for it, and all the timing part (MemTiming)
 * needs to charge it. The low three bits describe the demand fill —
 * the level that held the line and whether filling the LLC evicted a
 * dirty line to DRAM; kPrefetch flags a next-line prefetch, whose fill
 * is described the same way kPrefetchShift bits up. A line that hits
 * L1 leaves no byte.
 */
struct LineOutcome
{
    static constexpr uint8_t kLevel = 0x3;     //!< fill level, a MemLevel
    static constexpr uint8_t kWriteback = 0x4; //!< LLC wrote a dirty line back
    static constexpr uint8_t kPrefetch = 0x8;  //!< next-line prefetch issued
    static constexpr unsigned kPrefetchShift = 4;
};

/**
 * The functional memory system: L1/L2/LLC contents, the L1 next-line
 * prefetch, and the DRAM read/write counts. It never reads a cycle, so
 * its state is a function of the address stream alone — cores with
 * equal cache geometry (sameGeometry) can share one, walked once per
 * access, each timing the outcomes on its own MemTiming.
 */
class CacheHierarchy
{
  public:
    /** @throws std::invalid_argument for a cache level Cache rejects. */
    explicit CacheHierarchy(const CoreConfig &cfg);

    /** Whether @p a and @p b evolve equal hierarchies from one address
     *  stream: equal L1/L2/LLC size, ways and line, and equal L1
     *  prefetch (latencies are timing, not contents). */
    static bool sameGeometry(const CoreConfig &a, const CoreConfig &b);

    /**
     * Load [addr, addr + size) (size 0 touches one line), line by line:
     * appends one LineOutcome byte per L1-missing line to @p out and
     * returns how many. A single-line L1 hit stays inline.
     */
    size_t
    load(uint64_t addr, uint32_t size, uint8_t *out)
    {
        if (singleLine(addr, size) && l1_.accessHit(addr, false))
            return 0;
        return walk(addr, size, false, out);
    }

    /** Store: the same walk, write-allocate, with no prefetch. */
    size_t
    store(uint64_t addr, uint32_t size, uint8_t *out)
    {
        if (singleLine(addr, size) && l1_.accessHit(addr, true))
            return 0;
        return walk(addr, size, true, out);
    }

    /**
     * Invalidate all three levels at once: a fault-injection actuator
     * (see sim/faults.hh). Statistics are deliberately untouched — a
     * fault perturbs *state*, and its cost surfaces through the
     * ordinary miss/traffic counters.
     */
    void
    flush()
    {
        l1_.flushAll();
        l2_.flushAll();
        llc_.flushAll();
    }

    void resetStats();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

    uint64_t dramReads() const { return dramReads_; }
    uint64_t dramWrites() const { return dramWrites_; }
    uint64_t dramAccesses() const { return dramReads_ + dramWrites_; }

  private:
    bool
    singleLine(uint64_t addr, uint32_t size) const
    {
        const unsigned ls =
            unsigned(__builtin_ctz(uint32_t(l1_.lineBytes())));
        return (addr >> ls) == ((addr + (size ? size - 1 : 0)) >> ls);
    }

    /** The line-by-line walk behind load() and store(). */
    size_t walk(uint64_t addr, uint32_t size, bool write, uint8_t *out);

    /** Fill an L1-missing line from L2/LLC/DRAM; returns its fill
     *  bits (LineOutcome level and write-back). */
    uint8_t fill(uint64_t addr);

    Cache l1_, l2_, llc_;
    bool prefetch_;
    uint64_t dramReads_ = 0;
    uint64_t dramWrites_ = 0;
};

/**
 * The per-configuration timing of the memory system: MSHRs bounding
 * overlapping misses, the L2/LLC fill queues bounding fill bandwidth
 * (the cache-pressure effect of Section 5.4), the bandwidth-limited
 * DRAM channel and the level latencies. It replays the LineOutcome
 * bytes a CacheHierarchy left for an access at the cycle the core
 * issues it; lines that hit L1 cost nothing beyond the L1 latency.
 */
class MemTiming
{
  public:
    /** @throws std::invalid_argument for fewer than one MSHR. */
    explicit MemTiming(const CoreConfig &cfg);

    /** Time a load issued at @p cycle whose L1-missing lines had the
     *  @p n outcomes at @p o; returns its load-to-use latency, the
     *  slowest line's (the L1 latency when n is 0). */
    uint64_t load(const uint8_t *o, size_t n, uint64_t cycle);

    /** Time a store's write-allocate fills: they take MSHRs and fill
     *  bandwidth, while the store buffer hides their latency. */
    void store(const uint8_t *o, size_t n, uint64_t cycle);

    uint64_t l1Latency() const { return l1Lat_; }

    /** The DRAM channel; fault payloads retime it mid-replay. */
    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }

  private:
    /** Charge one L1-missing line; returns its data-ready cycle. */
    uint64_t miss(uint8_t o, uint64_t cycle);

    /** Queue a fill described by @p f at L2 (and the LLC below it)
     *  from @p cycle; returns the queueing beyond the hit latency. */
    uint64_t fill(uint8_t f, uint64_t cycle);

    uint64_t l1Lat_, l2Lat_, llcLat_;
    double l2Service_, llcService_;
    Dram dram_;
    std::vector<uint64_t> mshrFree_;
    double l2Free_ = 0.0;
    double llcFree_ = 0.0;
};

} // namespace swan::sim

#endif // SWAN_SIM_CACHE_HH
