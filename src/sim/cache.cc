#include "sim/cache.hh"

#include <algorithm>
#include <stdexcept>

namespace swan::sim
{

namespace
{

/** Set count of @p cfg; rejects geometry the division cannot take. */
int
setCount(const CacheConfig &cfg)
{
    if (cfg.ways <= 0 || cfg.lineBytes <= 0)
        throw std::invalid_argument(
            "swan: cache ways and line size must be positive");
    return int(int64_t(cfg.sizeBytes) /
               (int64_t(cfg.lineBytes) * int64_t(cfg.ways)));
}

/** MSHR count of @p cfg: a miss cannot issue without one. */
size_t
mshrCount(const CoreConfig &cfg)
{
    if (cfg.mshrs < 1)
        throw std::invalid_argument("swan: a core needs at least one MSHR");
    return size_t(cfg.mshrs);
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg), numSets_(setCount(cfg)),
      lines_(size_t(numSets_) * size_t(cfg.ways))
{
    // Hard contract, not an assert: the line/set/tag address splits
    // are shifts and masks, which silently map addresses to the wrong
    // lines for non-power-of-two geometry — a Release build must
    // reject such a config, not mis-simulate it.
    if (numSets_ <= 0 || (numSets_ & (numSets_ - 1)) != 0)
        throw std::invalid_argument(
            "swan: cache set count must be a power of two");
    if ((cfg.lineBytes & (cfg.lineBytes - 1)) != 0)
        throw std::invalid_argument(
            "swan: cache line size must be a power of two");
}

Cache::Result
Cache::access(uint64_t addr, bool is_write)
{
    ++accesses_;
    ++tick_;
    const uint64_t line = lineAddr(addr);
    const uint64_t set = line & uint64_t(numSets_ - 1);
    const uint64_t tag = tagOf(line);
    Line *base = &lines_[size_t(set) * size_t(cfg_.ways)];

    Result res;
    for (int w = 0; w < cfg_.ways; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lru = tick_;
            l.dirty = l.dirty || is_write;
            res.hit = true;
            return res;
        }
    }

    // Miss: pick the LRU (preferring invalid) way.
    Line *victim = base;
    for (int w = 1; w < cfg_.ways; ++w) {
        Line &l = base[w];
        if (!victim->valid)
            break;
        if (!l.valid || l.lru < victim->lru)
            victim = &l;
    }

    ++misses_;
    if (victim->valid && victim->dirty) {
        res.writeback = true;
        res.wbLineAddr =
            (victim->tag * uint64_t(numSets_) + set) *
            uint64_t(cfg_.lineBytes);
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    victim->dirty = is_write;
    return res;
}

bool
Cache::probe(uint64_t addr) const
{
    const uint64_t line = lineAddr(addr);
    const uint64_t set = line & uint64_t(numSets_ - 1);
    const uint64_t tag = tagOf(line);
    const Line *base = &lines_[size_t(set) * size_t(cfg_.ways)];
    for (int w = 0; w < cfg_.ways; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
}

CacheHierarchy::CacheHierarchy(const CoreConfig &cfg)
    : l1_(cfg.l1d), l2_(cfg.l2), llc_(cfg.llc),
      prefetch_(cfg.l1d.nextLinePrefetch)
{
}

bool
CacheHierarchy::sameGeometry(const CoreConfig &a, const CoreConfig &b)
{
    const auto same = [](const CacheConfig &x, const CacheConfig &y) {
        return x.sizeBytes == y.sizeBytes && x.ways == y.ways &&
               x.lineBytes == y.lineBytes;
    };
    return same(a.l1d, b.l1d) && same(a.l2, b.l2) && same(a.llc, b.llc) &&
           a.l1d.nextLinePrefetch == b.l1d.nextLinePrefetch;
}

uint8_t
CacheHierarchy::fill(uint64_t addr)
{
    // L1 already missed; walk L2 -> LLC -> DRAM, filling on the way back.
    auto r2 = l2_.access(addr, false);
    if (r2.writeback)
        llc_.access(r2.wbLineAddr, true);
    if (r2.hit)
        return uint8_t(MemLevel::L2);

    auto r3 = llc_.access(addr, false);
    uint8_t f = 0;
    if (r3.writeback) {
        ++dramWrites_;
        f = LineOutcome::kWriteback;
    }
    if (r3.hit)
        return f | uint8_t(MemLevel::Llc);
    ++dramReads_;
    return f | uint8_t(MemLevel::Dram);
}

size_t
CacheHierarchy::walk(uint64_t addr, uint32_t size, bool write, uint8_t *out)
{
    const uint64_t lb = uint64_t(l1_.lineBytes());
    const unsigned ls = unsigned(__builtin_ctzll(lb));
    const uint64_t first = addr >> ls;
    const uint64_t last = (addr + (size ? size - 1 : 0)) >> ls;

    size_t n = 0;
    for (uint64_t line = first; line <= last; ++line) {
        const uint64_t a = line * lb;
        auto r1 = l1_.access(a, write);
        if (r1.writeback)
            l2_.access(r1.wbLineAddr, true);
        if (r1.hit)
            continue;
        // A store write-allocates the line; a load also prefetches the
        // next one (streaming helper), whose fill takes real L2/LLC/
        // DRAM bandwidth in the timing replay.
        uint8_t o = fill(a);
        if (!write && prefetch_) {
            const uint64_t next = a + lb;
            if (!l1_.probe(next)) {
                auto p1 = l1_.access(next, false);
                if (p1.writeback)
                    l2_.access(p1.wbLineAddr, true);
                o |= uint8_t(LineOutcome::kPrefetch |
                             fill(next) << LineOutcome::kPrefetchShift);
            }
        }
        out[n++] = o;
    }
    return n;
}

void
CacheHierarchy::resetStats()
{
    l1_.resetStats();
    l2_.resetStats();
    llc_.resetStats();
    dramReads_ = 0;
    dramWrites_ = 0;
}

MemTiming::MemTiming(const CoreConfig &cfg)
    : l1Lat_(uint64_t(cfg.l1d.latency)), l2Lat_(uint64_t(cfg.l2.latency)),
      llcLat_(uint64_t(cfg.llc.latency)),
      l2Service_(cfg.l2ServiceCycles), llcService_(cfg.llcServiceCycles),
      dram_(cfg.dramLatencyCycles(), cfg.dramServiceCycles()),
      mshrFree_(mshrCount(cfg), 0)
{
}

uint64_t
MemTiming::fill(uint8_t f, uint64_t cycle)
{
    // Each level has a service queue bounding its sustained fill
    // bandwidth; a fill that reaches the LLC queues there too.
    const double start2 = std::max(double(cycle), l2Free_);
    l2Free_ = start2 + l2Service_;
    if (MemLevel(f & LineOutcome::kLevel) == MemLevel::L2)
        return uint64_t(start2) - cycle;

    const double start3 = std::max(start2, llcFree_);
    llcFree_ = start3 + llcService_;
    if (f & LineOutcome::kWriteback)
        dram_.access(uint64_t(start3));
    return uint64_t(start3) - cycle;
}

uint64_t
MemTiming::miss(uint8_t o, uint64_t cycle)
{
    // Allocate an MSHR (bounds memory-level parallelism).
    auto mshr = std::min_element(mshrFree_.begin(), mshrFree_.end());
    const uint64_t start = std::max(cycle, *mshr);

    const uint64_t extra = fill(o, start);
    uint64_t lat;
    switch (MemLevel(o & LineOutcome::kLevel)) {
      case MemLevel::L2:
        lat = l2Lat_;
        break;
      case MemLevel::Llc:
        lat = llcLat_;
        break;
      default:
        // dram_.access absorbs extra into its start time, so subtract
        // it back out: the L2/LLC queue wait must be charged exactly
        // once (double-charging lets MSHR release times outrun
        // physical time and the bandwidth queues ratchet off each
        // other without bound).
        lat = dram_.access(start + extra) - (start + extra) + llcLat_;
        break;
    }
    const uint64_t ready = start + extra + lat;
    *mshr = ready;

    // The next-line prefetch issues with the demand miss and queues
    // behind it, for the DRAM channel too.
    if (o & LineOutcome::kPrefetch) {
        const uint8_t pf = uint8_t(o >> LineOutcome::kPrefetchShift);
        const uint64_t pextra = fill(pf, start);
        if (MemLevel(pf & LineOutcome::kLevel) == MemLevel::Dram)
            dram_.access(start + pextra);
    }
    return ready;
}

uint64_t
MemTiming::load(const uint8_t *o, size_t n, uint64_t cycle)
{
    uint64_t latency = l1Lat_;
    for (size_t i = 0; i < n; ++i)
        latency = std::max(latency, miss(o[i], cycle) - cycle);
    return latency;
}

void
MemTiming::store(const uint8_t *o, size_t n, uint64_t cycle)
{
    for (size_t i = 0; i < n; ++i)
        miss(o[i], cycle);
}

} // namespace swan::sim
