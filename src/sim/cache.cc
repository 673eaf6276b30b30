#include "sim/cache.hh"

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
Cache::reset()
{
    for (auto &l : lines_)
        l = Line{};
    tick_ = 0;
    resetStats();
}

void
Cache::resetStats()
{
    accesses_ = 0;
    misses_ = 0;
}

MemHierarchy::MemHierarchy(const CoreConfig &cfg)
    : cfg_(cfg), l1_(cfg.l1d), l2_(cfg.l2), llc_(cfg.llc),
      dram_(cfg.dramLatencyCycles(), cfg.dramServiceCycles()),
      mshrFree_(mshrCount(cfg), 0)
{
}

MemHierarchy::FillResult
MemHierarchy::fillFrom(uint64_t addr, uint64_t cycle)
{

    // L1 already missed; walk L2 -> LLC -> DRAM, filling on the way back.
    // Each level has a service queue bounding its sustained fill
    // bandwidth (the cache-pressure effect of Section 5.4).
    FillResult res;
    const double start2 = std::max(double(cycle), l2Free_);
    l2Free_ = start2 + cfg_.l2ServiceCycles;
    res.extra = uint64_t(start2) - cycle;

    auto r2 = l2_.access(addr, false);
    if (r2.writeback)
        llc_.access(r2.wbLineAddr, true);
    if (r2.hit) {
        res.level = Level::L2;
        return res;
    }

    const double start3 = std::max(start2, llcFree_);
    llcFree_ = start3 + cfg_.llcServiceCycles;
    res.extra = uint64_t(start3) - cycle;

    auto r3 = llc_.access(addr, false);
    if (r3.writeback) {
        ++dramWrites_;
        dram_.access(uint64_t(start3));
    }
    if (r3.hit) {
        res.level = Level::Llc;
        return res;
    }

    ++dramReads_;
    res.level = Level::Dram;
    res.extra = uint64_t(start3) - cycle;
    return res;
}

MemHierarchy::Result
MemHierarchy::load(uint64_t addr, uint32_t size, uint64_t cycle)
{
    const uint64_t lb = uint64_t(l1_.lineBytes());
    const unsigned ls = unsigned(__builtin_ctzll(lb));
    const uint64_t first = addr >> ls;
    const uint64_t last = (addr + (size ? size - 1 : 0)) >> ls;

    Result out;
    out.latency = uint64_t(l1_.latency());
    for (uint64_t line = first; line <= last; ++line) {
        const uint64_t a = line * lb;
        auto r1 = l1_.access(a, false);
        if (r1.writeback)
            l2_.access(r1.wbLineAddr, true);
        if (r1.hit)
            continue;

        // Miss: allocate an MSHR (bounds memory-level parallelism).
        auto mshr = std::min_element(mshrFree_.begin(), mshrFree_.end());
        const uint64_t start = std::max(cycle, *mshr);

        auto fill = fillFrom(a, start);
        uint64_t lat;
        switch (fill.level) {
          case Level::L2:
            lat = uint64_t(l2_.latency());
            break;
          case Level::Llc:
            lat = uint64_t(llc_.latency());
            break;
          default:
            // dram_.access absorbs fill.extra into its start time, so
            // subtract it back out: the L2/LLC queue wait must be
            // charged exactly once (double-charging lets MSHR release
            // times outrun physical time and the bandwidth queues
            // ratchet off each other without bound).
            lat = dram_.access(start + fill.extra) -
                  (start + fill.extra) + uint64_t(llc_.latency());
            break;
        }
        const uint64_t ready = start + fill.extra + lat;
        *mshr = ready;
        out.latency = std::max(out.latency, ready - cycle);
        if (int(fill.level) > int(out.level))
            out.level = fill.level;

        // Simple next-line prefetch on demand miss (streaming helper);
        // the prefetch fill consumes real L2/LLC/DRAM bandwidth.
        if (cfg_.l1d.nextLinePrefetch) {
            const uint64_t next = a + lb;
            if (!l1_.probe(next)) {
                auto p1 = l1_.access(next, false);
                if (p1.writeback)
                    l2_.access(p1.wbLineAddr, true);
                auto pf = fillFrom(next, start);
                if (pf.level == Level::Dram)
                    dram_.access(start + pf.extra);
            }
        }
    }
    return out;
}

MemHierarchy::Result
MemHierarchy::store(uint64_t addr, uint32_t size, uint64_t cycle)
{
    const uint64_t lb = uint64_t(l1_.lineBytes());
    const unsigned ls = unsigned(__builtin_ctzll(lb));
    const uint64_t first = addr >> ls;
    const uint64_t last = (addr + (size ? size - 1 : 0)) >> ls;

    Result out;
    out.latency = 1;
    for (uint64_t line = first; line <= last; ++line) {
        const uint64_t a = line * lb;
        auto r1 = l1_.access(a, true);
        if (r1.writeback)
            l2_.access(r1.wbLineAddr, true);
        if (!r1.hit) {
            // Write-allocate: fetch the line; latency hidden by the
            // store buffer but traffic and MSHR occupancy are real.
            auto mshr = std::min_element(mshrFree_.begin(),
                                         mshrFree_.end());
            const uint64_t start = std::max(cycle, *mshr);
            auto fill = fillFrom(a, start);
            uint64_t lat;
            switch (fill.level) {
              case Level::L2:
                lat = uint64_t(l2_.latency());
                break;
              case Level::Llc:
                lat = uint64_t(llc_.latency());
                break;
              default:
                // Same single-charge rule as the load path.
                lat = dram_.access(start + fill.extra) -
                      (start + fill.extra) + uint64_t(llc_.latency());
                break;
            }
            *mshr = start + fill.extra + lat;
            if (int(fill.level) > int(out.level))
                out.level = fill.level;
        }
    }
    return out;
}

void
MemHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    llc_.reset();
    dram_.reset();
    std::fill(mshrFree_.begin(), mshrFree_.end(), 0);
    l2Free_ = 0.0;
    llcFree_ = 0.0;
    dramReads_ = 0;
    dramWrites_ = 0;
}

void
MemHierarchy::resetStats()
{
    l1_.resetStats();
    l2_.resetStats();
    llc_.resetStats();
    dramReads_ = 0;
    dramWrites_ = 0;
}

} // namespace swan::sim
