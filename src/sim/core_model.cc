#include "sim/core_model.hh"

#include "obs/telemetry.hh"
#include "sim/power.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace swan::sim
{

using trace::Instr;
using trace::InstrClass;

/** Latencies at or above this occupy their unit (divides, unpipelined). */
constexpr int kUnpipelinedLat = 10;

/** Models a replay sets up for on the stack (model pointers, walks). */
constexpr size_t kStackModels = 16;

namespace
{

/** Reject a mispredict rate that is not a probability. */
double
checkedMispredictRate(double rate)
{
    // Written so that NaN fails too.
    if (!(rate >= 0.0 && rate <= 1.0))
        throw std::invalid_argument(
            "swan: branchMispredictRate must be in [0, 1], got " +
            std::to_string(rate));
    return rate;
}

/** Branches between modeled mispredicts (>= 1), or 0 for never: a rate
 *  of 0, or one so small the interval does not fit 64 bits. */
inline uint64_t
mispredictInterval(double rate)
{
    const double interval = rate > 0.0 ? 1.0 / rate : 0.0;
    return interval < 0x1p64 ? uint64_t(interval) : 0;
}

/** The branch countdown after @p branches more branches, as the step
 *  core counts them: the branch that takes it to 0 mispredicts and
 *  restarts it at @p interval. */
inline uint64_t
skipBranches(uint64_t countdown, uint64_t branches, uint64_t interval)
{
    if (branches < countdown)
        return countdown - branches;
    if (countdown == 0 || interval == 0)
        return 0;
    return interval - (branches - countdown) % interval;
}

/**
 * @p cfg, once its scalars are known to convert: the model turns
 * frequencies, latencies and penalties into unsigned cycle counts, so a
 * negative, infinite or NaN value would convert to garbage (or be
 * undefined behavior) instead of failing.
 */
const CoreConfig &
checkedConfig(const CoreConfig &cfg)
{
    const auto require = [](bool ok, const char *what, double got) {
        if (!ok)
            throw std::invalid_argument(std::string("swan: ") + what +
                                        ", got " + std::to_string(got));
    };
    checkedMispredictRate(cfg.branchMispredictRate);
    const auto positive = [](double v) { return std::isfinite(v) && v > 0; };
    const auto nonNegative = [](double v) {
        return std::isfinite(v) && v >= 0;
    };
    require(positive(cfg.freqGHz), "freqGHz must be finite and positive",
            cfg.freqGHz);
    require(positive(cfg.dramGBs), "dramGBs must be finite and positive",
            cfg.dramGBs);
    require(nonNegative(cfg.dramLatencyNs),
            "dramLatencyNs must be finite and non-negative",
            cfg.dramLatencyNs);
    require(nonNegative(cfg.l2ServiceCycles),
            "l2ServiceCycles must be finite and non-negative",
            cfg.l2ServiceCycles);
    require(nonNegative(cfg.llcServiceCycles),
            "llcServiceCycles must be finite and non-negative",
            cfg.llcServiceCycles);
    require(cfg.branchPenalty >= 0, "branchPenalty must be non-negative",
            cfg.branchPenalty);
    return cfg;
}

} // namespace

CoreModel::CoreModel(const CoreConfig &cfg)
    : CoreModel(cfg, std::make_shared<CacheHierarchy>(cfg))
{
}

CoreModel::CoreModel(const CoreConfig &cfg,
                     std::shared_ptr<CacheHierarchy> caches)
    : cfg_(checkedConfig(cfg)), caches_(std::move(caches)), timing_(cfg),
      readyRing_(std::bit_ceil(size_t(std::max(cfg.robSize, 1))), 0),
      robRing_(size_t(std::max(cfg.robSize, 1)), 0)
{
    for (size_t f = 0; f < fuFree_.size(); ++f) {
        // Issue slots count a pool's busy units in a byte.
        if (cfg_.fuCount[f] > 255)
            throw std::invalid_argument(
                "swan: a functional-unit pool holds at most 255 units, "
                "got " + std::to_string(cfg_.fuCount[f]));
        int count = std::max(cfg_.fuCount[f], 1);
        fuFree_[f].assign(size_t(count), 0);
    }
    if (cfg_.outOfOrder) {
        issueSlots_.assign(fuFree_.size() * kIssueWindow0, IssueSlot{});
        issueMask_ = kIssueWindow0 - 1;
    }
    st_.branchCountdown = mispredictInterval(cfg_.branchMispredictRate);
}

void
CoreModel::growIssueWindow(uint64_t dispatch, uint64_t end)
{
    const uint64_t oldSlots = issueMask_ + 1;
    uint64_t slots = oldSlots;
    while (end - dispatch > slots)
        slots *= 2;
    std::vector<IssueSlot> grown(fuFree_.size() * slots);
    for (size_t f = 0; f < fuFree_.size(); ++f) {
        const IssueSlot *from = issueSlots_.data() + f * oldSlots;
        IssueSlot *to = grown.data() + f * slots;
        for (uint64_t i = 0; i < oldSlots; ++i) {
            // Live slots lie in [dispatch, dispatch + oldSlots); dead
            // ones (below dispatch) and never-used ones are dropped.
            if (from[i].cycle - dispatch <= issueMask_)
                to[from[i].cycle & (slots - 1)] = from[i];
        }
    }
    issueSlots_.swap(grown);
    issueMask_ = slots - 1;
}

uint64_t
CoreModel::findIssueSlot(uint8_t fu, uint64_t dispatch, uint64_t ready,
                         int occupancy)
{
    const uint64_t mask = issueMask_;
    IssueSlot *ring = issueSlots_.data() + fu * (mask + 1);
    const uint8_t limit = uint8_t(fuFree_[fu].size());
    // A full cycle rules out every start up to and including it.
    uint64_t c = ready;
    for (int k = 0; k < occupancy;) {
        const uint64_t at = c + uint64_t(k);
        const auto &slot = ring[at & mask];
        if ((slot.cycle == at ? slot.used : 0) < limit) {
            ++k;
        } else {
            c = at + 1;
            k = 0;
        }
    }
    // The reservation must fit the window anchored at dispatch (see
    // the header). Growing it is rare and allocates, so it runs with
    // the caller's no-alloc region paused.
    if (c + uint64_t(occupancy) - dispatch > mask + 1) {
        {
            SWAN_NOALLOC_PAUSE();
            growIssueWindow(dispatch, c + uint64_t(occupancy));
        }
        ring = issueSlots_.data() + fu * (issueMask_ + 1);
    }
    // One unit is busy for `occupancy` consecutive cycles.
    for (int k = 0; k < occupancy; ++k) {
        auto &slot = ring[(c + uint64_t(k)) & issueMask_];
        if (slot.cycle != c + uint64_t(k)) {
            slot.cycle = c + uint64_t(k);
            slot.used = 0;
        }
        ++slot.used; // stays <= limit <= 255
    }
    return c;
}

CoreModel::StepIn
CoreModel::stepInFor(const Instr &i)
{
    StepIn in;
    in.id = i.id;
    in.dep0 = i.dep0;
    in.dep1 = i.dep1;
    in.dep2 = i.dep2;
    in.addr = i.addr;
    in.addr2 = i.addr2;
    in.size = i.size;
    in.elemStride = i.elemStride;
    in.occBase = uint8_t(i.latency >= kUnpipelinedLat ? i.latency : 1);
    in.latency = i.latency;
    in.fu = uint8_t(i.fu);
    in.cls = uint8_t(i.cls);
    in.vecBytes = i.vecBytes;
    in.elems = uint8_t(std::max<int>(i.activeLanes, 1));
    uint8_t flags = 0;
    if (i.isLoad())
        flags |= kFlagLoad;
    if (i.isStore())
        flags |= kFlagStore;
    if (i.isMultiAddress())
        flags |= kFlagMulti;
    if (i.cls == InstrClass::Branch)
        flags |= kFlagBranch;
    in.flags = flags;
    return in;
}

CoreModel::OutcomeTable::OutcomeTable(size_t walk_count,
                                      unsigned line_shift)
    : walks(walk_count), lineShift(line_shift), misses(inlineMisses_),
      lines(inlineLines_)
{
    if (walks > kInlineWalks)
        toHeap();
}

void
CoreModel::OutcomeTable::toHeap()
{
    heapMisses_.assign(walks * accessCap, 0);
    heapLines_.assign(walks * lineCap, 0);
    misses = heapMisses_.data();
    lines = heapLines_.data();
}

size_t
CoreModel::OutcomeTable::fit(const StepIn *ins, size_t n)
{
    // The walk of ins[k] appends at most one access (elems for a
    // multi-address op) and one line outcome per line it touches.
    size_t accesses = 0;
    uint64_t worst = 0;
    for (size_t k = 0; k < n; ++k) {
        const StepIn &in = ins[k];
        if (!(in.flags & (kFlagLoad | kFlagStore | kFlagMulti)))
            continue;
        size_t a = 1;
        uint64_t l;
        if (in.flags & kFlagMulti) {
            // An element of b >= 1 bytes touches at most
            // ((b - 1) >> lineShift) + 2 lines, wherever it starts.
            a = in.elems;
            const uint32_t elemBytes =
                std::max<uint32_t>(in.size / in.elems, 1);
            l = a * (((elemBytes - 1) >> lineShift) + 2);
        } else {
            // Exact for one access: its first to its last line.
            l = ((in.addr + (in.size ? in.size - 1 : 0)) >> lineShift) -
                (in.addr >> lineShift) + 1;
        }
        if (accesses + a > accessCap || worst + l > lineCap) {
            if (k > 0)
                return k;
            // ins[0] alone needs more room: grow to fit it.
            SWAN_NOALLOC_PAUSE();
            accessCap = std::max(accessCap, a);
            lineCap = std::max<size_t>(lineCap, size_t(l));
            toHeap();
        }
        accesses += a;
        worst += l;
    }
    return n;
}

void
CoreModel::walkCaches(CacheHierarchy &caches, const StepIn *ins, size_t n,
                      OutcomeTable &table, size_t w)
{
    uint32_t *misses = table.misses + w * table.accessCap;
    uint8_t *lines = table.lines + w * table.lineCap;
    for (size_t k = 0; k < n; ++k) {
        const StepIn &in = ins[k];
        if (!(in.flags & (kFlagLoad | kFlagStore | kFlagMulti)))
            continue;
        const bool isLoad = (in.flags & kFlagLoad) != 0;
        if (!(in.flags & kFlagMulti)) {
            const size_t got = isLoad
                                   ? caches.load(in.addr, in.size, lines)
                                   : caches.store(in.addr, in.size, lines);
            *misses++ = uint32_t(got);
            lines += got;
            continue;
        }
        // SVE/RVV-style gather/scatter and arbitrary-stride accesses
        // crack into per-element cache accesses. LdS/StS element
        // addresses are exact (addr + i*elemStride); gather/scatter
        // addresses are data-dependent, so the elements are spread
        // evenly across the touched region [addr, addr2] recorded at
        // emit time — the right cache-line footprint for the uniform
        // LUT keys the Section 6.2 kernels generate.
        const int elems = in.elems;
        const uint32_t elemBytes =
            std::max<uint32_t>(in.size / uint32_t(elems), 1);
        int64_t stride = in.elemStride;
        if (!stride) {
            stride = elems > 1
                         ? (int64_t(in.addr2) - int64_t(in.addr)) /
                               (elems - 1)
                         : 0;
        }
        for (int i = 0; i < elems; ++i) {
            const uint64_t a = uint64_t(int64_t(in.addr) + i * stride);
            const size_t got = isLoad ? caches.load(a, elemBytes, lines)
                                      : caches.store(a, elemBytes, lines);
            *misses++ = uint32_t(got);
            lines += got;
        }
    }
}

uint64_t
CoreModel::readyOf(const StepState &st, uint64_t dep) const
{
    if (dep == 0)
        return 0;
    // Only the last readyRing_.size() - 1 producers can still delay
    // this instruction (see the ring's note): older ones completed
    // before it dispatched. A forward or self dependence (never
    // recorded) has no completion yet and reads as ready too.
    const uint64_t mask = readyRing_.size() - 1;
    const uint64_t eff = dep + st.idOffset;
    if (st.n - eff - 1 >= mask)
        return 0;
    return readyRing_[eff & mask];
}

uint64_t
CoreModel::reserveFu(uint8_t fu, uint64_t ready, int occupancy)
{
    auto &pool = fuFree_[fu];
    auto it = std::min_element(pool.begin(), pool.end());
    const uint64_t start = std::max(ready, *it);
    *it = start + uint64_t(occupancy);
    return start;
}

uint64_t
CoreModel::memComplete(const StepIn &in, uint64_t start, Outcomes &mem)
{
    if (in.flags & kFlagMulti)
        return memCompleteMulti(in, start, mem);
    const uint32_t n = *mem.misses++;
    const uint8_t *o = mem.lines;
    mem.lines += n;
    if (in.flags & kFlagLoad)
        return start +
               std::max<uint64_t>(in.latency, timing_.load(o, n, start));
    timing_.store(o, n, start);
    return start + in.latency;
}

uint64_t
CoreModel::memCompleteMulti(const StepIn &in, uint64_t start,
                            Outcomes &mem)
{
    // The LSU issues the elements (walked in element order by
    // walkCaches) lsuCrackPerCycle at a time.
    const uint64_t crack = uint64_t(std::max(cfg_.lsuCrackPerCycle, 1));
    const bool isLoad = (in.flags & kFlagLoad) != 0;
    uint64_t complete = start + in.latency;
    for (int i = 0; i < in.elems; ++i) {
        const uint64_t issue = start + uint64_t(i) / crack;
        const uint32_t n = *mem.misses++;
        if (isLoad) {
            const uint64_t lat = timing_.load(mem.lines, n, issue);
            complete = std::max(complete,
                                issue + std::max<uint64_t>(in.latency, lat));
        } else {
            timing_.store(mem.lines, n, issue);
            complete = std::max(complete, issue + in.latency);
        }
        mem.lines += n;
    }
    return complete;
}

template <bool OutOfOrder>
void
CoreModel::stepBlock(const StepIn *ins, size_t n, Outcomes mem)
{
    // The whole batch runs on a local copy of st_: the
    // per-instruction recurrence (dispatch/commit cycles and
    // counters) stays in registers, with only the rings and the
    // memory hierarchy going through memory. The copy cannot escape,
    // so the compiler needs no aliasing proofs against the ring
    // stores.
    // The step core is a no-alloc region: it is the per-instruction
    // hot path of every replay (swan/internal/contracts.hh;
    // docs/lint.md). Issue-window growth is its one cold exception.
    SWAN_NOALLOC_BEGIN("CoreModel::stepBlock");
    StepState st = st_;
    const uint32_t robSize = uint32_t(robRing_.size());
    const int decodeWidth = cfg_.decodeWidth;
    const int issueWidth = cfg_.issueWidth;
    const int commitWidth = cfg_.commitWidth;
    uint64_t *const robRing = robRing_.data();
    uint64_t *const readyRing = readyRing_.data();
    const uint64_t readyMask = readyRing_.size() - 1;
    const uint64_t l1Latency = timing_.l1Latency();
    (void)issueWidth; // only the in-order instantiation issues in order
    for (size_t k = 0; k < n; ++k) {
        const StepIn &in = ins[k];
        if (in.id <= st.lastSeenId) {
            // A new replayed pass started: re-base ids.
            st.idOffset = st.n;
        }
        st.lastSeenId = in.id;
        ++st.n;
        if (++st.robIdx == robSize)
            st.robIdx = 0;

        // Dispatch: bounded by decode width and a free ROB slot (for
        // the in-order core the rob ring is its scoreboard-like
        // in-flight window). The ROB gate needs no "warmed past the
        // ring" guard — slots not written yet still hold their
        // initial 0, which cannot raise the max.
        uint64_t d = std::max(st.dispCycle, robRing[st.robIdx]);
        if (d > st.dispCycle) {
            st.dispCycle = d;
            st.dispCount = 0;
        }
        ++st.dispCount;
        if (st.dispCount > decodeWidth) {
            ++st.dispCycle;
            st.dispCount = 1;
        }
        d = st.dispCycle;

        // Operand readiness (dataflow); in-order issue additionally
        // never overtakes the program-order issue point.
        uint64_t ready = d;
        if constexpr (!OutOfOrder)
            ready = std::max(ready, st.lastIssue);
        ready = std::max(ready, readyOf(st, in.dep0));
        ready = std::max(ready, readyOf(st, in.dep1));
        ready = std::max(ready, readyOf(st, in.dep2));

        // Functional unit (divides occupy their unit for the full
        // latency).
        int occ = in.occBase;
        if (in.flags & kFlagMulti) {
            const int crack = std::max(cfg_.lsuCrackPerCycle, 1);
            occ = std::max(occ, (int(in.elems) + crack - 1) / crack);
        }

        uint64_t start;
        if constexpr (OutOfOrder) {
            // Out-of-order issue: younger ready instructions may take
            // earlier cycles than stalled older ones.
            start = findIssueSlot(in.fu, d, ready, occ);
        } else {
            start = reserveFu(in.fu, ready, occ);
            // Program-order issue, at most issueWidth per cycle.
            if (start > st.lastIssue) {
                st.lastIssue = start;
                st.issueCount = 0;
            }
            ++st.issueCount;
            if (st.issueCount > issueWidth) {
                ++st.lastIssue;
                st.issueCount = 1;
                start = st.lastIssue;
            }
        }

        // Execute: pure compute, and an access that hit L1 on every
        // line, complete inline; misses and multi-address ops call
        // into the timing model.
        uint64_t complete = start + in.latency;
        if (in.flags & (kFlagLoad | kFlagStore | kFlagMulti)) {
            if (!(in.flags & kFlagMulti) && *mem.misses == 0) {
                ++mem.misses;
                if (in.flags & kFlagLoad)
                    complete =
                        start + std::max<uint64_t>(in.latency, l1Latency);
            } else {
                complete = memComplete(in, start, mem);
            }
        }

        // Branch handling: a fixed fraction mispredicts and redirects
        // the front-end after resolution (front-end stall
        // attribution).
        if (in.flags & kFlagBranch) {
            if (st.branchCountdown && --st.branchCountdown == 0) {
                st.branchCountdown =
                    mispredictInterval(cfg_.branchMispredictRate);
                const uint64_t redirect =
                    complete + uint64_t(cfg_.branchPenalty);
                if (redirect > st.dispCycle) {
                    st.feStallCycles += redirect - st.dispCycle;
                    st.dispCycle = redirect;
                    st.dispCount = 0;
                }
            }
        }

        // Retire: in-order commit, commitWidth per cycle.
        uint64_t c = std::max(complete, st.commitCycle);
        if (c > st.commitCycle) {
            st.commitCycle = c;
            st.commitCount = 0;
        }
        ++st.commitCount;
        if (st.commitCount > commitWidth) {
            ++st.commitCycle;
            st.commitCount = 1;
        }
        robRing[st.robIdx] = st.commitCycle;
        readyRing[st.n & readyMask] = complete;

        ++byClass_[in.cls];
        vecBytes_ += in.vecBytes;
    }
    st_ = st;
    SWAN_NOALLOC_END();
}

void
CoreModel::beginMeasurement()
{
    instr0_ = st_.n;
    cycle0_ = st_.commitCycle;
    feStall0_ = st_.feStallCycles;
    caches_->resetStats();
    byClass_.fill(0);
    vecBytes_ = 0;
}

SimResult
CoreModel::finish()
{
    SimResult r;
    r.config = cfg_.name;
    r.instrs = st_.n - instr0_;
    r.cycles = st_.commitCycle > cycle0_ ? st_.commitCycle - cycle0_ : 1;
    r.ipc = double(r.instrs) / double(r.cycles);
    r.timeSec = double(r.cycles) / (cfg_.freqGHz * 1e9);

    const double kilo = double(r.instrs) / 1000.0;
    const CacheHierarchy &mem = *caches_;
    r.l1Accesses = mem.l1().accesses();
    r.l2Accesses = mem.l2().accesses();
    r.llcAccesses = mem.llc().accesses();
    if (kilo > 0) {
        r.l1Mpki = double(mem.l1().misses()) / kilo;
        r.l2Mpki = double(mem.l2().misses()) / kilo;
        r.llcMpki = double(mem.llc().misses()) / kilo;
    }
    r.l1HitRate = 1.0 - mem.l1().missRate();

    const uint64_t fe = st_.feStallCycles - feStall0_;
    r.feStallPct = 100.0 * double(fe) / double(r.cycles);
    const double slots = double(r.cycles) * double(cfg_.decodeWidth);
    const double lost =
        slots - double(r.instrs) - double(fe) * double(cfg_.decodeWidth);
    r.beStallPct = std::max(0.0, 100.0 * lost / slots);

    r.dramReads = mem.dramReads();
    r.dramWrites = mem.dramWrites();
    r.dramAccessPerKCycle =
        1000.0 * double(mem.dramAccesses()) / double(r.cycles);

    r.byClass = byClass_;
    r.vecBytes = vecBytes_;
    // Power model fused into the finish path: the energy/power fields
    // are a closed-form function of the counters gathered above, so
    // computing them here makes every replay entry point emit
    // power-complete results in the same pass — no driver needs a
    // separate applyPowerModel() step (it stays available for custom
    // PowerParams; re-applying is idempotent).
    applyPowerModel(r, PowerParams::forConfig(cfg_));
    return r;
}

ReplayObserver::~ReplayObserver() = default;

void
ReplayObserver::begin(std::span<CoreModel *const>)
{
}

uint64_t
ReplayObserver::nextBoundary(uint64_t)
{
    return kNoBoundary;
}

void
ReplayObserver::atBoundary(uint64_t, std::span<CoreModel *const>)
{
}

void
ReplayObserver::end(uint64_t, std::span<CoreModel *const>)
{
}

uint32_t
ReplayObserver::elemClamp() const
{
    return 0;
}

uint64_t
ReplayObserver::dramLatency(const CoreModel &m)
{
    return m.timing_.dram().latency();
}

void
ReplayObserver::setDramLatency(CoreModel &m, uint64_t latency_cycles)
{
    m.timing_.dram().setLatency(latency_cycles);
}

void
ReplayObserver::flushCaches(CoreModel &m)
{
    m.caches_->flush();
}

double
ReplayObserver::branchMispredictRate(const CoreModel &m)
{
    return m.cfg_.branchMispredictRate;
}

void
ReplayObserver::setBranchMispredictRate(CoreModel &m, double rate)
{
    m.cfg_.branchMispredictRate = checkedMispredictRate(rate);
    m.st_.branchCountdown = mispredictInterval(rate);
}

void
replay(const trace::PackedTrace &trace, std::span<CoreModel *const> models,
       ReplayObserver *payload)
{
    CoreModel::replayPass(trace, models, payload, 0);
}

void
CoreModel::replayPass(const trace::PackedTrace &trace,
                      std::span<CoreModel *const> models,
                      ReplayObserver *payload, uint64_t step_from)
{
    if (models.empty())
        return;

    // Hoist the per-descriptor shape work out of the loop: one StepIn
    // prototype per deduplicated descriptor (class/FU predicates,
    // unpipelined occupancy, latency), built once per traversal. This
    // table, the walk list below and simulateTraceMany's model
    // pointers live on the stack for every realistic trace and span.
    // Setup runs once per traversal on every sweep worker, and heap
    // buffers here cost more than their size: a variant that made the
    // three per-traversal std::vectors moved the paper grid's peak RSS
    // median from 60.0 to 75.7 MB (swan sweep --jobs 4, 12 runs).
    constexpr uint32_t kStackDescs = 512;
    const uint32_t dc = trace.descCount();
    CoreModel::StepIn stackProto[kStackDescs];
    std::vector<CoreModel::StepIn> heapProto;
    CoreModel::StepIn *proto = stackProto;
    if (dc > kStackDescs) {
        heapProto.resize(dc);
        proto = heapProto.data();
    }
    for (uint32_t i = 0; i < dc; ++i) {
        Instr shape;
        trace.expandDesc(i, &shape);
        proto[i] = CoreModel::stepInFor(shape);
    }

    // The distinct functional hierarchies among the models, in
    // first-seen order: each is walked once per batch, and every model
    // on it times the same outcomes.
    const size_t nm = models.size();
    CacheHierarchy *stackWalks[kStackModels];
    std::vector<CacheHierarchy *> heapWalks;
    CacheHierarchy **walks = stackWalks;
    if (nm > kStackModels) {
        heapWalks.resize(nm);
        walks = heapWalks.data();
    }
    size_t nw = 0;
    unsigned lineShift = 31;
    for (CoreModel *m : models) {
        CacheHierarchy *h = m->caches_.get();
        m->walk_ = uint32_t(std::find(walks, walks + nw, h) - walks);
        if (m->walk_ == nw) {
            walks[nw++] = h;
            lineShift = std::min(
                lineShift, unsigned(__builtin_ctz(
                               uint32_t(h->l1().lineBytes()))));
        }
    }
    CoreModel::OutcomeTable table(nw, lineShift);

    // The traversal position (instructions stepped so far), the next
    // boundary the payload asked for and its element clamp for the
    // next batch; without a payload no batch is capped or clamped.
    uint64_t pos = 0;
    uint64_t boundary = ReplayObserver::kNoBoundary;
    uint32_t clamp = 0;
    if (payload) {
        payload->begin(models);
        boundary = payload->nextBoundary(0);
        clamp = payload->elemClamp();
    }

    // One decode, N models: each record is decoded into registers and
    // merged with its shape prototype exactly once — per *batch*, not
    // per model — and every model then consumes the batch in turn.
    // The batch keeps a model's pipeline rings, cache arrays and
    // branch history hot across kBatch consecutive steps; strict
    // per-instruction interleave measures ~10% slower (N models
    // thrash each other out of the host's L1 and predictors). No
    // trace::Instr is ever materialized: the batch holds predigested
    // StepIn operands, built once for all configurations.
    //
    // From here to the end of the traversal the engine is heap-free —
    // the setup above (prototype table, walk list) took any allocations
    // it needed; this is the per-instruction hot loop of every
    // replay. Statically checked by swan-lint; dynamically by
    // AllocGuard under -DSWAN_ALLOC_GUARD=ON. Payload callbacks are
    // foreign code and run under SWAN_NOALLOC_PAUSE — the contract
    // binds the engine, not the payload — as does the rare
    // issue-window growth (CoreModel::findIssueSlot).
    SWAN_NOALLOC_BEGIN("sim::replay");
    constexpr size_t kBatch = 4 * trace::PackedTrace::kBlockInstrs;
    // Decode sub-batch: Cursor::nextBatch fills an L1-resident
    // Decoded span which the merge loop folds with the prototype
    // table into StepIn operands.
    constexpr size_t kDecodeChunk = 128;
    CoreModel::StepIn batch[kBatch];
    trace::PackedTrace::Decoded dbuf[kDecodeChunk];
    trace::PackedTrace::Cursor cur(trace);
    while (true) {
        // Never step across a requested boundary: cap the batch so the
        // callback fires exactly when pos reaches it (a stale boundary
        // at or before pos degrades to single stepping). The step
        // start caps walk-only batches the same way.
        const uint64_t stop =
            pos < step_from ? std::min(boundary, step_from) : boundary;
        const size_t cap =
            size_t(std::min<uint64_t>(kBatch, stop > pos ? stop - pos : 1));
        size_t nb = 0;
        while (nb < cap) {
            // Batch decode straight into the Decoded span: the SWAR
            // decoder amortizes bounds checks and keeps the decode
            // recurrence in registers across the whole chunk
            // (trace/packed.cc).
            const size_t got = cur.nextBatch(
                dbuf, std::min(cap - nb, kDecodeChunk));
            if (got == 0)
                break;
            for (size_t j = 0; j < got; ++j) {
                // Identity fields land as one 48-byte copy — Decoded
                // leads with StepIn's identity prefix in the same
                // order — and the shape tail (size/stride/occupancy/
                // flags) is one 16-byte copy from the descriptor
                // prototype.
                const trace::PackedTrace::Decoded &d = dbuf[j];
                CoreModel::StepIn &in = batch[nb++];
                static_assert(
                    offsetof(CoreModel::StepIn, size) == 48 &&
                        offsetof(trace::PackedTrace::Decoded, desc) ==
                            48,
                    "the merge copies Decoded's identity prefix "
                    "straight into StepIn");
                std::memcpy(&in, &d, offsetof(CoreModel::StepIn, size));
                std::memcpy(&in.size, &proto[d.desc].size,
                            sizeof(CoreModel::StepIn) -
                                offsetof(CoreModel::StepIn, size));
            }
        }
        if (nb == 0)
            break;
        // Firstfault-style partial progress: truncate each
        // multi-element access to a prefix of its lanes, keeping the
        // per-element footprint and stride invariant (addr2 is
        // re-derived so the implied stride survives the element-count
        // change).
        for (size_t k = 0; clamp && k < nb; ++k) {
            CoreModel::StepIn &in = batch[k];
            if (!(in.flags & CoreModel::kFlagMulti) ||
                uint32_t(in.elems) <= clamp)
                continue;
            const uint32_t oldElems = in.elems;
            const uint32_t elemBytes =
                std::max<uint32_t>(in.size / oldElems, 1);
            if (in.elemStride == 0 && oldElems > 1) {
                const int64_t stride =
                    (int64_t(in.addr2) - int64_t(in.addr)) /
                    int64_t(oldElems - 1);
                in.addr2 = uint64_t(int64_t(in.addr) +
                                    stride * int64_t(clamp - 1));
            }
            in.elems = uint8_t(clamp);
            in.size = elemBytes * clamp;
        }
        // Before the step start the models only count the walked
        // branches, so mispredicts land where stepping would put them.
        // At it, the fresh models re-base ids so that the first stepped
        // instruction is their first (older producers read as ready).
        const bool step = pos >= step_from;
        if (!step) {
            uint64_t branches = 0;
            for (size_t k = 0; k < nb; ++k)
                branches += (batch[k].flags & CoreModel::kFlagBranch) != 0;
            for (CoreModel *m : models)
                m->st_.branchCountdown = skipBranches(
                    m->st_.branchCountdown, branches,
                    mispredictInterval(m->cfg_.branchMispredictRate));
        } else if (pos == step_from && pos > 0) {
            for (CoreModel *m : models) {
                m->st_.idOffset = 1 - batch[0].id;
                m->st_.lastSeenId = batch[0].id - 1;
            }
        }
        // Walk each distinct hierarchy over the batch, in program and
        // element order, then step every model against its hierarchy's
        // outcomes — in prefixes that fit the outcome table, which
        // batches heavy in multi-address ops can outgrow.
        for (size_t at = 0; at < nb;) {
            const CoreModel::StepIn *sub = batch + at;
            const size_t ns = table.fit(sub, nb - at);
            for (size_t w = 0; w < nw; ++w)
                CoreModel::walkCaches(*walks[w], sub, ns, table, w);
            if (step) {
                for (CoreModel *m : models) {
                    if (m->cfg_.outOfOrder)
                        m->stepBlock<true>(sub, ns, table.of(m->walk_));
                    else
                        m->stepBlock<false>(sub, ns, table.of(m->walk_));
                }
            }
            at += ns;
        }
        pos += nb;
        if (payload) {
            SWAN_NOALLOC_PAUSE();
            if (pos >= boundary) {
                payload->atBoundary(pos, models);
                boundary = payload->nextBoundary(pos);
            }
            clamp = payload->elemClamp();
        }
    }
    SWAN_NOALLOC_END();
    if (payload)
        payload->end(pos, models);
    if (!cur.ok())
        throw std::runtime_error(
            "swan: malformed packed trace rejected by fused replay");
}

SimResult
simulateTrace(const trace::PackedTrace &trace, const CoreConfig &cfg,
              int warmup_passes)
{
    return simulateTraceMany(trace, {cfg}, warmup_passes).front();
}

SimResult
simulateTrace(const std::vector<Instr> &instrs, const CoreConfig &cfg,
              int warmup_passes)
{
    return simulateTrace(trace::PackedTrace::pack(instrs), cfg,
                         warmup_passes);
}

std::vector<SimResult>
simulateTraceMany(const trace::PackedTrace &trace,
                  const std::vector<CoreConfig> &cfgs, int warmup_passes,
                  ReplayObserver *payload)
{
    // Warm-up warms the caches functionally (see the header): without
    // a payload, a trace longer than the tail steps only the last
    // kWarmupStepTail instructions of its last warm-up pass.
    const uint64_t n = trace.size();
    const int passes = std::max(warmup_passes, 0);
    const bool tail = !payload && n > kWarmupStepTail;
    const uint64_t warmSteps = tail && passes ? kWarmupStepTail
                                              : n * uint64_t(passes);
    // One telemetry span per fused traversal set; arg = instruction
    // steps taken (stepped instructions x configs). A single relaxed
    // load when no collector is attached — this is the hot path the
    // obs overhead bench gates (bench/obs_overhead.cc).
    obs::Span span(obs::Phase::Replay, cfgs.size() * (n + warmSteps));
    // Configurations of equal cache geometry share one functional
    // hierarchy: the fused engine walks it once per batch for all of
    // them, and each times the outcomes on its own MemTiming. A
    // payload perturbs single models (a cache flush, a DRAM retime),
    // so under one every model keeps a private hierarchy.
    std::vector<std::unique_ptr<CoreModel>> models;
    models.reserve(cfgs.size());
    for (size_t i = 0; i < cfgs.size(); ++i) {
        std::shared_ptr<CacheHierarchy> caches;
        for (size_t j = 0; j < i && !caches && !payload; ++j)
            if (CacheHierarchy::sameGeometry(cfgs[j], cfgs[i]))
                caches = models[j]->caches_;
        if (!caches)
            caches = std::make_shared<CacheHierarchy>(cfgs[i]);
        models.push_back(std::unique_ptr<CoreModel>(
            new CoreModel(cfgs[i], std::move(caches))));
    }

    // Fused replay: decode once per pass, step every model per decoded
    // instruction (see replay()).
    CoreModel *ptrs[kStackModels];
    std::vector<CoreModel *> heapPtrs;
    CoreModel **base = ptrs;
    if (models.size() > kStackModels) {
        heapPtrs.resize(models.size());
        base = heapPtrs.data();
    }
    for (size_t i = 0; i < models.size(); ++i)
        base[i] = models[i].get();
    const std::span<CoreModel *const> all(base, models.size());
    for (int p = 0; p < passes; ++p)
        CoreModel::replayPass(trace, all, payload,
                              !tail             ? 0
                              : p + 1 < passes ? n
                                               : n - kWarmupStepTail);
    for (auto &m : models)
        m->beginMeasurement();
    replay(trace, all, payload);

    std::vector<SimResult> out;
    out.reserve(models.size());
    for (auto &m : models)
        out.push_back(m->finish());
    return out;
}

} // namespace swan::sim
