/**
 * @file
 * Trace-driven core timing models. CoreModel replays a packed dynamic
 * instruction trace (through the fused engine, replay()) and models
 * either an out-of-order core (Cortex-A76-like Prime/Gold: ROB,
 * W-wide dispatch/commit, functional-unit pools, MSHR-limited memory-level
 * parallelism) or an in-order core (Cortex-A55-like Silver). This is the
 * substitute for the paper's Ramulator-based trace-driven simulator plus
 * the Simpleperf PMU measurements.
 */

#ifndef SWAN_SIM_CORE_MODEL_HH
#define SWAN_SIM_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/configs.hh"
#include "swan/internal/contracts.hh"
#include "trace/instr.hh"
#include "trace/packed.hh"

namespace swan::sim
{

/** Metrics of one simulated run (the measured pass). */
struct SimResult
{
    std::string config;
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;
    double timeSec = 0.0;

    double l1Mpki = 0.0;
    double l2Mpki = 0.0;
    double llcMpki = 0.0;
    double l1HitRate = 0.0;
    double feStallPct = 0.0;    //!< % cycles lost to the front-end
    double beStallPct = 0.0;    //!< % issue slots lost to the back-end

    uint64_t dramReads = 0;
    uint64_t dramWrites = 0;
    /** Main-memory accesses per kilo-cycle (the Section 5.3 rate). */
    double dramAccessPerKCycle = 0.0;

    // Event counts for the power model.
    std::array<uint64_t, size_t(trace::InstrClass::NumClasses)> byClass{};
    uint64_t vecBytes = 0;      //!< sum of vector datapath bytes
    uint64_t l1Accesses = 0;
    uint64_t l2Accesses = 0;
    uint64_t llcAccesses = 0;

    double energyJ = 0.0;       //!< filled by PowerModel
    double powerW = 0.0;        //!< filled by PowerModel
};

class CoreModel;
class ReplayObserver;

/**
 * Warm-up instructions a payload-free simulateTraceMany steps the
 * configurations through on a longer trace: the last kWarmupStepTail
 * of its last warm-up pass. The rest of the warm-up only walks the
 * cache hierarchies.
 */
inline constexpr uint64_t kWarmupStepTail = 4096;

/**
 * Fused replay: decode each packed instruction once — into registers,
 * with no Instr staging buffer — and immediately step every model in
 * @p models from the same decoded fields. Per-descriptor shape lookups
 * (class, FU, latency, occupancy) are hoisted out of the loop into a
 * prototype table built once per call. Each distinct functional cache
 * hierarchy among the models (see CoreModel) is walked once per
 * decoded batch, before the models step it. Each model evolves exactly
 * as it would replayed alone. A @p payload, when given, rides the same
 * pass (ReplayObserver); it may change model state, never the decoded
 * stream. @throws std::runtime_error when the encoded stream is
 * malformed (Cursor checked decode).
 */
void replay(const trace::PackedTrace &trace,
            std::span<CoreModel *const> models,
            ReplayObserver *payload = nullptr);

/**
 * Payload seam on the fused replay engine: a ReplayObserver rides the
 * single decode pass and is called back at *instruction boundaries* it
 * chooses. The engine tests for a payload once per decode batch, so a
 * replay without one pays a branch per batch and nothing per
 * instruction.
 *
 * Protocol, per traversal of replay(trace, models, payload):
 *  - begin(models) once, before any instruction is decoded;
 *  - nextBoundary(pos) returns the next instruction index (relative to
 *    this traversal; the first instruction is index 0, so "boundary b"
 *    fires after b instructions have been stepped) at which the
 *    observer wants control, or kNoBoundary for "never". The engine
 *    caps its decode batches so it never steps across a boundary;
 *    boundaries at or before pos are treated as pos + 1.
 *  - atBoundary(pos, models) runs between two decode batches, so the
 *    observer may freely inspect or perturb the models;
 *  - end(total, models) once, after the last instruction.
 * Every callback reads and changes the models' live state: the engine
 * keeps no copy of it, so there is nothing to sync, and a change made
 * in begin() applies from the traversal's first instruction.
 *
 * Observers derive from this class; the protected statics below are
 * the *actuators* — the only sanctioned channel for perturbing a model
 * mid-replay (ReplayObserver is a friend of CoreModel so payloads
 * never grow ad-hoc friendships). No actuator touches what
 * CoreModel::finish() reads of the configuration, so a payload needs
 * no clean-up before results are taken. sim/faults.hh builds the
 * fault-injection scenario family on exactly this surface.
 */
class ReplayObserver
{
  public:
    /** Sentinel for nextBoundary(): no further callbacks wanted. */
    static constexpr uint64_t kNoBoundary = ~uint64_t(0);

    virtual ~ReplayObserver();

    /** Traversal start; default does nothing. */
    virtual void begin(std::span<CoreModel *const> models);

    /** Next instruction boundary wanted; default kNoBoundary. */
    virtual uint64_t nextBoundary(uint64_t pos);

    /** Control at a requested boundary; default does nothing. */
    virtual void atBoundary(uint64_t pos, std::span<CoreModel *const> models);

    /** Traversal end after @p total instructions; default nothing. */
    virtual void end(uint64_t total, std::span<CoreModel *const> models);

    /**
     * Partial-progress regime: when nonzero, multi-element memory ops
     * (gather/scatter/strided) are truncated to at most this many
     * elements while decoding — a firstfault-style fault where a
     * vector op makes progress on a prefix of its lanes only. Sampled
     * once per decode batch (batches never cross a boundary, so a
     * boundary is where the clamp may change). Default 0 = off.
     */
    virtual uint32_t elemClamp() const;

  protected:
    //! @name Actuators (privileged CoreModel access for payloads)
    //!@{
    static uint64_t dramLatency(const CoreModel &m);
    static void setDramLatency(CoreModel &m, uint64_t latency_cycles);
    static void flushCaches(CoreModel &m);
    static double branchMispredictRate(const CoreModel &m);
    /** Set the modeled mispredict rate and restart the branch
     *  countdown so the new rate takes effect immediately. */
    static void setBranchMispredictRate(CoreModel &m, double rate);
    //!@}
};

/**
 * Incremental trace-driven core model. Its memory system is split like
 * sim/cache.hh's: a functional CacheHierarchy, which may be shared
 * with other models of equal cache geometry, and its own MemTiming.
 * Before the step core consumes a batch of instructions, the batch's
 * loads and stores are walked through the hierarchy once, leaving an
 * outcome table; the step core completes an access that hit L1 on
 * every line inline and hands the rest to its timing. Only
 * simulateTraceMany(const PackedTrace &, ...) without a payload shares
 * a hierarchy — between the models of one fused replay, which walks
 * each distinct hierarchy once. A model built here keeps a private
 * one, so replay payloads (which perturb single models) reach only
 * their own.
 */
class CoreModel
{
  public:
    /** @throws std::invalid_argument for a configuration the model
     *  cannot represent: a functional-unit pool above 255 units, fewer
     *  than one MSHR, a cache geometry sim::Cache rejects, a
     *  branchMispredictRate outside [0, 1], a freqGHz or dramGBs that
     *  is not finite and positive, a dramLatencyNs, l2ServiceCycles or
     *  llcServiceCycles that is not finite and non-negative, or a
     *  negative branchPenalty. */
    explicit CoreModel(const CoreConfig &cfg);

    CoreModel(const CoreModel &) = delete;
    CoreModel &operator=(const CoreModel &) = delete;

    /**
     * Mark the start of the measured region: statistics reset, cache and
     * pipeline state carry over (this is the paper's cache warm-up).
     * Instruction ids restart at 1 on each replayed pass; the model
     * re-bases them automatically.
     */
    void beginMeasurement();

    /** Finalize and return the metrics of the measured region. The
     *  power model is fused into this finish path: energyJ/powerW are
     *  computed from the final counters in the same pass
     *  (PowerParams::forConfig presets; see sim/power.hh), so every
     *  replay entry point returns power-complete results. */
    SimResult finish();

    const CoreConfig &config() const { return cfg_; }

  private:
    /** A model on @p caches, which models of equal geometry may share
     *  (CacheHierarchy::sameGeometry). */
    CoreModel(const CoreConfig &cfg, std::shared_ptr<CacheHierarchy> caches);

    friend std::vector<SimResult>
    simulateTraceMany(const trace::PackedTrace &trace,
                      const std::vector<CoreConfig> &cfgs,
                      int warmup_passes, ReplayObserver *payload);
    friend void replay(const trace::PackedTrace &trace,
                       std::span<CoreModel *const> models,
                       ReplayObserver *payload);
    friend class ReplayObserver;

    /**
     * replay(), with the models stepping only from instruction
     * @p step_from of the traversal on: every hierarchy is walked over
     * the whole trace, and batches are capped at @p step_from as they
     * are at a payload boundary. Before it, each model's branch
     * countdown advances past the walked branches; at it, a model
     * that has never stepped (fresh state) re-bases its instruction
     * ids to the first stepped instruction, so producers older than
     * that read as ready. replay() is step_from 0.
     */
    static void replayPass(const trace::PackedTrace &trace,
                           std::span<CoreModel *const> models,
                           ReplayObserver *payload, uint64_t step_from);

    static constexpr uint8_t kFlagLoad = 1;
    static constexpr uint8_t kFlagStore = 2;
    static constexpr uint8_t kFlagMulti = 4;
    static constexpr uint8_t kFlagBranch = 8;

    /**
     * One instruction as the step core consumes it: identity fields
     * straight from the decoder, shape fields predigested (class/FU
     * predicates as flags, the unpipelined-occupancy rule applied).
     * Model-independent, so the fused loop builds one StepIn per
     * decoded instruction and feeds every configuration's model from
     * it.
     */
    struct StepIn
    {
        uint64_t id;
        uint64_t dep0, dep1, dep2;
        uint64_t addr;
        uint64_t addr2;
        uint32_t size;
        int32_t elemStride;
        uint8_t occBase;    //!< FU occupancy before LSU cracking
        uint8_t latency;
        uint8_t fu;         //!< trace::Fu
        uint8_t cls;        //!< trace::InstrClass
        uint8_t vecBytes;
        uint8_t elems;      //!< max(activeLanes, 1)
        uint8_t flags;      //!< kFlag* predicates
    };

    /** Predigest @p instr for the step core (the fused loop's
     *  per-descriptor prototypes). */
    static StepIn stepInFor(const trace::Instr &instr);

    struct StepState;

    /**
     * One hierarchy's walk of a batch, as the step core reads it back:
     * per memory access in program order (one per load or store, one
     * per element of a multi-address op), its count of L1-missing
     * lines, and those lines' LineOutcome bytes in the same order.
     */
    struct Outcomes
    {
        const uint32_t *misses;
        const uint8_t *lines;
    };

    /**
     * Outcome storage of one traversal, a local of the walking frame:
     * room for accessCap accesses and lineCap line outcomes per
     * walked hierarchy. Up to kInlineWalks hierarchies fit inline, so
     * the common traversal takes nothing from the heap. Batches are
     * walked and stepped in prefixes that fit it (fit()), so it never
     * grows unless a single instruction alone needs more room.
     */
    struct OutcomeTable
    {
        /** Starting room per hierarchy: four accesses and four lines
         *  per instruction of a full fused batch. */
        static constexpr size_t kRoom0 = 4096;
        /** Hierarchies held inline (two cover the paper's grids). */
        static constexpr size_t kInlineWalks = 2;

        /** Room for @p walks hierarchies whose smallest L1 line is
         *  1 << @p line_shift bytes. */
        OutcomeTable(size_t walks, unsigned line_shift);
        OutcomeTable(const OutcomeTable &) = delete;
        OutcomeTable &operator=(const OutcomeTable &) = delete;

        /**
         * The longest prefix of ins[0, n) whose worst case — every
         * touched line an L1 miss — fits; at least 1 when n > 0: a
         * first instruction that does not fit grows the table (a
         * cold, allocating path run under SWAN_NOALLOC_PAUSE).
         */
        size_t fit(const StepIn *ins, size_t n);

        /** Walk @p w's outcomes, as the step core reads them. */
        Outcomes
        of(size_t w) const
        {
            return {misses + w * accessCap, lines + w * lineCap};
        }

        size_t walks;       //!< hierarchies walked per batch
        unsigned lineShift; //!< log2 of their smallest L1 line
        size_t accessCap = kRoom0;
        size_t lineCap = kRoom0;
        uint32_t *misses; //!< walks x accessCap
        uint8_t *lines;   //!< walks x lineCap

      private:
        /** Point misses/lines at heap storage of the current caps. */
        void toHeap();

        std::vector<uint32_t> heapMisses_;
        std::vector<uint8_t> heapLines_;
        uint32_t inlineMisses_[kInlineWalks * kRoom0];
        uint8_t inlineLines_[kInlineWalks * kRoom0];
    };

    /** Walk @p caches over ins[0, n) — a prefix OutcomeTable::fit
     *  admitted — in program and element order, into walk @p w of
     *  @p table. */
    static void walkCaches(CacheHierarchy &caches, const StepIn *ins,
                           size_t n, OutcomeTable &table, size_t w);

    /**
     * The step core: consume @p n predigested instructions. The
     * in-order/out-of-order split is a template parameter, chosen per
     * model and batch by the fused loop. The batch runs on a local
     * copy of st_, written back at its end, keeping the
     * per-instruction recurrence (dispatch/commit cycles, counters) in
     * registers instead of memory. Every instruction is tested for a
     * replayed-pass id restart (a pass start, or concatenated
     * captures). @p mem is the model's hierarchy's walk of exactly
     * ins[0, n).
     */
    template <bool OutOfOrder>
    void stepBlock(const StepIn *ins, size_t n, Outcomes mem);

    /** Completion cycle of producer @p dep (0 = long retired). */
    uint64_t readyOf(const StepState &st, uint64_t dep) const;

    /** Earliest cycle >= @p ready with a free unit; reserves it.
     *  In-order issue: program-order head-of-line reservation. */
    uint64_t reserveFu(uint8_t fu, uint64_t ready, int occupancy);

    /**
     * Out-of-order issue: find the earliest cycle >= @p ready with a
     * free slot in the pool's per-cycle issue table (younger
     * instructions may claim earlier cycles than stalled older ones).
     *
     * The table is a window of cycles anchored at @p dispatch, the
     * issuing instruction's dispatch cycle: every probe and every
     * reservation lands at or after it (ready >= dispatch), and
     * dispatch never decreases, so a slot stamped below it is dead.
     * Every reservation lands inside [dispatch, dispatch + window);
     * when one would not, the window first doubles (re-homing the live
     * slots) until it does. Two live cycles therefore never share a
     * slot, and a probe past the window reads as empty, which is
     * right: nothing can have been reserved there. The window is thus
     * exactly an unbounded per-cycle table.
     *
     * The search is one scan up from @p ready, for any @p occupancy:
     * the slot is the first cycle c at which each of the cycles
     * c .. c + occupancy - 1 holds fewer reservations than the pool
     * has units.
     */
    uint64_t findIssueSlot(uint8_t fu, uint64_t dispatch, uint64_t ready,
                           int occupancy);

    /** Double the issue window until cycle @p end - 1 fits in it, and
     *  re-home the live slots (stamps >= @p dispatch). Cold path. */
    void growIssueWindow(uint64_t dispatch, uint64_t end);

    /** Time the memory side from the walk's outcomes, advancing
     *  @p mem past them; returns the completion cycle. */
    uint64_t memComplete(const StepIn &in, uint64_t start, Outcomes &mem);

    /**
     * Gather/scatter and arbitrary-stride accesses (StrideKind::Gather/
     * Scatter/LdS/StS) crack into per-element cache accesses,
     * lsuCrackPerCycle elements per cycle; the instruction completes
     * with its slowest element.
     */
    uint64_t memCompleteMulti(const StepIn &in, uint64_t start,
                              Outcomes &mem);

    /** Issue-window slots per pool before any growth. */
    static constexpr uint64_t kIssueWindow0 = 1024;

    /**
     * One cycle of one pool's issue table (OoO issue model). Slots are
     * stamped with the full cycle number they describe, so a slot left
     * over from an earlier cycle reads as zero without any clearing
     * sweep — host cost stays O(1) per instruction even when
     * stall-heavy variants advance the dispatch cycle by thousands per
     * instruction.
     */
    struct IssueSlot
    {
        uint64_t cycle = ~uint64_t(0);
        uint8_t used = 0;
    };

    /**
     * The step core's per-instruction mutable scalars, one compact
     * 80-byte block that stepBlock copies into registers per batch.
     * Two per-instruction recurrences are folded in so the loop never
     * divides: robIdx tracks n % robSize incrementally, and
     * branchCountdown counts branches down to the next modeled
     * mispredict (the 1/rate floating divide now runs once per
     * mispredict, not once per branch).
     */
    struct StepState
    {
        uint64_t n = 0;           //!< instructions consumed (all passes)
        uint64_t idOffset = 0;    //!< re-bases per-pass instruction ids
        uint64_t lastSeenId = 0;
        uint64_t dispCycle = 0;
        uint64_t commitCycle = 0;
        uint64_t lastIssue = 0;   //!< in-order program-order issue point
        uint64_t feStallCycles = 0;
        uint64_t branchCountdown = 0; //!< branches to the next mispredict
        int dispCount = 0;
        int commitCount = 0;
        int issueCount = 0;
        uint32_t robIdx = 0;      //!< n % robSize, maintained incrementally
    };
    // stepBlock copies this into a local per batch so that the
    // recurrence stays in registers; it must stay that small.
    static_assert(sizeof(StepState) == 80, "StepState grew");

  private:
    CoreConfig cfg_;
    std::shared_ptr<CacheHierarchy> caches_;
    MemTiming timing_;
    StepState st_;

    /**
     * Completion cycle of the last readyRing_.size() instructions. An
     * instruction cannot dispatch before the one robSize back commits,
     * and commit follows completion, so a producer robSize or more back
     * can never delay a consumer: bit_ceil(robSize) entries suffice.
     */
    std::vector<uint64_t> readyRing_;
    std::vector<uint64_t> robRing_;
    std::array<std::vector<uint64_t>, size_t(trace::Fu::NumFus)> fuFree_;
    /** Issue window, pool-major: issueMask_ + 1 slots per pool (see
     *  findIssueSlot). Empty for in-order models. */
    std::vector<IssueSlot> issueSlots_;
    uint64_t issueMask_ = 0;
    /** This traversal's walk of caches_ in the outcome table. */
    uint32_t walk_ = 0;

    // Measurement snapshot.
    uint64_t instr0_ = 0;
    uint64_t cycle0_ = 0;
    uint64_t feStall0_ = 0;
    std::array<uint64_t, size_t(trace::InstrClass::NumClasses)> byClass_{};
    uint64_t vecBytes_ = 0;
};

/**
 * Simulate a packed trace on @p cfg with @p warmup_passes cache-warming
 * replays before the measured pass: simulateTraceMany() with one
 * configuration, on a private cache hierarchy.
 */
SimResult simulateTrace(const trace::PackedTrace &trace,
                        const CoreConfig &cfg, int warmup_passes = 1);

/** AoS-buffer overload: packs @p instrs and runs the packed overload. */
SimResult simulateTrace(const std::vector<trace::Instr> &instrs,
                        const CoreConfig &cfg, int warmup_passes = 1);

/**
 * The one place that runs the paper's simulation protocol:
 * @p warmup_passes cache-warming replays, then the measured pass (the
 * paper warms caches before each measured iteration), then finish().
 * Every pass is one fused traversal over all of @p cfgs: each
 * instruction is decoded once per pass, straight into registers, and
 * every configuration's model steps from the same decoded fields — an
 * N-config sweep point costs one trace traversal per pass, one decode,
 * and zero staging-buffer round-trips.
 *
 * Cache contents depend on the address stream alone, so the warm-up
 * warms them functionally: without @p payload, on a trace longer than
 * kWarmupStepTail, the warm-up passes walk every distinct hierarchy
 * over every instruction, and the models step only the last
 * kWarmupStepTail instructions of the last one, from fresh state, so
 * the measured pass still starts on a busy pipeline. DRAM, MSHR and
 * fill-queue state restart at the tail, so a result may differ from a
 * fully stepped warm-up in its last digits; instruction counts and
 * cache statistics never do. A shorter trace, or a replay under a
 * payload, steps every warm-up instruction.
 *
 * Without @p payload, configurations with equal cache geometry
 * (CacheHierarchy::sameGeometry) share one functional hierarchy,
 * walked once per batch; each keeps its own timing. Each model's state
 * evolution only depends on the instruction stream it sees, and cache
 * contents never depend on timing, so result i is bit-identical to
 * simulateTrace(trace, cfgs[i], warmup_passes).
 *
 * With @p payload, every pass (warm-ups included) runs under it, and
 * every model keeps a private hierarchy: payloads perturb single
 * models (a cache flush must not reach a neighbouring model). The
 * FaultSpec overload (sim/faults.hh) is this with a FaultObserver.
 */
std::vector<SimResult>
simulateTraceMany(const trace::PackedTrace &trace,
                  const std::vector<CoreConfig> &cfgs,
                  int warmup_passes = 1, ReplayObserver *payload = nullptr);

} // namespace swan::sim

#endif // SWAN_SIM_CORE_MODEL_HH
