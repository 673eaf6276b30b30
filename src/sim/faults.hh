/**
 * @file
 * Fault-injection scenarios over the fused replay engine: deterministic,
 * seedable adversarial perturbations (DRAM latency spikes, cache-flush
 * storms, branch-mispredict bursts, firstfault-style partial progress)
 * delivered through the sim::ReplayObserver payload seam. Scenarios are
 * first-class sweep axes — a FaultSpec rides SweepSpec/SessionOptions/
 * `swan sweep --faults` and partitions the result cache (faulted and
 * clean points never collide). The design follows KEDR's
 * fault-simulation payloads: a scenario indicator (here: seeded
 * instruction-index windows) decides *when* to fault, an actuator
 * decides *what* the fault does. See docs/faults.md.
 */

#ifndef SWAN_SIM_FAULTS_HH
#define SWAN_SIM_FAULTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/core_model.hh"

namespace swan::sim
{

/** The fault scenario family (FaultSpec::catalog() documents each). */
enum class FaultScenario : uint8_t
{
    None = 0,         //!< clean run (the default axis value)
    DramSpike,        //!< DRAM latency multiplied during windows
    CacheFlush,       //!< all cache levels flushed, repeatedly, per window
    MispredictBurst,  //!< branch mispredict rate raised during windows
    FirstFault,       //!< multi-element vector ops truncated to a lane prefix
};

/**
 * One parsed fault scenario: what to inject, when, and how hard.
 *
 * Timing model: instruction indices are counted cumulatively across
 * every replay pass of a sweep point (warmups included), and divided
 * into slots of @ref period instructions. Window k opens at
 * `k*period + jitter(k)` — jitter is a splitmix64 hash of
 * `seed ^ k`, bounded so the window fits its slot — and stays open for
 * @ref duration instructions. Everything is a pure function of
 * (spec, instruction index), so identical seeds give byte-identical
 * results for any job count.
 */
struct FaultSpec
{
    FaultScenario scenario = FaultScenario::None;
    uint64_t seed = 1;
    uint64_t period = 50000;    //!< instructions per window slot
    uint64_t duration = 5000;   //!< instructions a window stays open
    /**
     * Scenario-specific strength; 0 selects the per-scenario default:
     * dram-spike = latency multiplier (default 8, at most 100),
     * cache-flush = flushes per window (default 4, at most 1000; a
     * window fires min(intensity, duration) of them, at most one per
     * window instruction),
     * mispredict-burst = mispredict rate while open (default 0.25, at
     * most 1), firstfault = element clamp (default 1, at most 255;
     * max(floor(intensity), 1) elements). For cache-flush and
     * firstfault, parse() stores the count that applies, so specs that
     * replay alike share one describe() and one fingerprint().
     */
    double intensity = 0.0;

    bool enabled() const { return scenario != FaultScenario::None; }

    /** Intensity with the per-scenario default applied. */
    double effectiveIntensity() const;

    /** Canonical short name of @p s ("none", "dram-spike", ...). */
    static const char *name(FaultScenario s);

    /**
     * Parse `scenario[:key=value]...` (keys: seed, period, duration,
     * intensity; e.g. "dram-spike:seed=7:intensity=16" — parameters
     * are colon-separated so specs can live in a comma-separated axis
     * list). "" and "none" give a disabled spec. Integers are plain
     * decimal digits up to 2^64-1; an intensity must be finite, >= 0
     * and within its scenario's cap. On failure returns false and sets
     * @p err to a message that embeds the scenario catalog().
     */
    static bool parse(const std::string &text, FaultSpec *out,
                      std::string *err);

    /** Canonical round-trippable form ("dram-spike:seed=7,..."). */
    std::string describe() const;

    /**
     * Stable identity of the scenario (FNV-1a over every field).
     * 0 if and only if disabled — CacheKey folds this in so faulted
     * and clean points can never share a cache entry, while clean
     * keys hash exactly as they did before faults existed.
     */
    uint64_t fingerprint() const;

    /** Human-readable scenario catalog (the --faults=help text). */
    static std::string catalog();
};

/**
 * The ReplayObserver payload realizing a FaultSpec: tracks the seeded
 * window schedule across passes and drives the CoreModel actuators at
 * window edges. One instance serves one sweep point (it accumulates
 * the cross-pass instruction offset in end()); models must be the
 * same span on every pass.
 */
class FaultObserver final : public ReplayObserver
{
  public:
    explicit FaultObserver(const FaultSpec &spec);

    void begin(std::span<CoreModel *const> models) override;
    uint64_t nextBoundary(uint64_t pos) override;
    void atBoundary(uint64_t pos,
                    std::span<CoreModel *const> models) override;
    void end(uint64_t total, std::span<CoreModel *const> models) override;
    uint32_t elemClamp() const override;

  private:
    uint64_t windowStart(uint64_t k) const;
    /** Global position of the next pending event, or kNoBoundary. */
    uint64_t nextEventPos() const;
    /** Fire every event at or before global position @p g. */
    void runEventsThrough(uint64_t g, std::span<CoreModel *const> models);

    void applyWindow(std::span<CoreModel *const> models);
    void revertWindow(std::span<CoreModel *const> models);

    FaultSpec spec_;
    uint64_t base_ = 0;      //!< instructions consumed by finished passes
    uint64_t window_ = 0;    //!< index of the next (or open) window
    uint32_t flashIdx_ = 0;  //!< cache-flush storm: flushes fired so far
    uint32_t flashes_ = 1;   //!< cache-flush storm: flushes per window
    bool open_ = false;      //!< inside a fault window
    uint32_t clamp_ = 0;     //!< firstfault element clamp while open
    bool saved_ = false;     //!< baselines captured
    std::vector<uint64_t> baseDramLatency_;
    std::vector<double> baseMispredictRate_;
};

/**
 * simulateTraceMany with a fault scenario attached: the clean
 * overload (sim/core_model.hh) with a FaultObserver as its payload, so
 * @p fault is injected across all passes, warm-ups included, and every
 * model keeps a private cache hierarchy. A window still open when the
 * measured pass ends needs no reverting: CoreModel::finish() reads
 * nothing an actuator changes. A disabled spec calls the clean
 * overload without a payload, so clean sweep points are bit-identical
 * to a build without fault support.
 */
std::vector<SimResult>
simulateTraceMany(const trace::PackedTrace &trace,
                  const std::vector<CoreConfig> &cfgs,
                  const FaultSpec &fault, int warmup_passes = 1);

} // namespace swan::sim

#endif // SWAN_SIM_FAULTS_HH
