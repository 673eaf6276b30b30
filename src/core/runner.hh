/**
 * @file
 * The measurement harness: captures a kernel implementation's dynamic
 * instruction trace, replays it through a core timing model (with cache
 * warm-up, as the paper does), and applies the power model. This is the
 * software analogue of the paper's measurement flow (Section 4.3):
 * cross-compile -> run pinned to a core -> Simpleperf PMU counters ->
 * battery power rails.
 */

#ifndef SWAN_CORE_RUNNER_HH
#define SWAN_CORE_RUNNER_HH

#include <string_view>
#include <vector>

#include "core/kernel.hh"
#include "core/registry.hh"
#include "sim/core_model.hh"
#include "sim/power.hh"
#include "trace/packed.hh"
#include "trace/stats.hh"

namespace swan::core
{

/** Which implementation of a kernel to run (Figure 2's bars). */
enum class Impl
{
    Scalar,
    Auto,
    Neon,
};

std::string_view name(Impl impl);

/** One implementation's measured results. */
struct KernelRun
{
    sim::SimResult sim;
    trace::MixStats mix;
};

/** Scalar/Auto/Neon comparison of one kernel on one core config. */
struct Comparison
{
    KernelInfo info;
    KernelRun scalar;
    KernelRun autovec;
    KernelRun neon;
    bool verified = false;

    double
    neonSpeedup() const
    {
        return double(scalar.sim.cycles) / double(neon.sim.cycles);
    }
    double
    autoSpeedup() const
    {
        return double(scalar.sim.cycles) / double(autovec.sim.cycles);
    }
    double
    neonEnergyImprovement() const
    {
        return scalar.sim.energyJ / neon.sim.energyJ;
    }
    double
    autoEnergyImprovement() const
    {
        return scalar.sim.energyJ / autovec.sim.energyJ;
    }
    double
    instrReduction() const
    {
        return double(scalar.mix.total()) / double(neon.mix.total());
    }
};

/** Trace-capture + simulation harness. */
class Runner
{
  public:
    explicit Runner(Options opts = Options::fromEnv()) : opts_(opts) {}

    const Options &options() const { return opts_; }

    /** Execute one implementation under a buffering recorder. */
    static std::vector<trace::Instr> capture(Workload &w, Impl impl,
                                             int vec_bits = 128);

    /**
     * capture() into a caller-owned AoS buffer (cleared first,
     * capacity kept), for drivers that reuse one buffer across
     * captures.
     */
    static void captureInto(Workload &w, Impl impl, int vec_bits,
                            std::vector<trace::Instr> *out);

    /**
     * Capture streaming every instruction into @p sink as it is
     * emitted — a PackedTrace::Builder (encode on emit) or a
     * MixStats. Same canonical addresses as the buffered forms.
     */
    static void captureInto(Workload &w, Impl impl, int vec_bits,
                            trace::Sink *sink);

    /**
     * Capture straight into the packed encoding (encode on emit):
     * captureInto() a PackedTrace::Builder counting @p mix on the way,
     * then finish() it — no AoS buffer ever exists. The
     * result equals PackedTrace::pack(capture(...)) byte for byte, and
     * @p mix equals MixStats::addTrace of that capture.
     */
    static trace::PackedTrace capturePacked(Workload &w, Impl impl,
                                            int vec_bits,
                                            trace::MixStats *mix);

    /** Capture + simulate + power for one implementation. */
    KernelRun run(Workload &w, Impl impl, const sim::CoreConfig &cfg,
                  int vec_bits = 128, int warmup_passes = 1) const;

    /** Run Scalar, Auto and Neon and verify outputs. */
    Comparison compare(const KernelSpec &spec,
                       const sim::CoreConfig &cfg) const;

    /** Scalar-vs-Neon only (skips the Auto pass; faster sweeps). */
    Comparison compareScalarNeon(const KernelSpec &spec,
                                 const sim::CoreConfig &cfg,
                                 int vec_bits = 128) const;

  private:
    Options opts_;
};

} // namespace swan::core

#endif // SWAN_CORE_RUNNER_HH
