/**
 * @file
 * Trace capture: runs one implementation of a kernel under a recorder
 * and yields its dynamic instruction trace, buffered or encoded on
 * emit. Session::run replays one capture through a core timing model
 * (with cache warm-up, as the paper does) and the power model; an
 * Experiment does the same for a grid of points. This is the software
 * analogue of the paper's measurement flow (Section 4.3):
 * cross-compile -> run pinned to a core -> Simpleperf PMU counters ->
 * battery power rails.
 */

#ifndef SWAN_CORE_RUNNER_HH
#define SWAN_CORE_RUNNER_HH

#include <string_view>
#include <vector>

#include "core/kernel.hh"
#include "sim/core_model.hh"
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

/** The capture entry points; every capture path runs through them. */
class Runner
{
  public:
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
     * emitted (a PackedTrace::Builder encodes on emit). Same
     * canonical addresses as the buffered forms.
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
};

} // namespace swan::core

#endif // SWAN_CORE_RUNNER_HH
