/**
 * @file
 * swan::Experiment — the fluent grid builder of the public API. An
 * Experiment names *what* to run (kernels x implementations x vector
 * widths x core-config presets x working-set presets); the Session it
 * is bound to supplies *how* (threads, caches, budgets). run() expands
 * the grid, executes it on the parallel sweep engine through the
 * session's result cache — points sharing a capture replay through
 * the fused single-decode multi-config engine (sim::replay, see
 * docs/trace.md) — and returns a Results view. Output order is the
 * deterministic flattened-grid order whatever the job count.
 *
 *   Session session = Session::fromEnv();
 *   Results r = Experiment(session)
 *                   .impls({core::Impl::Scalar, core::Impl::Neon})
 *                   .configs({"silver", "gold", "prime"})
 *                   .run();
 *   r.emit(std::cout, sweep::Format::Table);
 */

#ifndef SWAN_EXPERIMENT_HH
#define SWAN_EXPERIMENT_HH

#include <string>
#include <vector>

#include "swan/results.hh"
#include "swan/session.hh"
#include "sweep/grid.hh"

namespace swan
{

class Experiment
{
  public:
    /** Bind to @p session. Defaults: every headline kernel, Neon,
     *  128-bit, "prime" core, "default" working set, the session's
     *  warm-up passes. */
    explicit Experiment(Session &session);

    // --- kernel axis ---------------------------------------------------
    /** Explicit kernels ("ZL/adler32" or plain "adler32"); explicit
     *  names bypass the excluded flag. Empty = every registered kernel
     *  subject to the filters below. */
    Experiment &kernels(std::vector<std::string> names);
    /** Append one explicit kernel. */
    Experiment &kernel(std::string name);
    /** Restrict to one Table-2 library symbol, e.g. "ZL". */
    Experiment &library(std::string symbol);
    /** Only the eight Figure-5 wider-register kernels. */
    Experiment &widerOnly(bool on = true);
    /** Include the DES-style study kernels the paper excludes. */
    Experiment &includeExcluded(bool on = true);

    // --- remaining axes ------------------------------------------------
    Experiment &impls(std::vector<core::Impl> impls);
    Experiment &impl(core::Impl impl);
    Experiment &vecBits(std::vector<int> bits);
    /** Core-config presets: "prime", "gold", "silver", "wider", "4W-2V"
     *  ... (see sweep::configForName). */
    Experiment &configs(std::vector<std::string> names);
    Experiment &config(std::string name);
    /** Working-set presets: "default", "full", "tiny", "scalability"
     *  (see sweep::workingSetForName). */
    Experiment &workingSets(std::vector<std::string> names);
    Experiment &workingSet(std::string name);
    /** Override the session's cache warm-up passes for this grid. */
    Experiment &warmupPasses(int passes);

    // --- fault axis ------------------------------------------------------
    /**
     * Fault-injection scenarios as a sweep axis, one grid point per
     * entry per (kernel, width, config, working set) combination. Each
     * entry is a `scenario[:key=value]...` spec — "none",
     * "dram-spike:seed=7:intensity=16", "cache-flush", ... (catalog:
     * swan/faults.hh or `swan sweep --faults=help`). Faults perturb
     * replay only, never capture, so faulted points share the clean
     * points' captured traces but never their cached results; identical
     * seeds give byte-identical results for any job count. Empty (the
     * default) inherits SessionOptions::faults; the session default
     * empty too = clean simulation only.
     */
    Experiment &faults(std::vector<std::string> scenarios);
    /** Append one fault scenario to the axis. */
    Experiment &fault(std::string scenario);

    // --- streaming -----------------------------------------------------
    /**
     * Stream every finished row as results land, strictly in the
     * deterministic point-index (flattened-grid) order — the same
     * order the Results view iterates. The RowOrigin tells where each
     * row came from: the result cache or this run's simulation.
     * Invoked from sweep threads (serialized by the engine, never
     * concurrently); the callback may allocate freely but must not
     * re-enter the session.
     * Pass nullptr to clear.
     * Powers `swan sweep --progress`.
     */
    Experiment &onRow(sweep::RowCallback callback);

    /** The declarative spec this builder has accumulated. */
    const sweep::SweepSpec &spec() const { return spec_; }

    /** The bound session. */
    Session &session() const { return *session_; }

    /**
     * Expand and execute the grid. @throws swan::Error when the spec
     * names an unknown kernel/config/working set or matches nothing,
     * or when a sweep worker fails.
     */
    Results run() const;

    /**
     * Non-throwing run(): on failure returns an empty Results and sets
     * @p err to the diagnostic.
     */
    Results run(std::string *err) const;

  private:
    Session *session_;
    sweep::SweepSpec spec_;
    sweep::RowCallback onRow_;
};

} // namespace swan

#endif // SWAN_EXPERIMENT_HH
