/**
 * @file
 * Declarative sweep grids. A SweepSpec names a cartesian product over
 * the experiment axes the paper's figures vary — kernel (registry
 * filters), implementation, vector width, core configuration preset and
 * working-set preset — and expand() flattens it into an ordered vector
 * of SweepPoints for the scheduler. The flat index is the contract that
 * makes parallel execution reproducible: results land by point index,
 * so output order never depends on thread interleaving.
 */

#ifndef SWAN_SWEEP_GRID_HH
#define SWAN_SWEEP_GRID_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/kernel.hh"
#include "core/runner.hh"
#include "sim/configs.hh"
#include "sim/faults.hh"
#include "swan/internal/contracts.hh"

namespace swan::sweep
{

/** Which registered kernels a sweep covers. */
struct KernelFilter
{
    /**
     * Explicit kernels (qualified "ZL/adler32" or plain "adler32").
     * Empty means every registered kernel (subject to the filters
     * below). Explicitly named kernels bypass the excluded flag, like
     * the DES study kernel.
     */
    std::vector<std::string> names;
    std::string library;        //!< Table-2 symbol, e.g. "ZL"; empty = all
    bool widerOnly = false;     //!< only the eight Figure-5 kernels
    bool includeExcluded = false;
};

/**
 * A declarative experiment grid. Core configurations and working sets
 * are named presets (configForName / workingSetForName) so a spec is a
 * pure value: hashable, printable, and buildable from CLI flags.
 */
struct SweepSpec
{
    KernelFilter kernels;
    std::vector<core::Impl> impls{core::Impl::Neon};
    std::vector<int> vecBits{128};
    std::vector<std::string> configs{"prime"};
    std::vector<std::string> workingSets{"default"};
    /**
     * Fault-scenario axis (sim::FaultSpec::parse syntax; see
     * sim/faults.hh). Empty means clean-only — the historic grid,
     * expanded without a fault dimension. "none" is an explicit clean
     * point inside a fault sweep.
     */
    std::vector<std::string> faults;
    int warmupPasses = 1;
};

/** One fully-resolved experiment point of the flattened grid. */
struct SweepPoint
{
    size_t index = 0;           //!< position in the expanded grid
    const core::KernelSpec *spec = nullptr;
    core::Impl impl = core::Impl::Neon;
    uint16_t vecBits = 128;     //!< 128..1024
    sim::FaultSpec fault;       //!< parsed scenario (disabled when clean)
    std::string faultName = "none"; //!< axis label ("none" when clean)
    std::string configName;
    sim::CoreConfig config;
    std::string workingSetName;
    core::Options options;
};

/**
 * Resolve a core-configuration preset: "prime", "gold", "silver",
 * "wider" (Figure 5(a): the Prime datapath widened to the point's
 * vector width), or a Figure 5(b) scalability name like "4W-2V".
 * @return false if the name is not a preset.
 */
bool configForName(const std::string &name, int vec_bits,
                   sim::CoreConfig *out);

/**
 * Resolve a working-set preset: "default" (Options::fromEnv), "full"
 * (Options::full, paper Section 4.1 sizes), "tiny" (Options::tiny, the
 * SWAN_FAST sizes), "scalability" (default clamped LLC-resident, the
 * Figure-5 protocol).
 * @return false if the name is not a preset.
 */
bool workingSetForName(const std::string &name, core::Options *out);

/**
 * Clamp @p base so every kernel's working set stays LLC-resident — the
 * software analogue of the paper's Section 4.3 cache warm-up protocol
 * for the scalability studies, where register-width and issue-width
 * effects must not be masked by DRAM bandwidth.
 */
core::Options scalabilityOptions(core::Options base);

/**
 * Flatten @p spec into ordered points: kernel-major, then working set,
 * fault scenario, core config, implementation, vector width.
 * Combinations that cannot
 * run are dropped, not errors: widths above 128 on kernels without a
 * width-generic Neon implementation, and duplicate (Scalar, Auto)
 * points that differ only in vector width (scalar code has no width
 * axis; width is normalized to 128).
 *
 * @return the points, or an empty vector with @p err set when the spec
 *         names an unknown kernel/config/working set or matches nothing.
 */
std::vector<SweepPoint> expand(const SweepSpec &spec, std::string *err);

} // namespace swan::sweep

#endif // SWAN_SWEEP_GRID_HH
