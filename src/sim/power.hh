/**
 * @file
 * Event-energy power model: substitutes for the paper's battery
 * current/voltage measurement (Section 4.3). Total chip power = dynamic
 * event energy (per-instruction pipeline energy, datapath energy scaled by
 * vector width, cache accesses per level, DRAM line transfers) divided by
 * runtime, plus a per-core-config static/background term that includes
 * the rest of the SoC and DRAM standby (the paper measures whole-chip
 * power including main memory).
 *
 * The two first-order effects the paper reports emerge directly: higher
 * DRAM access *rate* raises Neon power (Section 5.3 / Figure 3), and
 * shorter runtime cuts energy (Figure 2).
 */

#ifndef SWAN_SIM_POWER_HH
#define SWAN_SIM_POWER_HH

#include "sim/core_model.hh"

namespace swan::sim
{

/** Per-event energies (joules) and static power (watts). */
struct PowerParams
{
    double eScalarInstr = 90e-12;  //!< fetch/decode/execute, scalar
    double eBranch = 60e-12;
    double eVecInstr = 140e-12;    //!< vector instruction overhead
    double eVecPerByte = 5e-12;    //!< vector datapath energy per byte
    double eL1Access = 25e-12;
    double eL2Access = 90e-12;
    double eLlcAccess = 240e-12;
    double eDramLine = 5e-9;       //!< 64-byte line incl. LPDDR IO
    double staticW = 0.80;         //!< SoC + DRAM background at load

    /** Static power presets per core type. */
    static PowerParams forConfig(const CoreConfig &cfg);
};

/**
 * Fill result.energyJ / result.powerW from the event counts.
 * CoreModel::finish already applies this with the per-config presets
 * (the power model is fused into the replay's finish path), so only
 * custom PowerParams studies need to call it; re-applying is
 * idempotent — the fields are recomputed from the counters.
 */
void applyPowerModel(SimResult &result, const PowerParams &params);

} // namespace swan::sim

#endif // SWAN_SIM_POWER_HH
