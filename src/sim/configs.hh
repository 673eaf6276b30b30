/**
 * @file
 * Simulated machine configurations. The baseline mirrors Table 3 of the
 * paper (Snapdragon 855 Cortex-A76 Prime core); Gold and Silver mirror the
 * other two big.LITTLE core types used in Section 5.5, and the
 * scalability() factory produces the xW-yV configurations of Figure 5(b).
 */

#ifndef SWAN_SIM_CONFIGS_HH
#define SWAN_SIM_CONFIGS_HH

#include <array>
#include <cstdint>
#include <string>

#include "trace/instr.hh"

namespace swan::sim
{

/** One cache level. */
struct CacheConfig
{
    // sizeBytes / (lineBytes * ways) sets; lineBytes and the set count
    // must be powers of two, ways positive (sim::Cache throws
    // std::invalid_argument otherwise).
    int sizeBytes = 64 * 1024;
    int ways = 4;
    int lineBytes = 64;
    int latency = 4;            //!< load-to-use latency on hit (cycles)
    bool nextLinePrefetch = false;
};

/** Core + memory-system configuration. */
struct CoreConfig
{
    std::string name = "prime";
    double freqGHz = 2.8;
    bool outOfOrder = true;
    int robSize = 128;
    int decodeWidth = 4;        //!< dispatch (decode/rename) width, "W"
    int issueWidth = 8;         //!< max instructions issued per cycle
    int commitWidth = 4;
    int vecBits = 128;          //!< ASIMD datapath/register width

    /** Functional-unit pool sizes, indexed by trace::Fu: at most 255
     *  units (sim::CoreModel throws std::invalid_argument above that);
     *  0 or less means one unit. */
    std::array<int, size_t(trace::Fu::NumFus)> fuCount{};

    int mshrs = 20;             //!< outstanding L1 misses, >= 1
    CacheConfig l1d;
    CacheConfig l2;
    CacheConfig llc;
    double dramLatencyNs = 100.0;
    double dramGBs = 14.0;      //!< sustained DRAM bandwidth
    // Fill-bandwidth occupancies (~16 B/cycle L2, ~8 B/cycle LLC).
    double l2ServiceCycles = 4.0;   //!< L1-miss service occupancy at L2
    double llcServiceCycles = 8.0;  //!< L2-miss service occupancy at LLC
    double branchMispredictRate = 0.01;
    int branchPenalty = 12;
    /**
     * Elements per cycle a gather/scatter/strided access cracks into at
     * the LSU (extension ISA ops; SVE implementations ship 1-4).
     */
    int lsuCrackPerCycle = 2;

    int vunits() const { return fuCount[size_t(trace::Fu::VUnit)]; }
    uint64_t dramLatencyCycles() const
    {
        return uint64_t(dramLatencyNs * freqGHz);
    }
    /** Cycles of DRAM channel occupancy per 64-byte line. */
    double
    dramServiceCycles() const
    {
        return 64.0 / dramGBs * freqGHz;
    }
};

/** Table 3 baseline: Cortex-A76 Prime core at 2.8 GHz, 4W-2V. */
CoreConfig primeConfig();

/** Cortex-A76 Gold core at 2.4 GHz. */
CoreConfig goldConfig();

/** Cortex-A55 Silver core: 2-wide in-order, one ASIMD unit, 1.8 GHz. */
CoreConfig silverConfig();

/**
 * Figure 5(b) configurations: @p ways decode/commit ways and @p vunits
 * 128-bit ASIMD units on the Prime baseline (e.g. 4,2 = the baseline).
 */
CoreConfig scalabilityConfig(int ways, int vunits);

/** Figure 5(a): Prime baseline with @p vecBits -wide vector datapath. */
CoreConfig widerVectorConfig(int vecBits);

} // namespace swan::sim

#endif // SWAN_SIM_CONFIGS_HH
