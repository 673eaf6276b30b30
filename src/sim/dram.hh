/**
 * @file
 * Bandwidth/latency DRAM model (Ramulator-inspired, simplified): a fixed
 * access latency plus a single-channel service queue that bounds sustained
 * bandwidth. Substitutes for the Ramulator CPU-model back-end of the
 * paper's trace-driven simulator.
 */

#ifndef SWAN_SIM_DRAM_HH
#define SWAN_SIM_DRAM_HH

#include <algorithm>
#include <cstdint>

namespace swan::sim
{

/** Single-channel LPDDR4X-like DRAM timing model. */
class Dram
{
  public:
    /**
     * @param latency_cycles idle-access latency (row activate + CAS + bus)
     * @param service_cycles channel occupancy per 64-byte transfer
     */
    Dram(uint64_t latency_cycles, double service_cycles)
        : latency_(latency_cycles), service_(service_cycles)
    {
    }

    /**
     * Issue one line transfer at @p cycle; returns the data-ready cycle.
     * Back-to-back transfers queue behind each other (bandwidth bound).
     */
    uint64_t
    access(uint64_t cycle)
    {
        const double start = std::max(double(cycle), nextFree_);
        nextFree_ = start + service_;
        return uint64_t(start) + latency_;
    }

    uint64_t latency() const { return latency_; }

    /** Retime the idle-access latency mid-run. Fault-injection
     *  actuator (sim::ReplayObserver payloads model DRAM latency
     *  spikes with it); queued transfers keep their issue order, only
     *  the data-ready offset changes. */
    void setLatency(uint64_t latency_cycles) { latency_ = latency_cycles; }

  private:
    uint64_t latency_;
    double service_;
    double nextFree_ = 0.0;
};

} // namespace swan::sim

#endif // SWAN_SIM_DRAM_HH
