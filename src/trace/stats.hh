/**
 * @file
 * Trace statistics: instruction-class mix (Figure 1), stride census
 * (Table 6) and SIMD lane utilization (Section 7.1). A streaming
 * capture counts its mix per descriptor (PackedTrace::Builder folds
 * each descriptor's count in with add()); a buffered trace is counted
 * with addTrace().
 */

#ifndef SWAN_TRACE_STATS_HH
#define SWAN_TRACE_STATS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "trace/instr.hh"

namespace swan::trace
{

/** Accumulated instruction-mix and pattern statistics of one trace. */
class MixStats
{
  public:
    /** Count @p n instructions of @p shape's class, stride and
     *  geometry (its identity fields are not read). */
    void add(const Instr &shape, uint64_t n);

    /** Accumulate a whole buffered trace. */
    void
    addTrace(const std::vector<Instr> &instrs)
    {
        for (const auto &i : instrs)
            add(i, 1);
    }

    uint64_t total() const { return total_; }
    uint64_t count(InstrClass cls) const
    {
        return byClass_[size_t(cls)];
    }
    uint64_t count(PaperClass cls) const
    {
        return byPaper_[size_t(cls)];
    }
    uint64_t count(StrideKind kind) const
    {
        return byStride_[size_t(kind)];
    }

    /** Fraction [0,1] of the trace in a Figure-1 bucket. */
    double fraction(PaperClass cls) const;

    uint64_t vectorInstrs() const { return vecInstrs_; }
    uint64_t scalarInstrs() const { return total_ - vecInstrs_; }

    /** Active-lane / total-lane ratio over all vector instructions. */
    double laneUtilization() const;

    /**
     * Active datapath bytes relative to a machine vector width of
     * @p machine_bytes — the Section 7.1 SIMD utilization metric. A
     * narrower tail op on a wide machine counts against the full width,
     * which laneUtilization() (per-instruction) does not capture.
     */
    double machineUtilization(int machine_bytes) const;

    /** Fraction of the trace with a given stride tag. */
    double strideFraction(StrideKind kind) const;

    /** Bytes moved by loads (stores). */
    uint64_t loadBytes() const { return loadBytes_; }
    uint64_t storeBytes() const { return storeBytes_; }

    /**
     * Flat counter snapshot for persistence (the sweep result cache).
     * Layout: the seven scalar accumulators, then the three per-enum
     * arrays, each prefixed with its length so fromCounters() can
     * reject snapshots written by a build with different enum sizes.
     */
    std::vector<uint64_t> counters() const;

    /** Rebuild from a counters() snapshot; false on layout mismatch. */
    static bool fromCounters(const std::vector<uint64_t> &flat,
                             MixStats *out);

  private:
    uint64_t total_ = 0;
    uint64_t vecInstrs_ = 0;
    uint64_t laneSum_ = 0;
    uint64_t activeLaneSum_ = 0;
    uint64_t activeByteSum_ = 0;
    uint64_t loadBytes_ = 0;
    uint64_t storeBytes_ = 0;
    std::array<uint64_t, size_t(InstrClass::NumClasses)> byClass_{};
    std::array<uint64_t, size_t(PaperClass::NumClasses)> byPaper_{};
    std::array<uint64_t, size_t(StrideKind::NumKinds)> byStride_{};
};

} // namespace swan::trace

#endif // SWAN_TRACE_STATS_HH
