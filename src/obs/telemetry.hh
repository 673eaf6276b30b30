/**
 * @file
 * swan::obs — phase-structured telemetry for the sweep pipeline.
 *
 * A Telemetry instance is a lock-free span registry: every pipeline
 * phase (grid expand, cache lookup, capture, pack, decode/replay,
 * publish, cache eviction) brackets itself with a Span guard,
 * and the guard appends one fixed-size SpanRec to a shared buffer with
 * a single atomic fetch_add. When no collector is active the guard is
 * a relaxed pointer load and a branch — no clock reads, no stores, no
 * allocation — so instrumented code is measurably indistinguishable
 * from uninstrumented code (bench/obs_overhead.cc gates this at <= 2%
 * on the fused-replay hot path).
 *
 * Results cannot depend on telemetry: traces record canonical
 * addresses (trace/canon.hh), so turning collection on never changes
 * a result byte whatever it allocates. The recording path is still
 * malloc-free, for overhead: start() allocates the instance and its
 * fixed-capacity record buffer once, record() is an index bump plus a
 * struct store into that buffer, and overflow drops records (counted)
 * instead of growing. Collection (start, snapshot/flush) may allocate
 * freely.
 */

#ifndef SWAN_OBS_TELEMETRY_HH
#define SWAN_OBS_TELEMETRY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace swan::obs
{

/** The span taxonomy, one value per pipeline phase. */
enum class Phase : uint8_t
{
    Sweep = 0,   //!< whole runSweep envelope (one per sweep)
    GridExpand,  //!< spec -> flattened point list
    CacheLookup, //!< result probe (phase 1a) / packed-trace disk read
    Capture,     //!< instrumented kernel execution, encoded on emit
    Pack,        //!< encoded stream -> assembled PackedTrace
    Replay,      //!< fused multi-config packed-trace traversal
    Publish,     //!< result stores into the cache
    Evict,       //!< size-cap eviction from the cache directory
};

constexpr size_t kPhaseCount = size_t(Phase::Evict) + 1;

/** Lower-case stable phase name ("grid_expand", "replay", ...). */
std::string_view name(Phase p);

/** One closed span. Fixed-size and trivially copyable, so recording
 *  one is a plain store into the preallocated buffer. */
struct SpanRec
{
    uint64_t t0Ns = 0;  //!< CLOCK_MONOTONIC at open
    uint64_t t1Ns = 0;  //!< CLOCK_MONOTONIC at close
    uint64_t cpuNs = 0; //!< thread CPU time consumed inside the span
    /** Phase-specific payload: instructions decoded (Replay: decoded
     *  instructions x configs x passes), bytes (Pack), points
     *  (CacheLookup/Publish). */
    uint64_t arg = 0;
    uint32_t tid = 0; //!< stable-per-thread id (hashed, truncated)
    Phase phase = Phase::Sweep;
};

/** Sweep-level metadata stamped by the scheduler for the run report. */
struct RunMeta
{
    uint64_t points = 0; //!< grid points in the sweep
    uint64_t units = 0;  //!< trace groups scheduled (pending only)
    int jobs = 1;        //!< threads that ran units
};

/**
 * The span registry. At most one instance is active per process;
 * create it with start() before the work to observe, read it with
 * snapshot()/meta()/dropped() after, and destroy it with release().
 * record() is safe from any thread.
 */
class Telemetry
{
  public:
    static constexpr size_t kDefaultCapacity = 1 << 16;

    /** The recording target, or null when collection is off. A single
     *  relaxed load: this is the whole cost of an unobserved Span. */
    static Telemetry *
    active()
    {
        return g_active.load(std::memory_order_relaxed);
    }

    /** The instance created by start(), active or stopped. */
    static Telemetry *instance();

    /** Create and activate the process-wide instance with room for
     *  @p capacity records. False if one already exists. */
    static bool start(size_t capacity = kDefaultCapacity);

    /** Stop recording; the instance stays readable until release(). */
    static void stop();

    /** Free the instance. No-op when none exists. All Span guards
     *  must be closed first. */
    static void release();

    void record(const SpanRec &rec);

    /** Records accepted so far (excludes dropped). */
    size_t count() const;

    /** Records dropped on buffer overflow. */
    uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Copy of every accepted record, in record order. Allocates;
     *  call outside the capture window. */
    std::vector<SpanRec> snapshot() const;

    void setMeta(const RunMeta &meta);
    RunMeta meta() const;

    /** CLOCK_MONOTONIC, nanoseconds. */
    static uint64_t nowNs();

    /** This thread's CPU clock, nanoseconds (0 where unsupported). */
    static uint64_t cpuNowNs();

    /** Stable-per-thread 32-bit id for SpanRec::tid. */
    static uint32_t threadId();

  private:
    explicit Telemetry(size_t cap)
        : cap_(cap), buf_(std::make_unique<SpanRec[]>(cap))
    {
    }

    static std::atomic<Telemetry *> g_active;

    std::atomic<size_t> n_{0};
    std::atomic<uint64_t> dropped_{0};
    size_t cap_;
    std::unique_ptr<SpanRec[]> buf_;

    // Meta fields are plain atomics so the scheduler can stamp them
    // mid-run without a lock (and without tearing a torn read at
    // flush time).
    std::atomic<uint64_t> metaPoints_{0};
    std::atomic<uint64_t> metaUnits_{0};
    std::atomic<int> metaJobs_{1};
};

/**
 * RAII span guard. Construct at phase entry, closes at scope exit (or
 * explicitly via close()). When no collector is active the whole
 * guard is one relaxed load; when one is, open/close each read two
 * clocks and close() appends one record — still malloc-free.
 */
class Span
{
  public:
    explicit Span(Phase phase, uint64_t arg = 0)
        : t_(Telemetry::active()), phase_(phase), arg_(arg)
    {
        if (t_) {
            t0_ = Telemetry::nowNs();
            cpu0_ = Telemetry::cpuNowNs();
        }
    }

    ~Span() { close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Add to the phase payload (e.g. bytes discovered mid-span). */
    void
    addArg(uint64_t delta)
    {
        if (t_)
            arg_ += delta;
    }

    void
    close()
    {
        if (!t_)
            return;
        SpanRec r;
        r.t0Ns = t0_;
        r.t1Ns = Telemetry::nowNs();
        r.cpuNs = Telemetry::cpuNowNs() - cpu0_;
        r.arg = arg_;
        r.tid = Telemetry::threadId();
        r.phase = phase_;
        t_->record(r);
        t_ = nullptr;
    }

  private:
    Telemetry *t_;
    Phase phase_;
    uint64_t arg_;
    uint64_t t0_ = 0;
    uint64_t cpu0_ = 0;
};

} // namespace swan::obs

#endif // SWAN_OBS_TELEMETRY_HH
