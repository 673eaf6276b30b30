/**
 * @file
 * The execution-backend seam of the sweep engine. The scheduler
 * (sweep/scheduler.cc) owns everything that must stay backend-agnostic
 * — result-cache lookups and capture-identity grouping — and hands the
 * work units (one per capture identity: a kernel/impl/width/working
 * set plus every core configuration that replays its trace) to an
 * ExecutionBackend, which only decides *where* each unit runs:
 *
 *   runSweep: lookups -> grouping -> backend.run(job)
 *                                     |
 *                  InlineBackend    calling thread, serial (tests/debug)
 *                  ThreadedBackend  work-stealing thread pool (default)
 *                  ShardedBackend   N forked worker processes claiming
 *                                   units in the on-disk cache tier
 *
 * A unit runs its whole pipeline on whichever worker or shard child
 * executes it: trace-tier hit or a fresh capture (encoded on emit),
 * trace store, fused replay, publish. Units are pure functions of
 * their points: traces record canonical addresses (trace/canon.hh),
 * so a unit's trace and results do not depend on which thread,
 * process or machine executes it, or on what ran before; the on-disk
 * result format round-trips doubles as hexfloat (bit-exact). That is
 * what makes the seam sound: emitter output is byte-identical across
 * backends and across any `shards x jobs` combination, by
 * construction.
 *
 * Claim protocol (ShardedBackend). Every unit has a content-stable
 * 64-bit token (hashed from its points' cache keys). A shard claims a
 * unit by atomically creating `c<run>-<token>.claim` in the shared
 * directory (open with O_CREAT|O_EXCL — the lockfile analogue of the
 * cache tier's write-then-rename stores) and writing its pid and
 * shard index into it; losing the race means another shard owns the
 * unit. With claim batching (`batch` > 1) consecutive units form one
 * claim whose token is the FNV fold of the member unit tokens — one
 * lockfile (and one filesystem round-trip) covers the whole batch,
 * and the winning shard executes every member unit; batch == 1 keeps
 * the raw unit token, so default claim filenames are unchanged.
 Finished units
 * land in the shared directory as ordinary checksummed `.swr` cache
 * entries, which the parent merges back deterministically after every
 * child has exited. Units that were claimed but never stored (a
 * crashed or killed shard) are re-executed by the parent — a fresh
 * capture of a canonical trace, so recovery output is bit-identical
 * to what the dead shard would have produced. Claim files whose pid no
 * longer exists are removed at the start of the next sharded run
 * (stale-claim cleanup), so a crash cannot poison the directory.
 */

#ifndef SWAN_SWEEP_BACKEND_HH
#define SWAN_SWEEP_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace swan::sweep
{

class ResultCache;

/** Which execution backend runs a sweep's simulation phase. */
enum class Backend
{
    /** Work-stealing thread pool in this process (the default). */
    Threaded,
    /** Serial on the calling thread: no pool, no threads — the
     *  debuggable backend. Byte-identical to every other backend. */
    Inline,
    /** N forked worker processes claiming units from the on-disk
     *  cache tier; requires POSIX, degrades to Threaded elsewhere. */
    Sharded,
};

/** Parse "threaded" / "inline" / "sharded"; false on anything else. */
bool backendForName(const std::string &name, Backend *out);

/** Human-readable backend name, for diagnostics. */
std::string_view name(Backend backend);

/**
 * One sweep's work, as a backend sees it: `units` opaque work units
 * executed through C-style hooks (function pointer + context, so a
 * backend never depends on the scheduler's internals and the hot
 * structures stay trivially shareable across fork()).
 */
struct BackendJob
{
    /** Number of work units (trace groups). */
    size_t units = 0;
    /** Worker threads per executing process (already resolved and
     *  clamped by the scheduler; >= 1). */
    int jobs = 1;
    /** Opaque scheduler context handed back to every hook. */
    void *arg = nullptr;

    /**
     * Run unit @p u end to end — trace (tier hit or capture), replay,
     * publish — recording its results and storing them through the
     * scheduler's caches. Thread-safe and noexcept (failures are
     * recorded scheduler-side); in a sharded run it executes inside
     * the claiming child process, or inside the parent on recovery.
     */
    void (*execute)(void *arg, size_t u) = nullptr;

    /**
     * Content-stable identity of unit @p u for cross-process claims:
     * equal between any two processes executing the same grid, and
     * distinct between different grids sharing one cache directory.
     * Null for backends that never leave the process.
     */
    uint64_t (*token)(void *arg, size_t u) = nullptr;

    /**
     * Parent-side merge: fill unit @p u's results from the shared
     * disk tier. @p shard is the claiming shard parsed from the
     * unit's claim file (-1 when unknown), threaded through so row
     * streaming and telemetry can attribute the unit. @return false
     * when any of the unit's results is missing (the unit's shard
     * died before storing) — the backend then re-executes the unit
     * locally. Null for in-process backends.
     */
    bool (*serve)(void *arg, size_t u, int shard) = nullptr;

    /**
     * Disk-backed cache shared by the shard processes: claims and
     * child stats live next to its `.swr`/`.swtp` entries. Null for
     * in-process backends. The scheduler guarantees a non-empty
     * diskDir() when a sharded run is requested (substituting a
     * private temp directory when the session cache is memory-only).
     */
    ResultCache *shareCache = nullptr;
};

/**
 * Executes a BackendJob's units. Implementations are stateless apart
 * from their knobs and are constructed on the stack per run; run()
 * blocks until every unit has executed (or been merged) and may be
 * called once per instance.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    virtual void run(const BackendJob &job) = 0;
};

/** Serial execution on the calling thread. */
class InlineBackend final : public ExecutionBackend
{
  public:
    void run(const BackendJob &job) override;
};

/**
 * The work-stealing thread pool: per-worker mutex-guarded rings dealt
 * round-robin (adjacent units of one kernel tend to cost the same),
 * workers pop their own front and steal from the back of the fullest
 * victim. Threads are spawned inside run() and joined before it
 * returns.
 */
class ThreadedBackend final : public ExecutionBackend
{
  public:
    void run(const BackendJob &job) override;
};

/**
 * Multi-process sharded execution: fork `shards` worker processes,
 * each running a ThreadedBackend over the units it wins via atomic
 * lockfile claims in the shared cache directory (see the claim
 * protocol above) — capturing, replaying and publishing them — then
 * deterministically merge the children's `.swr` entries back into the
 * parent's result vector in unit order, re-executing any unit a dead
 * shard left behind. Children exit via
 * _exit(): they share the parent's stdio buffers and must never flush
 * them. Cache statistics of the children are aggregated back into the
 * shared cache so `Results::cacheStats()` reflects the whole fleet.
 *
 * Deadline watchdog: with a nonzero timeout the parent polls the fleet
 * instead of blocking in waitpid, fingerprinting the share directory
 * (claims, stores, stats — any shard progress changes it) each tick.
 * If the fingerprint sits still past the deadline the remaining
 * children are SIGKILLed; a killed shard is indistinguishable from a
 * crashed one, so its claimed units flow through the ordinary
 * bit-identical recovery path and the sweep still completes.
 */
class ShardedBackend final : public ExecutionBackend
{
  public:
    /** @param shards worker processes (clamped to [1, kMaxShards]).
     *  @param timeout_ms watchdog deadline: kill shards that make no
     *         observable progress for this long; 0 = wait forever.
     *  @param batch units per claim (clamped to >= 1): consecutive
     *         units share one lockfile whose token folds the member
     *         unit tokens, amortizing the claim round-trip when units
     *         are small relative to filesystem latency. 1 (default)
     *         claims per unit under the unit's own token, preserving
     *         claim filenames. Results are byte-identical for any
     *         value (see the claim protocol above). */
    explicit ShardedBackend(int shards, uint64_t timeout_ms = 0,
                            int batch = 1);

    void run(const BackendJob &job) override;

    static constexpr int kMaxShards = 256;

  private:
    int shards_;
    uint64_t timeoutMs_;
    int batch_;
};

} // namespace swan::sweep

#endif // SWAN_SWEEP_BACKEND_HH
