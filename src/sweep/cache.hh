/**
 * @file
 * Sweep result cache — a unified three-tier hierarchy. An experiment
 * point is keyed by (kernel qualified name, implementation, vector
 * width, core-config fingerprint, working-set fingerprint, warm-up
 * passes), and a finished KernelRun is served to any later point with
 * the same key without re-simulation:
 *
 *   T0  RAM      in-process result map + a fixed-slot pinned-trace
 *                memo (hot packed traces held decoded-ready in
 *                anonymous mmap, budgeted in bytes)
 *   T1  disk     one `.swr` / `.swtp` file per key in the local cache
 *                directory (SWAN_SWEEP_CACHE_DIR)
 *   T2  far      an optional shared/far directory (SWAN_CACHE_FAR_DIR)
 *                — the slow, durable tier a sweep service would share
 *                across hosts. Far hits are write-through-promoted to
 *                T1; result and trace stores write through to T2.
 *
 * Placement is driven by per-entry *hotness*: a decayed access count
 * bumped only by lookup traffic (never by wall-clock or file mtimes),
 * held in a side table keyed by the 64-bit key hash so CacheKey itself
 * never grows. Entries promote upward on their Nth hit (hot packed
 * traces are pinned in RAM up to the byte budget) and every capped
 * tier evicts cold-first: eviction order is (hotness asc, first-lookup
 * order asc, name asc) — a pure function of the lookup history, so a
 * given directory state and lookup sequence always prunes the same way
 * on every platform. See docs/cache.md for the tier diagram and the
 * full promotion/demotion policy.
 *
 * The contract: a stored result is a pure function of its key.
 * Traces record canonical addresses (trace/canon.hh), so capture and
 * simulation do not depend on the run, ASLR placement, argv length,
 * which grid or process computed the point, job count, memo budget or
 * cache state. Entries written by a build with
 * another on-disk format version are plain misses, overwritten by the
 * next store.
 */

#ifndef SWAN_SWEEP_CACHE_HH
#define SWAN_SWEEP_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/runner.hh"
#include "sweep/grid.hh"
#include "trace/packed.hh"
#include "trace/stats.hh"

namespace swan::sweep
{

/** Order-sensitive FNV-1a fingerprint of every timing-relevant field. */
uint64_t fingerprint(const sim::CoreConfig &cfg);
uint64_t fingerprint(const core::Options &opts);

/**
 * Parse a decimal byte count (the SWAN_* budget/cap variables and
 * their CLI flags share this one parser so format rules cannot drift):
 * a non-empty run of ASCII digits whose value fits in 64 bits, nothing
 * else — no whitespace, sign or suffix. @return false otherwise,
 * leaving @p out untouched.
 */
bool parseByteCount(const char *s, uint64_t *out);

/** Identity of one experiment point's result. */
struct CacheKey
{
    std::string kernel;     //!< qualified name, e.g. "ZL/adler32"
    core::Impl impl = core::Impl::Neon;
    int vecBits = 128;
    uint64_t configFp = 0;
    uint64_t optionsFp = 0;
    int warmupPasses = 1;
    /**
     * 32-bit fold of sim::FaultSpec::fingerprint() (keyFor keeps it
     * nonzero for any enabled scenario); 0 = clean. Nonzero values
     * join the hash, so faulted and clean points can never collide in
     * either tier, while clean keys (and their on-disk file stems and
     * bodies) are unchanged from pre-fault builds.
     */
    uint32_t faultFp = 0;

    bool operator==(const CacheKey &o) const
    {
        return kernel == o.kernel && impl == o.impl &&
               vecBits == o.vecBits && configFp == o.configFp &&
               optionsFp == o.optionsFp &&
               warmupPasses == o.warmupPasses && faultFp == o.faultFp;
    }

    uint64_t hash() const;
    /** 16-hex-digit form of hash(); the on-disk file stem. */
    std::string hex() const;
};

CacheKey keyFor(const SweepPoint &point, int warmup_passes);

/**
 * Identity of one captured trace: the capture-relevant subset of
 * CacheKey (no core config, no warm-up count — a trace is replayed
 * against any number of configurations).
 */
struct TraceKey
{
    std::string kernel;     //!< qualified name, e.g. "ZL/adler32"
    core::Impl impl = core::Impl::Neon;
    int vecBits = 128;
    uint64_t optionsFp = 0;

    bool operator==(const TraceKey &o) const
    {
        return kernel == o.kernel && impl == o.impl &&
               vecBits == o.vecBits && optionsFp == o.optionsFp;
    }

    uint64_t hash() const;
    /** 16-hex-digit form of hash(); the on-disk file stem. */
    std::string hex() const;
};

TraceKey traceKeyFor(const SweepPoint &point);

/** Aggregate counters for one cache over its lifetime. */
struct CacheStats
{
    uint64_t hits = 0;       //!< served from the in-process map (T0)
    uint64_t diskHits = 0;   //!< served from the local disk tier (T1)
    uint64_t misses = 0;     //!< absent everywhere; caller simulates
    uint64_t stores = 0;     //!< results inserted

    // Packed-trace tier.
    uint64_t traceHits = 0;   //!< capture skipped, trace read off disk
    uint64_t traceMisses = 0; //!< caller captures (and stores)
    uint64_t traceStores = 0; //!< packed traces written
    /** Traces served from the T0 pinned-trace memo (no disk read, no
     *  payload re-validation — the hot-traffic fast path). */
    uint64_t traceRamHits = 0;

    /** T1 entries pruned by the size cap (cold-first, .swr + .swtp) —
     *  the disk tier's demotions. */
    uint64_t evictions = 0;

    // Tier-transition traffic (see docs/cache.md).
    uint64_t farHits = 0;       //!< served from the far tier (T2)
    uint64_t farMisses = 0;     //!< probes that reached T2 and missed
    uint64_t farStores = 0;     //!< entries published to T2
    /** T2 hits write-through-promoted into the local disk tier. */
    uint64_t farPromotions = 0;
    /** Entries promoted into RAM: packed traces pinned on their Nth
     *  hit under the T0 byte budget. */
    uint64_t ramPromotions = 0;
    /** T0 evictions: pinned traces unpinned (budget pressure) and
     *  result-memo entries dropped under the RAM cap, cold-first. */
    uint64_t ramDemotions = 0;

    /** Structurally corrupt on-disk entries (bad magic, truncation,
     *  checksum mismatch) renamed to `<name>.quarantined` and served
     *  as misses — local and far tier combined. A wrong-but-well-formed
     *  entry (key echo mismatch under a hash collision) stays a plain
     *  miss — quarantine is for damaged bytes, not foreign entries. */
    uint64_t corruptEntriesQuarantined = 0;

    uint64_t total() const { return hits + diskHits + farHits + misses; }
};

/**
 * The three-tier result cache (see the file comment for the tier
 * diagram). Disk and far entries are validated against the full key
 * (not just its hash) and ignored on any mismatch or parse error, so a
 * stale or corrupt cache directory degrades to a miss, never to a
 * wrong result. Structurally damaged entries (truncation, checksum
 * mismatch, bad magic) are additionally renamed to `<name>.quarantined`
 * — counted in CacheStats::corruptEntriesQuarantined — so a bad sector
 * cannot cost a validation pass on every future lookup of that key.
 */
class ResultCache
{
  public:
    /** Hits after which a packed trace is pinned into the T0 memo. */
    static constexpr uint32_t kPinHits = 2;
    /** Lookup count between hotness decays (every counter halves),
     *  so stale popularity ages out as a function of traffic, not
     *  time. */
    static constexpr uint64_t kDecayPeriod = 1024;
    /** Fixed slot count of the T0 pinned-trace memo. */
    static constexpr size_t kRamTraceSlots = 32;

    /**
     * @param disk_dir       Local disk tier (T1) directory; empty =
     *        no durable local tier.
     * @param max_disk_bytes Size cap for the T1 tier: after every
     *        store, the coldest entries (result .swr and packed-trace
     *        .swtp files, ordered by hotness, then first-lookup order,
     *        then file name — never mtime) are removed until the tier
     *        fits. 0 = unbounded.
     * @param far_dir        Far/shared tier (T2) directory; empty =
     *        no far tier. Lookups probe it after T1 and promote hits
     *        into T1; result and trace stores write through to it.
     * @param ram_max_bytes  Byte cap for the T0 in-RAM result memo
     *        (estimate-based; cold-first eviction). 0 = unbounded,
     *        the pre-tiering behavior.
     */
    explicit ResultCache(std::string disk_dir = {},
                         uint64_t max_disk_bytes = 0,
                         std::string far_dir = {},
                         uint64_t ram_max_bytes = 0);

    /** SWAN_SWEEP_CACHE_DIR, or empty when unset. */
    static std::string envDiskDir();

    /** SWAN_SWEEP_CACHE_MAX_BYTES, or 0 when unset/unparsable. */
    static uint64_t envMaxDiskBytes();

    /** SWAN_CACHE_FAR_DIR, or empty when unset. */
    static std::string envFarDir();

    /** SWAN_CACHE_RAM_BYTES, or 0 (unbounded) when unset/unparsable. */
    static uint64_t envRamMaxBytes();

    /** SWAN_TRACE_MEMO_BYTES (the T0 pinned-trace budget), or 0
     *  (unbounded) when unset/unparsable. */
    static uint64_t envTraceMemoBytes();

    /** Memory-only unless SWAN_SWEEP_CACHE_DIR names a directory;
     *  capped when SWAN_SWEEP_CACHE_MAX_BYTES is set; far tier when
     *  SWAN_CACHE_FAR_DIR names a directory. */
    static ResultCache fromEnv()
    {
        return ResultCache(envDiskDir(), envMaxDiskBytes(), envFarDir(),
                           envRamMaxBytes());
    }

    bool lookup(const CacheKey &key, core::KernelRun *out);
    void store(const CacheKey &key, const core::KernelRun &run);

    /**
     * Packed-trace tier: serve a previously captured trace so warm
     * reruns skip capture too. Probes the T0 pinned-trace memo first
     * (the pinned copy is cloned mmap-to-mmap), then the
     * local `.swtp` tier, then the far tier (checksummed and
     * key-verified everywhere; any mismatch degrades to a miss). On
     * the Nth hit the trace is pinned into T0 up to the byte budget
     * (setRamTraceBudget). The entry carries the trace's MixStats
     * counter snapshot so a warm hit does not have to decode the whole
     * trace just to recount it. storeTrace() writes the local tier and
     * writes through to the far tier, like store().
     */
    bool lookupTrace(const TraceKey &key, trace::PackedTrace *out,
                     trace::MixStats *mix);
    void storeTrace(const TraceKey &key, const trace::PackedTrace &t,
                    const trace::MixStats &mix);

    /** Byte budget for the T0 pinned-trace memo (0 = unbounded);
     *  SWAN_TRACE_MEMO_BYTES via swan::Session. */
    void setRamTraceBudget(uint64_t bytes);

    const std::string &diskDir() const { return diskDir_; }
    const std::string &farDir() const { return farDir_; }
    uint64_t maxDiskBytes() const { return maxDiskBytes_; }

    /** Bytes currently held by the on-disk tier (.swr + .swtp). */
    uint64_t diskBytes() const;

    /** Current decayed hotness of a key hash (tests/introspection). */
    uint32_t hotness(uint64_t key_hash) const;

    /**
     * Deterministic text snapshot of where every entry lives: one
     * `<stem> <kind> mem=<0|1> disk=<0|1> far=<0|1> hot=<n>` line per
     * known entry, sorted by stem. Durable placement only — T0
     * *pinned-trace* state is deliberately excluded because pinning
     * depends on the byte budget, and the placement of entries must be
     * identical across budget values (the determinism matrix in
     * tests/test_cache_tiers.cc diffs this string across budget ×
     * jobs × far tier).
     */
    std::string placementMap() const;

    CacheStats stats() const;
    void resetStats();

  private:
    struct KeyHash
    {
        size_t operator()(const CacheKey &k) const { return k.hash(); }
    };

    /** Hotness-table entry: decayed access count plus first-lookup
     *  sequence number (the insertion-order eviction tiebreak). */
    struct Hot
    {
        uint32_t count = 0;
        uint64_t seq = 0;
    };

    /** One T0 pinned-trace slot. Fixed-size POD + mmap-backed trace.
     *  Beyond the key hash the slot
     *  echoes the TraceKey's fields (kernel name in a fixed buffer —
     *  longer names simply never pin) so a hash collision degrades to
     *  a miss, mirroring the on-disk key-echo validation. */
    struct RamTrace
    {
        uint64_t keyHash = 0;
        uint64_t bytes = 0;
        trace::PackedTrace trace;
        trace::MixStats mix;
        char kernel[64] = {0};
        int32_t impl = 0;
        int32_t vecBits = 0;
        uint64_t optionsFp = 0;
        bool used = false;
    };

    /** Disk-tier lookup outcome: Corrupt means the entry's bytes are
     *  damaged (not merely foreign) — the caller quarantines it. */
    enum class DiskLoad
    {
        Miss,
        Hit,
        Corrupt,
    };

    /** Bump @p key_hash's hotness (assigning its first-lookup seq on
     *  first sight) and run the periodic decay. Called with mu_ held,
     *  on counted lookups only. @return the post-bump count. */
    uint32_t noteLookupLocked(uint64_t key_hash);
    uint32_t hotnessLocked(uint64_t key_hash) const;
    uint64_t seqLocked(uint64_t key_hash) const;

    DiskLoad loadDisk(const std::string &dir, const CacheKey &key,
                      core::KernelRun *out);
    /** @return bytes written (0 on failure), for the pruner's total. */
    uint64_t storeDisk(const std::string &dir, const CacheKey &key,
                       const core::KernelRun &run);

    DiskLoad loadTraceFrom(const std::string &dir, const TraceKey &key,
                           trace::PackedTrace *out,
                           trace::MixStats *mix);

    /** Copy one validated entry file between tiers (write-then-rename;
     *  the promotion/publish primitive). @return bytes copied, 0 on
     *  failure. */
    uint64_t copyEntry(const std::string &src_dir,
                       const std::string &dst_dir,
                       const std::string &name);

    /**
     * Existence probe for `<dir>/<stem><ext>`: one ::stat of a
     * stack-built path on POSIX.
     */
    static bool entryExists(const std::string &dir, uint64_t stem_hash,
                            const char *ext);

    /** Rename a damaged entry to `<path>.quarantined` so it is never
     *  re-served (still budget-counted and prunable); counts it only
     *  when this process won the rename race. Called with mu_ held. */
    void quarantineEntry(const std::string &path);

    /**
     * Enforce maxDiskBytes_ by deleting the coldest entries (hotness,
     * then first-lookup order, then name); no-op uncapped. Keeps a
     * running byte total so the common under-cap store costs one
     * counter update, not a directory walk; the walk (and the resync
     * with entries other processes wrote) happens only when the
     * running total crosses the cap.
     */
    void pruneDisk(uint64_t stored_bytes);

    /** Enforce ramMaxBytes_ on the result memo, cold-first. Called
     *  with mu_ held after insertions. */
    void pruneRamLocked();

    /** Pin @p t into a T0 slot if it earned it (post-bump hotness >=
     *  kPinHits), evicting strictly-colder pins to fit the byte
     *  budget. Called with mu_ held. */
    void maybePinTraceLocked(const TraceKey &key, uint32_t hot_count,
                             const trace::PackedTrace &t,
                             const trace::MixStats &mix);

    std::string diskDir_;
    std::string farDir_;
    uint64_t maxDiskBytes_ = 0;
    uint64_t ramMaxBytes_ = 0;
    uint64_t ramTraceBudget_ = 0;
    mutable std::mutex mu_;
    uint64_t diskTotal_ = 0;      //!< running on-disk byte estimate
    bool diskTotalKnown_ = false; //!< diskTotal_ seeded by a full scan
    std::unordered_map<CacheKey, core::KernelRun, KeyHash> map_;
    uint64_t ramBytesEst_ = 0;    //!< result-memo byte estimate
    std::unordered_map<uint64_t, Hot> hot_;
    uint64_t lookupSeq_ = 0;      //!< counted lookups so far
    RamTrace ramTraces_[kRamTraceSlots];
    uint64_t ramTraceBytes_ = 0;  //!< pinned bytes across the slots
    CacheStats stats_;
};

} // namespace swan::sweep

#endif // SWAN_SWEEP_CACHE_HH
