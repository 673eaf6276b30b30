/**
 * @file
 * Sweep result cache: an in-process result map plus one optional
 * directory of on-disk entries. An experiment point is keyed by
 * (kernel qualified name, implementation, vector width, core-config
 * fingerprint, working-set fingerprint, warm-up passes, fault
 * fingerprint), and a finished KernelRun is served to any later point
 * with the same key without re-simulation. The directory holds one
 * `<keyhash>.swr` result file per CacheKey and one `<keyhash>.swtp`
 * packed-trace file per TraceKey (SWAN_SWEEP_CACHE_DIR), shared across
 * processes. Both are binary entries in one frame: a tag, a format
 * version, the head (every key field as an echo, then the record) with
 * its FNV-1a checksum, and, for a trace, the payload body as the tail,
 * which the payload's own checksum covers. Each byte is hashed once per
 * store and once per load.
 *
 * The directory may be size-capped. Over the cap the least recently
 * used entries go first: every lookup and store stamps its key hash
 * with the next value of a per-cache logical clock, and entries leave
 * in ascending order of that stamp, then of file name. The order is a
 * pure function of this cache's sequence of operations and never reads
 * file mtimes.
 *
 * The contract: a stored result is a pure function of its key.
 * Traces record canonical addresses (trace/canon.hh), so capture and
 * simulation do not depend on the run, ASLR placement, argv length,
 * which grid or process computed the point, job count or cache state.
 * Entries written by a build with another on-disk format version are
 * plain misses, overwritten by the next store.
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
 * Parse a decimal count (byte caps, SWAN_JOBS and the CLI's numeric
 * flags share this one parser so format rules cannot drift): a
 * non-empty run of ASCII digits whose value fits in 64 bits, nothing
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
     * nonzero for any enabled scenario); 0 = clean. It joins the hash
     * and the key echo like every other field, so faulted and clean
     * points can never share an entry, in memory or on disk.
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
    uint64_t hits = 0;       //!< served from the in-process map
    uint64_t diskHits = 0;   //!< served from the cache directory
    uint64_t misses = 0;     //!< absent everywhere; caller simulates
    uint64_t stores = 0;     //!< results inserted

    // Packed-trace entries.
    uint64_t traceHits = 0;   //!< capture skipped, trace read off disk
    uint64_t traceMisses = 0; //!< caller captures (and stores)
    uint64_t traceStores = 0; //!< packed traces written

    /** Directory entries (.swr, .swtp, .quarantined) the size cap
     *  removed, least recently used first. */
    uint64_t evictions = 0;

    /** Structurally corrupt on-disk entries (wrong tag, truncation,
     *  checksum mismatch) renamed to `<name>.quarantined` and served
     *  as misses. A wrong-but-well-formed entry (key echo mismatch
     *  under a hash collision) stays a plain miss — quarantine is for
     *  damaged bytes, not foreign entries. */
    uint64_t corruptEntriesQuarantined = 0;

    /** Always 0: the cache has no far tier any more. The field stays
     *  only because the benchmark child (swanbench/swanbench.cc) adds
     *  it into its hit count; drop it with the next change to the
     *  benchmark. */
    uint64_t farHits = 0;
};

/**
 * The result cache (see the file comment). Disk entries are validated
 * against the full key (not just its hash) and ignored on any mismatch
 * or parse error, so a stale or corrupt cache directory degrades to a
 * miss, never to a wrong result. Structurally damaged entries
 * (truncation, checksum mismatch, wrong tag) are additionally renamed
 * to `<name>.quarantined` — counted in
 * CacheStats::corruptEntriesQuarantined — so a bad sector cannot cost
 * a validation pass on every future lookup of that key.
 */
class ResultCache
{
  public:
    /**
     * @param disk_dir       Cache directory; empty = memory only.
     * @param max_disk_bytes Size cap for the directory: after every
     *        store, the least recently used entries (result .swr and
     *        packed-trace .swtp files, ordered by this cache's logical
     *        clock, then file name — never mtime) are removed until
     *        the directory fits. 0 = unbounded.
     */
    explicit ResultCache(std::string disk_dir = {},
                         uint64_t max_disk_bytes = 0);

    /** SWAN_SWEEP_CACHE_DIR, or empty when unset. */
    static std::string envDiskDir();

    /** SWAN_SWEEP_CACHE_MAX_BYTES, or 0 when unset/unparsable. */
    static uint64_t envMaxDiskBytes();

    bool lookup(const CacheKey &key, core::KernelRun *out);
    void store(const CacheKey &key, const core::KernelRun &run);

    /**
     * Packed-trace entries: serve a previously captured trace so warm
     * reruns skip capture too. Entries are checksummed and
     * key-verified; any mismatch degrades to a miss. The entry carries
     * the trace's MixStats counter snapshot so a warm hit does not
     * have to decode the whole trace just to recount it.
     */
    bool lookupTrace(const TraceKey &key, trace::PackedTrace *out,
                     trace::MixStats *mix);
    void storeTrace(const TraceKey &key, const trace::PackedTrace &t,
                    const trace::MixStats &mix);

    const std::string &diskDir() const { return diskDir_; }
    uint64_t maxDiskBytes() const { return maxDiskBytes_; }

    /** Bytes currently held by the cache directory (.swr + .swtp). */
    uint64_t diskBytes() const;

    CacheStats stats() const;

  private:
    struct KeyHash
    {
        size_t operator()(const CacheKey &k) const { return k.hash(); }
    };

    /** Stamp @p key_hash with the next logical-clock value (the
     *  eviction order). Called with mu_ held. */
    void touchLocked(uint64_t key_hash) { lastUse_[key_hash] = ++clock_; }

    /** Rename the damaged entry @p name to `<name>.quarantined` so it
     *  is never re-served (still budget-counted and prunable); counts
     *  it only when this process won the rename race. Called with mu_
     *  held. */
    void quarantineEntry(const std::string &name);

    /**
     * Enforce maxDiskBytes_ by deleting the least recently used
     * entries (logical clock, then name); no-op uncapped. Keeps a
     * running byte total so the common under-cap store costs one
     * counter update, not a directory walk; the walk (and the resync
     * with entries other processes wrote) happens only when the
     * running total crosses the cap.
     */
    void pruneDisk(uint64_t stored_bytes);

    std::string diskDir_;
    uint64_t maxDiskBytes_ = 0;
    mutable std::mutex mu_;
    uint64_t diskTotal_ = 0;      //!< running on-disk byte estimate
    bool diskTotalKnown_ = false; //!< diskTotal_ seeded by a full scan
    std::unordered_map<CacheKey, core::KernelRun, KeyHash> map_;
    /** Key hash -> logical-clock stamp of its last lookup or store.
     *  Only ever probed by key, never iterated. */
    std::unordered_map<uint64_t, uint64_t> lastUse_;
    uint64_t clock_ = 0;
    CacheStats stats_;
};

} // namespace swan::sweep

#endif // SWAN_SWEEP_CACHE_HH
