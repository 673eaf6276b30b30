/**
 * @file
 * ShardedBackend: multi-process sweep execution on top of the on-disk
 * cache tier. Each child runs the ordinary threaded pool, gated per
 * unit by an atomic lockfile claim in the shared cache directory; a
 * claimed unit is captured (or served by the trace tier), replayed and
 * published inside the child as the cache tier's ordinary checksummed
 * `.swr` entries. The parent then merges the entries back in unit
 * order and re-executes whatever a dead shard claimed but never
 * stored. Because a work unit is a pure function of its points
 * (canonical trace addresses, trace/canon.hh) and the `.swr` format
 * round-trips doubles bit-exactly (hexfloat), the merged output is
 * byte-identical to a threaded run — including after crash recovery.
 *
 * File naming in the shared directory (`<h>` = 16 hex digits):
 *
 *   c<run>-<token>.claim    unit claim; content "pid <pid>\nshard <N>\n"
 *   s<run>-<pid>-<N>.stats  shard N's cache-counter delta, absorbed and
 *                           deleted by its parent <pid>; content
 *                           "pid <pid>\n" + one counter line
 *   o<run>-<pid>-<N>.obsnap shard N's telemetry-span snapshot (written
 *                           only when a collector is active — see
 *                           obs/telemetry.hh), absorbed and deleted by
 *                           its parent <pid>; "pid <pid>\n" header too
 *
 * `<run>` is a content hash of every unit token, so two identical
 * concurrent commands share claims (each unit simulated once across
 * both fleets) while different grids sharing one cache directory never
 * interfere. Claims are removed when the run's parent finishes; claim,
 * stats or snapshot files whose pid no longer exists are swept at the
 * start of the next sharded run (stale-claim cleanup, counted in
 * CacheStats::staleClaimsSwept), so a crashed fleet can never poison
 * the directory.
 */

#include "sweep/backend.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hh"
#include "sweep/cache.hh"

#if defined(__unix__) || defined(__APPLE__)
#define SWAN_BACKEND_HAVE_FORK 1
#include <cerrno>
#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace swan::sweep
{

ShardedBackend::ShardedBackend(int shards, uint64_t timeout_ms, int batch)
    : shards_(std::clamp(shards, 1, kMaxShards)), timeoutMs_(timeout_ms),
      batch_(std::max(batch, 1))
{
}

#ifndef SWAN_BACKEND_HAVE_FORK

void
ShardedBackend::run(const BackendJob &job)
{
    // No fork() on this platform: degrade to the in-process pool.
    // Results are byte-identical either way; only the process fan-out
    // is lost.
    ThreadedBackend().run(job);
}

#else

namespace
{

bool
claimPath(char *buf, size_t n, const char *dir, uint64_t run,
          uint64_t token)
{
    const int w = std::snprintf(buf, n, "%s/c%016llx-%016llx.claim", dir,
                                static_cast<unsigned long long>(run),
                                static_cast<unsigned long long>(token));
    return w > 0 && size_t(w) < n;
}

bool
statsPath(char *buf, size_t n, const char *dir, uint64_t run,
          long parent_pid, int shard)
{
    const int w = std::snprintf(buf, n, "%s/s%016llx-%ld-%d.stats", dir,
                                static_cast<unsigned long long>(run),
                                parent_pid, shard);
    return w > 0 && size_t(w) < n;
}

bool
obsPath(char *buf, size_t n, const char *dir, uint64_t run,
        long parent_pid, int shard)
{
    const int w = std::snprintf(buf, n, "%s/o%016llx-%ld-%d.obsnap", dir,
                                static_cast<unsigned long long>(run),
                                parent_pid, shard);
    return w > 0 && size_t(w) < n;
}

/**
 * Atomically claim the file at @p path for this process: O_CREAT|O_EXCL
 * either creates it (claim won) or fails with EEXIST (another shard —
 * possibly of a concurrent identical run — owns the unit).
 */
bool
tryClaim(const char *path, int shard)
{
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0)
        return false;
    char line[64];
    const int w = std::snprintf(line, sizeof line, "pid %ld\nshard %d\n",
                                static_cast<long>(::getpid()), shard);
    if (w > 0) {
        // The pid is advisory (stale-claim liveness probes, merge-time
        // shard attribution); a short write only makes the claim look
        // stale earlier than it is.
        [[maybe_unused]] ssize_t rc = ::write(fd, line, size_t(w));
    }
    ::close(fd);
    return true;
}

/** The claiming shard recorded in a claim file, -1 when unknown (a
 *  pre-shard-line writer, a mid-write race, or no claim at all). */
int
readClaimShard(const char *path)
{
    std::ifstream in(path);
    std::string tag;
    long pid = 0;
    int shard = -1;
    if (!(in >> tag >> pid) || tag != "pid")
        return -1;
    if (!(in >> tag >> shard) || tag != "shard" || shard < 0)
        return -1;
    return shard;
}

/**
 * Remove `.claim`/`.stats`/`.obsnap` files owned by processes that no
 * longer exist; @return how many were removed (surfaced as
 * CacheStats::staleClaimsSwept). All three kinds open with a
 * "pid <n>" line. Claims of live processes — this run's concurrent
 * twin, or another grid mid-flight — are left alone. A claim with no
 * readable pid line is only stale once it is old: tryClaim's create
 * and pid write are two syscalls, so a freshly created claim can
 * legitimately be observed mid-write by a concurrent run's cleanup
 * and must not be deleted under a live claimant.
 */
uint64_t
cleanStaleClaims(const std::string &dir)
{
    constexpr auto kMidWriteGrace = std::chrono::minutes(1);
    uint64_t swept = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const auto &p = it->path();
        const auto ext = p.extension();
        if (ext != ".claim" && ext != ".stats" && ext != ".obsnap")
            continue;
        long pid = -1;
        {
            std::ifstream in(p);
            std::string tag;
            if (!(in >> tag >> pid) || tag != "pid")
                pid = -1;
        }
        bool stale = false;
        if (pid > 0) {
            stale = ::kill(pid_t(pid), 0) != 0 && errno == ESRCH;
        } else {
            // No owner pid readable: fall back to an age check. The
            // one sanctioned wall-clock read near the cache tiers — it
            // arbitrates foreign garbage files, never entry placement,
            // so no result or eviction order depends on it.
            std::error_code mec;
            // swan-lint: allow(nondet) stale-claim age check, not eviction policy
            const auto mtime = std::filesystem::last_write_time(p, mec);
            // swan-lint: allow(nondet) stale-claim age check, not eviction policy
            const auto now = std::filesystem::file_time_type::clock::now();
            const auto age = now - mtime;
            stale = !mec && age > kMidWriteGrace;
        }
        if (stale) {
            std::error_code rec;
            if (std::filesystem::remove(p, rec) && !rec)
                ++swept;
        }
    }
    return swept;
}

/**
 * Claim identity of batch @p b under @p batch units per claim: the
 * unit's own token when batching is off (claim filenames unchanged
 * from per-unit runs), otherwise the FNV fold of the member unit
 * tokens — content-stable like the members, and distinct from any raw
 * unit token's filename only by value, so per-unit and batched runs
 * of the same grid never alias each other's claims.
 */
uint64_t
batchToken(const BackendJob &job, size_t batch, size_t b)
{
    const size_t lo = b * batch;
    if (batch == 1)
        return job.token(job.arg, lo);
    const size_t hi = std::min(job.units, lo + batch);
    uint64_t t = kFnv64Seed;
    for (size_t u = lo; u < hi; ++u)
        t = fnvMix64(t, job.token(job.arg, u));
    return t;
}

/** Per-batch claim resolution states (ClaimCtx::batchState). */
enum : uint8_t
{
    kBatchNew = 0,       //!< nobody in this process has tried yet
    kBatchResolving = 1, //!< one worker is mid-claim (two syscalls)
    kBatchWon = 2,       //!< this process owns the batch
    kBatchLost = 3,      //!< another shard owns the batch
};

struct ClaimCtx
{
    const BackendJob *job;
    const char *dir;
    uint64_t run;
    int shard;
    size_t batch;                     //!< units per claim (>= 1)
    std::atomic<uint8_t> *batchState; //!< one slot per batch
};

/**
 * Claim-gated unit executor: the first process to create the batch's
 * claim file simulates all of its units; everyone else skips them.
 * The claim verdict is resolved once per process and cached in
 * batchState — a lost open(O_CREAT|O_EXCL) cannot distinguish "another
 * shard owns it" from "another worker thread of THIS process just won
 * it", so exactly one worker performs the open and the rest read the
 * cached verdict (yielding through the two-syscall resolving window).
 */
void
claimedExecute(void *arg, size_t u)
{
    const auto *c = static_cast<const ClaimCtx *>(arg);
    std::atomic<uint8_t> &st = c->batchState[u / c->batch];
    uint8_t s = st.load(std::memory_order_acquire);
    if (s == kBatchNew) {
        uint8_t expect = kBatchNew;
        if (st.compare_exchange_strong(expect, kBatchResolving,
                                       std::memory_order_acq_rel)) {
            char path[3584];
            const bool won =
                claimPath(path, sizeof path, c->dir, c->run,
                          batchToken(*c->job, c->batch, u / c->batch)) &&
                tryClaim(path, c->shard);
            s = won ? kBatchWon : kBatchLost;
            st.store(s, std::memory_order_release);
        } else {
            s = expect;
        }
    }
    while (s == kBatchResolving) {
        std::this_thread::yield();
        s = st.load(std::memory_order_acquire);
    }
    if (s != kBatchWon)
        return;
    c->job->execute(c->job->arg, u);
}

CacheStats
statsDelta(const CacheStats &now, const CacheStats &before)
{
    CacheStats d;
    d.hits = now.hits - before.hits;
    d.diskHits = now.diskHits - before.diskHits;
    d.misses = now.misses - before.misses;
    d.stores = now.stores - before.stores;
    d.traceHits = now.traceHits - before.traceHits;
    d.traceMisses = now.traceMisses - before.traceMisses;
    d.traceStores = now.traceStores - before.traceStores;
    d.traceRamHits = now.traceRamHits - before.traceRamHits;
    d.evictions = now.evictions - before.evictions;
    d.farHits = now.farHits - before.farHits;
    d.farMisses = now.farMisses - before.farMisses;
    d.farStores = now.farStores - before.farStores;
    d.farPromotions = now.farPromotions - before.farPromotions;
    d.ramPromotions = now.ramPromotions - before.ramPromotions;
    d.ramDemotions = now.ramDemotions - before.ramDemotions;
    d.corruptEntriesQuarantined =
        now.corruptEntriesQuarantined - before.corruptEntriesQuarantined;
    return d;
}

void
writeStats(const char *path, long parent_pid, const CacheStats &d)
{
    char buf[768];
    const int w = std::snprintf(
        buf, sizeof buf,
        "pid %ld\n%llu %llu %llu %llu %llu %llu %llu %llu %llu"
        " %llu %llu %llu %llu %llu %llu %llu\n",
        parent_pid, static_cast<unsigned long long>(d.hits),
        static_cast<unsigned long long>(d.diskHits),
        static_cast<unsigned long long>(d.misses),
        static_cast<unsigned long long>(d.stores),
        static_cast<unsigned long long>(d.traceHits),
        static_cast<unsigned long long>(d.traceMisses),
        static_cast<unsigned long long>(d.traceStores),
        static_cast<unsigned long long>(d.evictions),
        static_cast<unsigned long long>(d.corruptEntriesQuarantined),
        static_cast<unsigned long long>(d.traceRamHits),
        static_cast<unsigned long long>(d.farHits),
        static_cast<unsigned long long>(d.farMisses),
        static_cast<unsigned long long>(d.farStores),
        static_cast<unsigned long long>(d.farPromotions),
        static_cast<unsigned long long>(d.ramPromotions),
        static_cast<unsigned long long>(d.ramDemotions));
    if (w <= 0 || size_t(w) >= sizeof buf)
        return;
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    [[maybe_unused]] ssize_t rc = ::write(fd, buf, size_t(w));
    ::close(fd);
}

bool
readStats(const char *path, CacheStats *out)
{
    std::ifstream in(path);
    std::string tag;
    long pid = 0;
    if (!(in >> tag >> pid) || tag != "pid")
        return false;
    CacheStats d;
    if (!(in >> d.hits >> d.diskHits >> d.misses >> d.stores >>
          d.traceHits >> d.traceMisses >> d.traceStores >> d.evictions >>
          d.corruptEntriesQuarantined))
        return false;
    // Tier-transition counters, appended after the original nine. The
    // writer and reader always belong to the same run (stats files are
    // scoped by run token and parent pid), so their absence means a
    // truncated file, not an old format.
    if (!(in >> d.traceRamHits >> d.farHits >> d.farMisses >>
          d.farStores >> d.farPromotions >> d.ramPromotions >>
          d.ramDemotions))
        return false;
    *out = d;
    return true;
}

/**
 * Order-insensitive fingerprint of the share directory (file names and
 * sizes, commutatively combined — directory_iterator order is
 * unspecified and may differ between scans of an unchanged directory).
 * Every kind of shard progress moves it: a new claim, a published
 * `.swr`/`.swtp` entry growing the tier, a stats or telemetry snapshot.
 * The watchdog compares successive fingerprints; only a fleet that
 * changes *nothing* for the whole deadline is declared wedged.
 */
uint64_t
shareDirSignature(const std::string &dir)
{
    uint64_t sig = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        uint64_t h = kFnv64Seed;
        for (const char ch : it->path().filename().string())
            h = (h ^ uint8_t(ch)) * 1099511628211ull;
        std::error_code sec;
        const auto sz = it->file_size(sec);
        sig += fnvMix64(h, sec ? 0 : uint64_t(sz));
    }
    return sig;
}

/**
 * One shard child's whole life. Runs the standard threaded pool over
 * every unit with the claim gate in front, then exports this child's
 * cache-counter delta for the parent to absorb. The caller _exit()s
 * with the return value — a child must never unwind into the parent's
 * atexit handlers or flush its inherited stdio buffers.
 */
int
childMain(const BackendJob &job, uint64_t run, const char *dir,
          int shard, size_t batch, long parent_pid,
          const CacheStats &before)
{
    // Tag this process (and its telemetry records) as shard `shard`;
    // also fences the fork-inherited span buffer so the snapshot
    // below exports only what this child recorded.
    obs::Telemetry::setShard(shard);

    // Shards publish to the shared local tier only; the parent syncs
    // the far tier once per merged unit (scheduler.cc) so a slow
    // shared directory sees one writer per entry, not a racing fleet.
    ResultCache::setFarPublishEnabled(false);

    const size_t nBatches = (job.units + batch - 1) / batch;

    // Test hook (tests/test_sweep_backend.cc): the named shard claims
    // one batch and dies without executing or recording anything,
    // exactly like a mid-simulation crash — the parent's recovery
    // path must re-execute every claimed unit.
    if (const char *crash = std::getenv("SWAN_SHARD_TEST_CRASH");
        crash && std::atoi(crash) == shard) {
        for (size_t b = 0; b < nBatches; ++b) {
            char path[3584];
            if (claimPath(path, sizeof path, dir, run,
                          batchToken(job, batch, b)) &&
                tryClaim(path, shard))
                break;
        }
        return 9;
    }

    // Test hook, sibling of the crash hook above: the named shard
    // claims one batch and then wedges — alive but making no progress,
    // the failure mode waitpid alone can never resolve. The parent's
    // deadline watchdog must SIGKILL it and recover the claimed units
    // through the ordinary crash path.
    if (const char *hang = std::getenv("SWAN_SHARD_TEST_HANG");
        hang && std::atoi(hang) == shard) {
        for (size_t b = 0; b < nBatches; ++b) {
            char path[3584];
            if (claimPath(path, sizeof path, dir, run,
                          batchToken(job, batch, b)) &&
                tryClaim(path, shard))
                break;
        }
        for (;;)
            ::pause();
    }

    {
        // One envelope span per shard child, so even a shard that
        // loses every claim race is visible in the trace.
        obs::Span life(obs::Phase::Shard, uint64_t(job.units));
        std::unique_ptr<std::atomic<uint8_t>[]> verdicts(
            new std::atomic<uint8_t>[nBatches]());
        ClaimCtx ctx{&job, dir, run, shard, batch, verdicts.get()};
        BackendJob sub = job;
        sub.arg = &ctx;
        sub.execute = &claimedExecute;
        ThreadedBackend().run(sub);
    }

    char path[3584];
    if (statsPath(path, sizeof path, dir, run, parent_pid, shard))
        writeStats(path, parent_pid,
                   statsDelta(job.shareCache->stats(), before));
    if (const obs::Telemetry *t = obs::Telemetry::instance();
        t && obsPath(path, sizeof path, dir, run, parent_pid, shard))
        t->writeSnapshot(path);
    return 0;
}

} // namespace

void
ShardedBackend::run(const BackendJob &job)
{
    if (job.units == 0)
        return;
    if (!job.shareCache || job.shareCache->diskDir().empty() ||
        !job.token || !job.serve) {
        // No shared tier to claim/merge through: stay in-process.
        ThreadedBackend().run(job);
        return;
    }
    const std::string &dir = job.shareCache->diskDir();

    // Content hash of the whole run's unit tokens: scopes claims to
    // this grid, shared with concurrent identical commands only.
    uint64_t run = kFnv64Seed;
    for (size_t u = 0; u < job.units; ++u)
        run = fnvMix64(run, job.token(job.arg, u));

    if (const uint64_t swept = cleanStaleClaims(dir)) {
        CacheStats d;
        d.staleClaimsSwept = swept;
        job.shareCache->absorbStats(d);
    }

    // More shards than claims cannot win anything: clamp the fleet to
    // the batch count, not the unit count.
    const size_t batch = size_t(batch_);
    const size_t nBatches = (job.units + batch - 1) / batch;
    const int shards = int(std::min<size_t>(size_t(shards_), nBatches));
    const CacheStats before = job.shareCache->stats();
    const long parentPid = static_cast<long>(::getpid());
    pid_t pids[kMaxShards];
    for (int s = 0; s < shards; ++s) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            // Child: straight to _exit — never unwind into the
            // parent's stack, atexit handlers or stdio buffers.
            ::_exit(childMain(job, run, dir.c_str(), s, batch, parentPid,
                              before));
        }
        // fork() failure leaves a negative pid: the units that shard
        // would have claimed fall through to parent recovery below.
        pids[s] = pid;
    }
    // Reap the fleet. Abnormal exits are not fatal either way: the
    // merge below detects any unit a shard failed to publish and
    // re-executes it. With a deadline configured the parent polls
    // (WNOHANG) and fingerprints the share directory between polls; a
    // fleet whose directory footprint sits still for the whole
    // deadline is wedged — SIGKILL turns it into the already-handled
    // crashed-shard case.
    if (timeoutMs_ == 0) {
        for (int s = 0; s < shards; ++s) {
            if (pids[s] <= 0)
                continue;
            int status = 0;
            while (::waitpid(pids[s], &status, 0) < 0 && errno == EINTR) {
            }
        }
    } else {
        const auto deadline = std::chrono::milliseconds(timeoutMs_);
        const uint64_t tickUs =
            std::clamp<uint64_t>(timeoutMs_ * 1000 / 8, 5000, 100000);
        int alive = 0;
        for (int s = 0; s < shards; ++s)
            alive += pids[s] > 0;
        uint64_t lastSig = shareDirSignature(dir);
        // swan-lint: allow(nondet) watchdog liveness clock; gates only SIGKILL of hung shards, never any result
        auto lastChange = std::chrono::steady_clock::now();
        bool killed = false;
        while (alive > 0) {
            for (int s = 0; s < shards; ++s) {
                if (pids[s] <= 0)
                    continue;
                int status = 0;
                const pid_t r = ::waitpid(pids[s], &status, WNOHANG);
                if (r == pids[s] ||
                    (r < 0 && errno != EINTR && errno != EAGAIN)) {
                    pids[s] = -1;
                    --alive;
                    // An exit is progress: the survivors now own the
                    // dead shard's share of the remaining units.
                    // swan-lint: allow(nondet) watchdog progress stamp; see lastChange above
                    lastChange = std::chrono::steady_clock::now();
                }
            }
            if (alive == 0)
                break;
            const uint64_t sig = shareDirSignature(dir);
            // swan-lint: allow(nondet) watchdog deadline comparison; crash recovery reruns the units deterministically
            const auto now = std::chrono::steady_clock::now();
            if (sig != lastSig) {
                lastSig = sig;
                lastChange = now;
            } else if (!killed && now - lastChange >= deadline) {
                for (int s = 0; s < shards; ++s)
                    if (pids[s] > 0)
                        ::kill(pids[s], SIGKILL);
                killed = true;
                // Keep looping: the kills still have to be reaped.
            }
            ::usleep(useconds_t(tickUs));
        }
    }

    // Aggregate the children's cache counters so Results::cacheStats()
    // reflects the whole fleet, then drop the transport files. The
    // telemetry snapshots ride the same channel: each shard's spans
    // are absorbed into the parent's registry so one flush sees the
    // whole fleet.
    for (int s = 0; s < shards; ++s) {
        char path[3584];
        if (!statsPath(path, sizeof path, dir.c_str(), run, parentPid, s))
            continue;
        CacheStats d;
        if (readStats(path, &d))
            job.shareCache->absorbStats(d);
        ::unlink(path);
    }
    for (int s = 0; s < shards; ++s) {
        char path[3584];
        if (!obsPath(path, sizeof path, dir.c_str(), run, parentPid, s))
            continue;
        if (obs::Telemetry *t = obs::Telemetry::instance())
            t->absorbSnapshot(path);
        ::unlink(path);
    }

    // Deterministic merge in unit order; whatever a dead shard (or a
    // concurrent run's still-working shard) left unpublished is
    // re-executed right here — captures are canonical, so recovery
    // output is bit-identical to what the missing shard would have
    // produced.
    std::vector<size_t> missing;
    {
        obs::Span merge(obs::Phase::Merge, uint64_t(job.units));
        for (size_t u = 0; u < job.units; ++u) {
            char path[3584];
            int shard = -1;
            if (claimPath(path, sizeof path, dir.c_str(), run,
                          batchToken(job, batch, u / batch)))
                shard = readClaimShard(path);
            if (!job.serve(job.arg, u, shard))
                missing.push_back(u);
        }
    }
    if (!missing.empty()) {
        obs::Span recovery(obs::Phase::Recovery, missing.size());
        CacheStats d;
        d.recoveredUnits = missing.size();
        job.shareCache->absorbStats(d);
        struct Remap
        {
            const BackendJob *job;
            const size_t *units;
        } remap{&job, missing.data()};
        BackendJob sub;
        sub.units = missing.size();
        sub.jobs = job.jobs;
        sub.arg = &remap;
        sub.execute = [](void *a, size_t i) {
            const auto *r = static_cast<const Remap *>(a);
            r->job->execute(r->job->arg, r->units[i]);
        };
        ThreadedBackend().run(sub);
    }

    // Release this run's claims (idempotent against a concurrent
    // identical run's parent doing the same).
    for (size_t b = 0; b < nBatches; ++b) {
        char path[3584];
        if (claimPath(path, sizeof path, dir.c_str(), run,
                      batchToken(job, batch, b)))
            ::unlink(path);
    }
}

#endif // SWAN_BACKEND_HAVE_FORK

} // namespace swan::sweep
