#include "obs/telemetry.hh"

#include "swan/internal/contracts.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>
#define SWAN_OBS_HAVE_POSIX 1
#endif

namespace swan::obs
{

namespace
{

/** Process-wide shard tag; plain int — it is written once, right
 *  after fork, before the child spawns any thread. */
int g_shard = -1;

/** The instance created by start(); outlives stop() until release(). */
Telemetry *g_instance = nullptr;

size_t
alignUp(size_t v, size_t a)
{
    return (v + a - 1) / a * a;
}

} // namespace

std::atomic<Telemetry *> Telemetry::g_active{nullptr};

std::string_view
name(Phase p)
{
    switch (p) {
      case Phase::Sweep:
        return "sweep";
      case Phase::GridExpand:
        return "grid_expand";
      case Phase::CacheLookup:
        return "cache_lookup";
      case Phase::Capture:
        return "capture";
      case Phase::Pack:
        return "pack";
      case Phase::Replay:
        return "replay";
      case Phase::Publish:
        return "publish";
      case Phase::Shard:
        return "shard";
      case Phase::Merge:
        return "merge";
      case Phase::Recovery:
        return "recovery";
      case Phase::Promote:
        return "promote";
      case Phase::Demote:
        return "demote";
    }
    return "unknown";
}

Telemetry *
Telemetry::instance()
{
    return g_instance;
}

bool
Telemetry::start(size_t capacity)
{
    if (g_instance)
        return false;
    if (capacity == 0)
        capacity = 1;
    const size_t headBytes = alignUp(sizeof(Telemetry), 64);
    const size_t total = headBytes + capacity * sizeof(SpanRec);
    void *mem = nullptr;
    bool mapped = false;
#ifdef SWAN_OBS_HAVE_POSIX
    // One anonymous mapping for the instance AND its record buffer:
    // recording must stay invisible to malloc (see the file comment),
    // and a forked shard child must inherit the whole registry as one
    // copy-on-write region. The placement hint keeps the arena out of
    // the kernel's top-down mmap search region: a nullptr mapping here
    // would shift every later large-allocation mapping — including
    // capture buffers, whose *addresses the simulation observes* — so
    // metrics-on runs would stop being byte-identical to metrics-off
    // runs. The hint address sits far above any heap and far below the
    // mmap base on 47/48-bit layouts; if it happens to be taken the
    // kernel falls back to a normal placement (collection still works,
    // byte-identity is then best-effort).
    void *hint = reinterpret_cast<void *>(0x200000000000ull);
    void *p = ::mmap(hint, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
        mem = p;
        mapped = true;
    }
#endif
    if (!mem)
        mem = ::operator new(total);
    auto *buf = reinterpret_cast<SpanRec *>(static_cast<uint8_t *>(mem) +
                                            headBytes);
    auto *t = new (mem) Telemetry(buf, capacity, total);
    t->mapped_ = mapped;
    g_instance = t;
    g_active.store(t, std::memory_order_release);
    return true;
}

void
Telemetry::stop()
{
    g_active.store(nullptr, std::memory_order_release);
}

void
Telemetry::release()
{
    Telemetry *t = g_instance;
    if (!t)
        return;
    g_active.store(nullptr, std::memory_order_release);
    g_instance = nullptr;
    const bool mapped = t->mapped_;
    const size_t bytes = t->mapBytes_;
    t->~Telemetry();
    if (mapped) {
#ifdef SWAN_OBS_HAVE_POSIX
        ::munmap(t, bytes);
#endif
    } else {
        ::operator delete(t);
        (void)bytes;
    }
}

void
Telemetry::setShard(int s)
{
    g_shard = s;
    if (Telemetry *t = g_instance)
        t->fence_ = std::min(t->n_.load(std::memory_order_relaxed),
                             t->cap_);
}

int
Telemetry::shard()
{
    return g_shard;
}

void
Telemetry::record(const SpanRec &rec)
{
    // The recording path is a no-alloc region: spans close on every
    // worker at once, so it must stay an index bump and a store (file
    // comment; docs/lint.md).
    SWAN_NOALLOC_BEGIN("obs::Telemetry::record");
    const size_t i = n_.fetch_add(1, std::memory_order_relaxed);
    if (i < cap_)
        buf_[i] = rec;
    else
        dropped_.fetch_add(1, std::memory_order_relaxed);
    SWAN_NOALLOC_END();
}

size_t
Telemetry::count() const
{
    return std::min(n_.load(std::memory_order_relaxed), cap_);
}

std::vector<SpanRec>
Telemetry::snapshot() const
{
    const size_t n = count();
    return std::vector<SpanRec>(buf_, buf_ + n);
}

void
Telemetry::setMeta(const RunMeta &meta)
{
    metaPoints_.store(meta.points, std::memory_order_relaxed);
    metaUnits_.store(meta.units, std::memory_order_relaxed);
    metaJobs_.store(meta.jobs, std::memory_order_relaxed);
    metaShards_.store(meta.shards, std::memory_order_relaxed);
    std::memcpy(backend_, meta.backend, sizeof backend_);
    backend_[sizeof backend_ - 1] = '\0';
}

RunMeta
Telemetry::meta() const
{
    RunMeta m;
    m.points = metaPoints_.load(std::memory_order_relaxed);
    m.units = metaUnits_.load(std::memory_order_relaxed);
    m.jobs = metaJobs_.load(std::memory_order_relaxed);
    m.shards = metaShards_.load(std::memory_order_relaxed);
    std::memcpy(m.backend, backend_, sizeof m.backend);
    m.backend[sizeof m.backend - 1] = '\0';
    return m;
}

bool
Telemetry::writeSnapshot(const char *path) const
{
    std::FILE *f = std::fopen(path, "wb");
    if (!f)
        return false;
    const size_t n = count();
    const size_t first = std::min(fence_, n);
    long pid = 0;
#ifdef SWAN_OBS_HAVE_POSIX
    pid = static_cast<long>(::getpid());
#endif
    bool ok = std::fprintf(f, "pid %ld\nshard %d\ncount %zu\n", pid,
                           g_shard, n - first) >= 0;
    for (size_t i = first; ok && i < n; ++i) {
        const SpanRec &r = buf_[i];
        ok = std::fprintf(
                 f, "%u %llu %llu %llu %llu %u\n", unsigned(r.phase),
                 static_cast<unsigned long long>(r.t0Ns),
                 static_cast<unsigned long long>(r.t1Ns),
                 static_cast<unsigned long long>(r.cpuNs),
                 static_cast<unsigned long long>(r.arg),
                 unsigned(r.tid)) >= 0;
    }
    ok = (std::fclose(f) == 0) && ok;
    return ok;
}

size_t
Telemetry::absorbSnapshot(const char *path)
{
    // A missing snapshot is an expected outcome (a crashed shard, or
    // one forked before the collector started): silent zero. Only a
    // file that exists but cannot be parsed end-to-end is corrupt.
    std::ifstream in(path);
    if (!in.is_open())
        return 0;
    const auto corrupt = [this] {
        corruptSnapshots_.fetch_add(1, std::memory_order_relaxed);
        return size_t(0);
    };
    std::string tag;
    long pid = 0;
    int shard = -1;
    size_t n = 0;
    if (!(in >> tag >> pid) || tag != "pid")
        return corrupt();
    if (!(in >> tag >> shard) || tag != "shard" || shard < -1 ||
        shard > 127)
        return corrupt();
    if (!(in >> tag >> n) || tag != "count")
        return corrupt();
    // Validate the whole payload before recording any of it: a
    // truncated or garbage snapshot absorbs NOTHING — half a shard's
    // spans would silently skew every phase total in the report — and
    // the fleet merge proceeds as if the shard had crashed.
    std::vector<SpanRec> recs;
    recs.reserve(std::min(n, cap_));
    for (size_t i = 0; i < n; ++i) {
        unsigned phase = 0, tid = 0;
        unsigned long long t0 = 0, t1 = 0, cpu = 0, arg = 0;
        if (!(in >> phase >> t0 >> t1 >> cpu >> arg >> tid))
            return corrupt();
        if (phase >= kPhaseCount)
            continue; // a newer writer's phase: skip, stay compatible
        SpanRec r;
        r.phase = Phase(phase);
        r.t0Ns = t0;
        r.t1Ns = t1;
        r.cpuNs = cpu;
        r.arg = arg;
        r.tid = uint32_t(tid);
        r.shard = int8_t(shard);
        recs.push_back(r);
    }
    for (const SpanRec &r : recs)
        record(r);
    return recs.size();
}

uint64_t
Telemetry::nowNs()
{
#ifdef SWAN_OBS_HAVE_POSIX
    timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
#else
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
#endif
}

uint64_t
Telemetry::cpuNowNs()
{
#if defined(SWAN_OBS_HAVE_POSIX) && defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0;
    return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
#else
    return 0;
#endif
}

uint32_t
Telemetry::threadId()
{
    // Hash-derived, stable for the thread's lifetime, and computed
    // without allocation (std::hash of std::thread::id is a direct
    // integral hash on every mainstream libstdc++/libc++).
    const size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return uint32_t(h ^ (h >> 32));
}

} // namespace swan::obs
