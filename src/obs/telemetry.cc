#include "obs/telemetry.hh"

#include "swan/internal/contracts.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define SWAN_OBS_HAVE_POSIX 1
#endif

namespace swan::obs
{

namespace
{

/** The instance created by start(); outlives stop() until release(). */
std::unique_ptr<Telemetry> g_instance;

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
      case Phase::Evict:
        return "evict";
    }
    return "unknown";
}

Telemetry *
Telemetry::instance()
{
    return g_instance.get();
}

bool
Telemetry::start(size_t capacity)
{
    if (g_instance)
        return false;
    g_instance.reset(new Telemetry(std::max<size_t>(capacity, 1)));
    g_active.store(g_instance.get(), std::memory_order_release);
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
    g_active.store(nullptr, std::memory_order_release);
    g_instance.reset();
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
    return std::vector<SpanRec>(buf_.get(), buf_.get() + count());
}

void
Telemetry::setMeta(const RunMeta &meta)
{
    metaPoints_.store(meta.points, std::memory_order_relaxed);
    metaUnits_.store(meta.units, std::memory_order_relaxed);
    metaJobs_.store(meta.jobs, std::memory_order_relaxed);
}

RunMeta
Telemetry::meta() const
{
    RunMeta m;
    m.points = metaPoints_.load(std::memory_order_relaxed);
    m.units = metaUnits_.load(std::memory_order_relaxed);
    m.jobs = metaJobs_.load(std::memory_order_relaxed);
    return m;
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
