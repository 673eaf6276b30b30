/**
 * @file
 * ThreadedBackend: the sweep engine's default in-process executor, a
 * work-stealing pool behind the ExecutionBackend seam.
 */

#include "sweep/backend.hh"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#include <sys/mman.h>
#define SWAN_POOL_HAVE_PTHREAD 1
#endif

namespace swan::sweep
{

namespace
{

/**
 * One worker's mutex-guarded ring of unit indices. The ring storage
 * is a caller-provided slice of the pool's mmap arena — a WorkQueue
 * never touches malloc.
 */
struct WorkQueue
{
    std::mutex mu;
    size_t *ring = nullptr; //!< capacity cap entries, externally owned
    size_t cap = 0;
    size_t head = 0;
    size_t count = 0;

    void
    pushBack(size_t v)
    {
        std::lock_guard<std::mutex> lock(mu);
        ring[(head + count) % cap] = v;
        ++count;
    }

    bool
    popFront(size_t *out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (count == 0)
            return false;
        *out = ring[head];
        head = (head + 1) % cap;
        --count;
        return true;
    }

    bool
    stealBack(size_t *out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (count == 0)
            return false;
        --count;
        *out = ring[(head + count) % cap];
        return true;
    }

    size_t
    size()
    {
        std::lock_guard<std::mutex> lock(mu);
        return count;
    }
};

/**
 * Work-stealing pool for the sweep's work units.
 *
 * The threads are created once per run() and exit when it ends. The
 * pool's jobs-sized state (queues, rings, worker slots, thread
 * handles) lives in one anonymous mmap region and the threads are raw
 * pthreads with serialized exits — a layout that predates canonical
 * trace addresses (trace/canon.hh), when pool allocations could shift
 * captured buffer addresses. Results no longer depend on any of it.
 */
class WorkerPool
{
  public:
    /**
     * @param jobs  worker threads (>= 1)
     * @param cap   upper bound on units per run() batch
     * @param fn    unit executor; must not throw
     * @param ctx   opaque pointer handed back to @p fn
     */
    WorkerPool(int jobs, size_t cap, void (*fn)(void *, size_t),
               void *ctx)
        : execute_(fn), ctx_(ctx), jobs_(size_t(jobs))
    {
        cap = std::max<size_t>(cap, 1);
        const size_t queuesOff = 0;
        const size_t ringsOff =
            alignUp(queuesOff + jobs_ * sizeof(WorkQueue), 64);
        const size_t slotsOff =
            alignUp(ringsOff + jobs_ * cap * sizeof(size_t), 64);
        const size_t threadsOff =
            alignUp(slotsOff + jobs_ * sizeof(Slot), 64);
        const size_t total = threadsOff + jobs_ * sizeof(ThreadHandle);
        arena_ = mapArena(total);

        queues_ = reinterpret_cast<WorkQueue *>(arena_ + queuesOff);
        auto *rings = reinterpret_cast<size_t *>(arena_ + ringsOff);
        slots_ = reinterpret_cast<Slot *>(arena_ + slotsOff);
        threads_ = reinterpret_cast<ThreadHandle *>(arena_ + threadsOff);
        arenaBytes_ = total;

        for (size_t t = 0; t < jobs_; ++t) {
            WorkQueue *q = new (&queues_[t]) WorkQueue();
            q->ring = rings + t * cap;
            q->cap = cap;
            new (&slots_[t]) Slot{this, int(t)};
        }
        for (size_t t = 0; t < jobs_; ++t) {
            try {
                spawn(&threads_[t], &slots_[t]);
            } catch (...) {
                // Tear down the workers already running before the
                // members they block on are destroyed.
                shutdown(t);
                throw;
            }
        }
    }

    ~WorkerPool() { shutdown(jobs_); }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Run units [0, n); blocks until every one has executed. */
    void
    run(size_t n)
    {
        if (n == 0)
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // Deal indices round-robin so initial shares interleave
            // the grid (adjacent groups of one kernel tend to cost
            // the same).
            for (size_t i = 0; i < n; ++i)
                queues_[i % jobs_].pushBack(i);
            remaining_ = n;
            ++generation_;
        }
        wake_.notify_all();
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [this] { return remaining_ == 0; });
    }

  private:
    struct Slot
    {
        WorkerPool *pool;
        int self;
    };

    /** Stop and join the first @p spawned workers, then free state. */
    void
    shutdown(size_t spawned)
    {
        // Workers exit strictly in worker-index order (each waits for
        // its turn, and the next turn is granted only after the
        // previous thread fully terminated).
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
            exitTurn_ = 0;
        }
        wake_.notify_all();
        for (size_t t = 0; t < spawned; ++t) {
            join(&threads_[t]);
            std::lock_guard<std::mutex> lock(mu_);
            exitTurn_ = t + 1;
            wake_.notify_all();
        }
        for (size_t t = 0; t < jobs_; ++t)
            queues_[t].~WorkQueue();
        unmapArena(arena_, arenaBytes_);
    }

#ifdef SWAN_POOL_HAVE_PTHREAD
    using ThreadHandle = pthread_t;

    static void
    spawn(ThreadHandle *h, Slot *slot)
    {
        if (pthread_create(h, nullptr, &WorkerPool::entry, slot) != 0)
            throw std::runtime_error("sweep: cannot spawn worker");
    }
    static void join(ThreadHandle *h) { pthread_join(*h, nullptr); }
#else
    using ThreadHandle = std::thread;

    static void
    spawn(ThreadHandle *h, Slot *slot)
    {
        new (h) std::thread(&WorkerPool::entry, slot);
    }
    static void
    join(ThreadHandle *h)
    {
        h->join();
        h->~thread();
    }
#endif

    static size_t
    alignUp(size_t v, size_t a)
    {
        return (v + a - 1) / a * a;
    }

    uint8_t *
    mapArena(size_t n)
    {
#ifdef SWAN_POOL_HAVE_PTHREAD
        void *p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            arenaMapped_ = true;
            return static_cast<uint8_t *>(p);
        }
#endif
        return static_cast<uint8_t *>(::operator new(n));
    }

    void
    unmapArena(uint8_t *p, size_t n)
    {
#ifdef SWAN_POOL_HAVE_PTHREAD
        if (arenaMapped_) {
            ::munmap(p, n);
            return;
        }
#endif
        (void)n;
        ::operator delete(p);
    }

    static void *
    entry(void *arg)
    {
        auto *slot = static_cast<Slot *>(arg);
        slot->pool->workerLoop(slot->self);
        return nullptr;
    }

    void
    workerLoop(int self)
    {
        uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                wake_.wait(lock, [&] {
                    return stop_ || generation_ != seen;
                });
                if (stop_) {
                    // Serialized teardown: see the destructor.
                    wake_.wait(lock, [&] {
                        return exitTurn_ == size_t(self);
                    });
                    return;
                }
                seen = generation_;
            }
            drain(self);
        }
    }

    void
    drain(int self)
    {
        size_t gi;
        while (true) {
            if (queues_[size_t(self)].popFront(&gi)) {
                finish(gi);
                continue;
            }
            // Own queue drained: steal from the fullest victim.
            int victim = -1;
            size_t most = 0;
            for (int v = 0; v < int(jobs_); ++v) {
                if (v == self)
                    continue;
                const size_t n = queues_[size_t(v)].size();
                if (n > most) {
                    most = n;
                    victim = v;
                }
            }
            // No queue had work at scan time: batch over for this
            // worker (nobody pushes mid-batch, so emptiness is stable
            // once observed).
            if (victim < 0)
                return;
            // Lost the steal race: rescan, another victim may still
            // hold work.
            if (!queues_[size_t(victim)].stealBack(&gi))
                continue;
            finish(gi);
        }
    }

    void
    finish(size_t gi)
    {
        // Must not throw; errors are recorded by the callback itself.
        execute_(ctx_, gi);
        std::lock_guard<std::mutex> lock(mu_);
        if (--remaining_ == 0)
            done_.notify_all();
    }

    void (*execute_)(void *, size_t);
    void *ctx_;
    size_t jobs_;
    uint8_t *arena_ = nullptr;
    size_t arenaBytes_ = 0;
    bool arenaMapped_ = false;
    WorkQueue *queues_ = nullptr;
    Slot *slots_ = nullptr;
    ThreadHandle *threads_ = nullptr;
    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    uint64_t generation_ = 0;
    size_t remaining_ = 0;
    size_t exitTurn_ = 0;
    bool stop_ = false;
};

} // namespace

void
ThreadedBackend::run(const BackendJob &job)
{
    if (job.units == 0)
        return;
    // The scheduler resolves the job count; re-clamp to the unit count
    // here because sub-jobs (sharded recovery) can be narrower.
    const int jobs = std::max(
        1, int(std::min<size_t>(size_t(std::max(1, job.jobs)),
                                job.units)));
    WorkerPool pool(jobs, job.units, job.execute, job.arg);
    pool.run(job.units);
}

} // namespace swan::sweep
