/**
 * @file
 * No-alloc regions — the machine-checkable half of the replay engine's
 * "hot loops are heap-free" contract. The fused replay loop
 * (sim::replay / CoreModel::stepBlock) and the telemetry recording
 * path (obs::Telemetry::record) run per instruction or per span from
 * every worker at once; an allocation there is a throughput and
 * contention bug. Bracket such a region with SWAN_NOALLOC_BEGIN("why")
 * / SWAN_NOALLOC_END(). tools/lint/swan_lint.py statically rejects
 * allocation-capable constructs between the markers, and builds
 * configured with -DSWAN_ALLOC_GUARD=ON additionally arm a runtime
 * new/delete hook (swan::detail::AllocGuard) that aborts on the first
 * heap operation inside the region — the claim as a regression test
 * instead of tribal knowledge.
 *
 * See docs/lint.md for the full check catalog and the suppression
 * syntax (`// swan-lint: allow(<check>) <reason>`).
 */

#ifndef SWAN_INTERNAL_CONTRACTS_HH
#define SWAN_INTERNAL_CONTRACTS_HH

#include <cstdint>

namespace swan::detail
{

/**
 * Scoped heap-quiescence assertion. While a guard is armed on a
 * thread, every operator new/delete on that thread is a contract
 * violation: counted, and (by default) fatal with a message naming
 * the violated region.
 *
 * The hook itself — a replacement operator new/delete consulting a
 * thread-local arm depth — is compiled into the library only under
 * -DSWAN_ALLOC_GUARD=ON (a debug/CI configuration; see enforced()).
 * The class is always real, so tests can construct guards and read
 * counters unconditionally; in uninstrumented builds a guard simply
 * never observes anything. Guards nest; allocations() reports the
 * heap operations observed since this guard was constructed.
 */
class AllocGuard
{
  public:
    /**
     * Arm the guard for the current scope.
     * @param what      region name for diagnostics ("sim::replay", ...)
     * @param fail_fast abort on the first violation (default). Pass
     *        false to only count — tests probing the hook use this.
     */
    explicit AllocGuard(const char *what, bool fail_fast = true) noexcept;
    ~AllocGuard();

    AllocGuard(const AllocGuard &) = delete;
    AllocGuard &operator=(const AllocGuard &) = delete;

    /** Disarm early (the SWAN_NOALLOC_END() marker). Idempotent. */
    void release() noexcept;

    /** Heap operations observed on this thread since construction. */
    uint64_t allocations() const noexcept;

    /** True when the library was built with -DSWAN_ALLOC_GUARD=ON
     *  (the operator new/delete hook is live). */
    static bool enforced() noexcept;

    /** Process-wide violation count across all guards (survives
     *  released guards; non-fail-fast violations land here too). */
    static uint64_t totalViolations() noexcept;

    /**
     * RAII suspension: payload/observer callbacks run foreign code
     * that may allocate legitimately (e.g. FaultObserver::begin
     * builds its baseline tables) — suspend the enclosing region
     * around the call, restore on scope exit.
     */
    class Pause
    {
      public:
        Pause() noexcept;
        ~Pause();
        Pause(const Pause &) = delete;
        Pause &operator=(const Pause &) = delete;

      private:
        uint32_t savedDepth_;
    };

  private:
    const char *what_;
    const char *prevWhat_;
    uint64_t before_;
    bool armed_;
    bool prevFailFast_;
};

} // namespace swan::detail

#if defined(SWAN_ALLOC_GUARD)
/** Open a statically- and dynamically-checked no-alloc region. */
#define SWAN_NOALLOC_BEGIN(what)                                          \
    ::swan::detail::AllocGuard swanNoallocGuard_ { what }
/** Close the region opened by SWAN_NOALLOC_BEGIN in this scope. */
#define SWAN_NOALLOC_END() swanNoallocGuard_.release()
/** Suspend the enclosing region for one scope (observer callbacks). */
#define SWAN_NOALLOC_PAUSE()                                              \
    ::swan::detail::AllocGuard::Pause swanNoallocPause_ {}
#else
// Marker-only in normal builds: swan-lint still sees the tokens, the
// generated code is untouched (no TLS traffic on the hot paths).
#define SWAN_NOALLOC_BEGIN(what) ((void)0)
#define SWAN_NOALLOC_END() ((void)0)
#define SWAN_NOALLOC_PAUSE() ((void)0)
#endif

#endif // SWAN_INTERNAL_CONTRACTS_HH
