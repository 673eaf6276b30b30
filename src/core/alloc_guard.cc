/**
 * @file
 * swan::detail::AllocGuard — the runtime half of the no-alloc
 * contract (include/swan/internal/contracts.hh has the story).
 *
 * Under -DSWAN_ALLOC_GUARD=ON this TU replaces the global operator
 * new/delete family with thin malloc forwarders that consult a
 * thread-local arm depth: a heap operation while some AllocGuard is
 * armed on the calling thread is a contract violation — counted, and
 * fatal by default with the violated region's name. The forwarders
 * preserve replacement semantics (new-handler loop, nothrow and
 * aligned forms) and keep the allocation *sequence* identical to the
 * default operators, so instrumented builds stay byte-identical in
 * emitter output; they only observe, never reroute.
 *
 * Without the define the guard class still exists (tests construct it
 * unconditionally) but no hook is installed: enforced() is false and
 * counters stay zero.
 */

#include "swan/internal/contracts.hh"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace swan::detail
{

namespace
{

// Plain thread-locals: the hook must not allocate, and these are
// touched on every guarded heap op.
thread_local uint32_t tlsDepth = 0;
thread_local uint64_t tlsOps = 0;
thread_local const char *tlsWhat = nullptr;
thread_local bool tlsFailFast = true;

std::atomic<uint64_t> gViolations{0};

#if defined(SWAN_ALLOC_GUARD)
/** Record one heap operation under an armed guard. Fail-fast aborts
 *  here: fprintf on the unbuffered stderr stream does not call
 *  operator new, so reporting cannot recurse into the hook. */
void
violation(const char *op, size_t bytes)
{
    ++tlsOps;
    gViolations.fetch_add(1, std::memory_order_relaxed);
    if (!tlsFailFast)
        return;
    std::fprintf(stderr,
                 "swan: AllocGuard: %s of %zu bytes inside no-alloc "
                 "region \"%s\" — the region's determinism contract "
                 "(docs/lint.md) forbids heap traffic here\n",
                 op, bytes, tlsWhat ? tlsWhat : "?");
    std::abort();
}
#endif

} // namespace

AllocGuard::AllocGuard(const char *what, bool fail_fast) noexcept
    : what_(what), prevWhat_(tlsWhat), before_(tlsOps), armed_(true),
      prevFailFast_(tlsFailFast)
{
    tlsWhat = what_;
    tlsFailFast = fail_fast;
    ++tlsDepth;
}

AllocGuard::~AllocGuard()
{
    release();
}

void
AllocGuard::release() noexcept
{
    if (!armed_)
        return;
    armed_ = false;
    --tlsDepth;
    tlsWhat = prevWhat_;
    tlsFailFast = prevFailFast_;
}

uint64_t
AllocGuard::allocations() const noexcept
{
    return tlsOps - before_;
}

bool
AllocGuard::enforced() noexcept
{
#if defined(SWAN_ALLOC_GUARD)
    return true;
#else
    return false;
#endif
}

uint64_t
AllocGuard::totalViolations() noexcept
{
    return gViolations.load(std::memory_order_relaxed);
}

AllocGuard::Pause::Pause() noexcept : savedDepth_(tlsDepth)
{
    tlsDepth = 0;
}

AllocGuard::Pause::~Pause()
{
    tlsDepth = savedDepth_;
}

} // namespace swan::detail

#if defined(SWAN_ALLOC_GUARD)

namespace
{

using swan::detail::AllocGuard;

void *
guardedAlloc(size_t n, const char *op)
{
    if (swan::detail::tlsDepth != 0)
        swan::detail::violation(op, n);
    // Replacement-new contract: retry through the installed
    // new-handler until malloc succeeds or no handler remains.
    for (;;) {
        if (void *p = std::malloc(n ? n : 1))
            return p;
        std::new_handler h = std::get_new_handler();
        if (!h)
            return nullptr;
        h();
    }
}

void *
guardedAllocAligned(size_t n, size_t align, const char *op)
{
    if (swan::detail::tlsDepth != 0)
        swan::detail::violation(op, n);
    for (;;) {
        void *p = nullptr;
        // aligned_alloc demands size % alignment == 0; round up.
        const size_t sz = (n + align - 1) / align * align;
        p = std::aligned_alloc(align, sz ? sz : align);
        if (p)
            return p;
        std::new_handler h = std::get_new_handler();
        if (!h)
            return nullptr;
        h();
    }
}

void
guardedFree(void *p)
{
    if (!p)
        return;
    if (swan::detail::tlsDepth != 0)
        swan::detail::violation("operator delete", 0);
    std::free(p);
}

} // namespace

// The replaceable global allocation functions (new-expression entry
// points). Sized deletes forward to the unsized form — the size is
// advisory and malloc tracks it anyway.
void *
operator new(size_t n)
{
    if (void *p = guardedAlloc(n, "operator new"))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    if (void *p = guardedAlloc(n, "operator new[]"))
        return p;
    throw std::bad_alloc();
}

void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    return guardedAlloc(n, "operator new(nothrow)");
}

void *
operator new[](size_t n, const std::nothrow_t &) noexcept
{
    return guardedAlloc(n, "operator new[](nothrow)");
}

void *
operator new(size_t n, std::align_val_t a)
{
    if (void *p = guardedAllocAligned(n, size_t(a), "operator new(align)"))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n, std::align_val_t a)
{
    if (void *p =
            guardedAllocAligned(n, size_t(a), "operator new[](align)"))
        return p;
    throw std::bad_alloc();
}

void *
operator new(size_t n, std::align_val_t a, const std::nothrow_t &) noexcept
{
    return guardedAllocAligned(n, size_t(a), "operator new(align,nothrow)");
}

void *
operator new[](size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return guardedAllocAligned(n, size_t(a),
                               "operator new[](align,nothrow)");
}

void
operator delete(void *p) noexcept
{
    guardedFree(p);
}
void
operator delete[](void *p) noexcept
{
    guardedFree(p);
}
void
operator delete(void *p, size_t) noexcept
{
    guardedFree(p);
}
void
operator delete[](void *p, size_t) noexcept
{
    guardedFree(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    guardedFree(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    guardedFree(p);
}
void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    guardedFree(p);
}
void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    guardedFree(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    guardedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    guardedFree(p);
}

#endif // SWAN_ALLOC_GUARD
