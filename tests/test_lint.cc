/**
 * @file
 * The determinism-contract tooling, both halves:
 *
 *  - tools/lint/swan_lint.py (static): every check fires on its
 *    seeded fixture under tests/lint_fixtures/ with a pointed
 *    diagnostic, benign look-alikes (placement new, seeded engines,
 *    prose in comments/strings) stay silent, documented suppressions
 *    suppress, reasonless ones are themselves findings — and the real
 *    tree lints clean.
 *
 *  - swan::detail::AllocGuard (runtime): the hook observes heap
 *    traffic exactly when the build is instrumented
 *    (-DSWAN_ALLOC_GUARD=ON), Pause suspends it, and a full fused
 *    replay of a real captured kernel trace completes with zero
 *    contract violations — the "replay loop is heap-free" claim as a
 *    regression test. In instrumented builds the in-library guards
 *    are fail-fast, so a violation would abort this binary; the
 *    counter check is the belt to that braces.
 *
 * SWAN_LINT_SOURCE_DIR is injected by CMakeLists.txt.
 */

#include <cstdio>
#include <span>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
#include "sim/core_model.hh"
#include "swan/internal/contracts.hh"
#include "trace/packed.hh"

using namespace swan;

namespace
{

const std::string kSrc = SWAN_LINT_SOURCE_DIR;

struct LintResult
{
    int exitCode = -1;
    std::string out;
};

/** Run swan_lint.py with @p args; capture combined output + status. */
LintResult
runLint(const std::string &args)
{
    const std::string cmd = "python3 '" + kSrc +
                            "/tools/lint/swan_lint.py' " + args + " 2>&1";
    LintResult r;
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int st = pclose(p);
    r.exitCode = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return r;
}

std::string
fixture(const char *name)
{
    return "'" + kSrc + "/tests/lint_fixtures/" + name + "'";
}

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST(SwanLint, NoallocFixtureFires)
{
    const auto r = runLint("--checks noalloc --files " +
                           fixture("alloc_in_noalloc.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // Seven allocation classes in hot() + the two unbalanced-marker
    // errors; placement new, the paused line and the cold path stay
    // silent.
    EXPECT_EQ(countOccurrences(r.out, "[noalloc]"), 9u) << r.out;
    EXPECT_NE(r.out.find("new-expression"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("malloc-family call"), std::string::npos);
    EXPECT_NE(r.out.find("container growth"), std::string::npos);
    EXPECT_NE(r.out.find("smart-pointer allocation"), std::string::npos);
    EXPECT_NE(r.out.find("string allocation"), std::string::npos);
    EXPECT_NE(r.out.find("throw"), std::string::npos);
    EXPECT_NE(r.out.find("never closed by SWAN_NOALLOC_END"),
              std::string::npos);
    EXPECT_NE(r.out.find("without a matching BEGIN"), std::string::npos);
}

TEST(SwanLint, UnorderedIterFixtureFires)
{
    const auto r = runLint("--checks unordered-iter --files " +
                           fixture("unordered_emit.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // The range-for and the explicit .begin() walk; clear()/size()/
    // count()/find() and the ordered-container loop stay silent.
    EXPECT_EQ(countOccurrences(r.out, "[unordered-iter]"), 2u) << r.out;
    EXPECT_NE(r.out.find("range-for over unordered container 'counts'"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("iterator walk over unordered container 'seen'"),
              std::string::npos)
        << r.out;
}

TEST(SwanLint, NondetFixtureFires)
{
    const auto r =
        runLint("--checks nondet --files " + fixture("nondet.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // rand(), time(), random_device, steady_clock::now(); the seeded
    // mt19937 and the comments naming banned calls stay silent.
    EXPECT_EQ(countOccurrences(r.out, "[nondet]"), 4u) << r.out;
    EXPECT_NE(r.out.find("libc randomness"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("wall-clock read"), std::string::npos);
    EXPECT_NE(r.out.find("std::random_device"), std::string::npos);
    EXPECT_NE(r.out.find("chrono clock read"), std::string::npos);
}

TEST(SwanLint, NondetMtimeEvictionFires)
{
    const auto r = runLint("--checks nondet --files " +
                           fixture("nondet_mtime.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // The last_write_time() read and the file_time_type::clock::now()
    // call in the eviction loop; a plain file_time_type value and the
    // comments naming the calls stay silent.
    EXPECT_EQ(countOccurrences(r.out, "[nondet]"), 2u) << r.out;
    EXPECT_NE(r.out.find("file mtime read/write"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("filesystem clock read"), std::string::npos)
        << r.out;
}

TEST(SwanLint, PtrOrderFixtureFires)
{
    const auto r =
        runLint("--checks ptr-order --files " + fixture("ptr_order.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.out;
    // The two pointer-KEYED containers; pointer values and scalar
    // keys stay silent.
    EXPECT_EQ(countOccurrences(r.out, "[ptr-order]"), 2u) << r.out;
    EXPECT_NE(r.out.find("keyed on a pointer"), std::string::npos)
        << r.out;
}

TEST(SwanLint, DocumentedSuppressionSuppresses)
{
    const auto r = runLint("--files " + fixture("clean.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.out;
    EXPECT_NE(r.out.find("0 findings (1 suppressed)"), std::string::npos)
        << r.out;
}

TEST(SwanLint, ReasonlessSuppressionIsItselfAFinding)
{
    const auto r = runLint("--checks nondet --files " +
                           fixture("bare_suppression.cc"));
    EXPECT_EQ(r.exitCode, 1) << r.out;
    EXPECT_EQ(countOccurrences(r.out, "[nondet]"), 1u) << r.out;
    EXPECT_NE(r.out.find("suppression without a reason"),
              std::string::npos)
        << r.out;
}

TEST(SwanLint, TreeIsClean)
{
    // The acceptance bar, kept as a regression test: the library
    // sources pass every check (intentional exceptions carry inline
    // documented suppressions).
    const auto r = runLint("--root '" + kSrc + "'");
    EXPECT_EQ(r.exitCode, 0) << r.out;
}

TEST(AllocGuard, HookObservesExactlyWhenEnforced)
{
    uint64_t seen;
    {
        detail::AllocGuard g("test::probe", /*fail_fast=*/false);
        auto *p = new int(42);
        delete p;
        seen = g.allocations();
        g.release();
    }
    if (detail::AllocGuard::enforced())
        EXPECT_GE(seen, 2u); // the new AND the delete
    else
        EXPECT_EQ(seen, 0u); // uninstrumented build: hook absent
}

TEST(AllocGuard, PauseSuspendsObservation)
{
    detail::AllocGuard g("test::probe", /*fail_fast=*/false);
    {
        detail::AllocGuard::Pause pause;
        auto *p = new int(7);
        delete p;
    }
    g.release();
    EXPECT_EQ(g.allocations(), 0u);
}

TEST(AllocGuard, ReleaseIsIdempotentAndStopsCounting)
{
    detail::AllocGuard g("test::probe", /*fail_fast=*/false);
    g.release();
    g.release();
    auto *p = new int(9);
    delete p;
    EXPECT_EQ(g.allocations(), 0u);
}

TEST(AllocGuard, FusedReplayOfARealTraceIsHeapFree)
{
    const auto *spec = core::Registry::instance().find("ZL/adler32");
    ASSERT_NE(spec, nullptr);
    auto w = spec->make(core::Options());
    const auto instrs = core::Runner::capture(*w, core::Impl::Neon, 128);
    ASSERT_FALSE(instrs.empty());
    const auto packed = trace::PackedTrace::pack(instrs);

    sim::CoreModel prime(sim::primeConfig());
    sim::CoreModel silver(sim::silverConfig());
    sim::CoreModel *ms[] = {&prime, &silver};
    const std::span<sim::CoreModel *const> span(ms, 2);

    const uint64_t before = detail::AllocGuard::totalViolations();
    sim::replay(packed, span); // warm-up pass
    prime.beginMeasurement();
    silver.beginMeasurement();
    sim::replay(packed, span); // fused no-alloc region
    const auto r = prime.finish();
    EXPECT_GT(r.instrs, 0u);
    EXPECT_EQ(detail::AllocGuard::totalViolations(), before)
        << "heap traffic inside a SWAN_NOALLOC region";
    (void)silver.finish();
}
