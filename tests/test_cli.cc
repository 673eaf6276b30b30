/**
 * @file
 * Tests for the swan command-line front end (tools/cli.hh): command
 * parsing, error handling, and the output contracts of list/info/run/
 * compare driven through string streams.
 */

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "swan/version.hh"
#include "tools/cli.hh"

using swan::tools::runCli;

namespace
{

struct CliResult
{
    int code;
    std::string out;
    std::string err;
};

CliResult
cli(std::vector<std::string> args)
{
    std::ostringstream out, err;
    int code = runCli(args, out, err);
    return {code, out.str(), err.str()};
}

} // namespace

// ---------------------------------------------------------------------
// Usage and errors.
// ---------------------------------------------------------------------

TEST(CliUsage, NoArgsPrintsUsageAndFails)
{
    auto r = cli({});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliUsage, HelpSucceeds)
{
    auto r = cli({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("commands:"), std::string::npos);
}

TEST(CliUsage, VersionPrintsLibraryVersionAndSimdKernels)
{
    for (const char *spelling : {"version", "--version", "-V"}) {
        auto r = cli({spelling});
        EXPECT_EQ(r.code, 0) << spelling;
        // Line 1: the library version. Line 2: what the runtime ISA
        // dispatcher actually selected — the one-command answer to
        // "which decode/step kernels is this host running?".
        const auto nl = r.out.find('\n');
        ASSERT_NE(nl, std::string::npos) << spelling;
        EXPECT_EQ(r.out.substr(0, nl),
                  std::string("swan ") + swan::versionString())
            << spelling;
        const auto simd = r.out.substr(nl + 1);
        EXPECT_EQ(simd.compare(0, 10, "simd: isa="), 0) << spelling;
        EXPECT_NE(simd.find(" decode="), std::string::npos) << spelling;
        EXPECT_NE(simd.find(" step="), std::string::npos) << spelling;
    }
}

TEST(CliUsage, UnknownCommandFails)
{
    auto r = cli({"frobnicate"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliUsage, UnknownFlagFails)
{
    auto r = cli({"list", "--bogus"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("unknown argument"), std::string::npos);
}

TEST(CliUsage, MissingFlagValueFails)
{
    auto r = cli({"run", "ZL/adler32", "--core"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("needs a value"), std::string::npos);
}

TEST(CliUsage, MissingKernelArgumentFails)
{
    for (const char *cmd : {"info", "run", "compare"}) {
        auto r = cli({cmd});
        EXPECT_EQ(r.code, 2) << cmd;
        EXPECT_NE(r.err.find("needs a kernel"), std::string::npos) << cmd;
    }
}

TEST(CliUsage, UnknownKernelFails)
{
    for (const char *cmd : {"info", "run", "compare"}) {
        auto r = cli({cmd, "XX/does_not_exist"});
        EXPECT_EQ(r.code, 2) << cmd;
        EXPECT_NE(r.err.find("unknown kernel"), std::string::npos) << cmd;
    }
}

TEST(CliUsage, BadImplCoreBitsRejected)
{
    EXPECT_EQ(cli({"run", "ZL/adler32", "--impl", "avx"}).code, 2);
    EXPECT_EQ(cli({"run", "ZL/adler32", "--core", "m1"}).code, 2);
    EXPECT_EQ(cli({"run", "ZL/adler32", "--bits", "96"}).code, 2);
}

TEST(CliUsage, BadCacheMaxBytesRejected)
{
    // Only a run of decimal digits that fits in 64 bits is a byte
    // count: no blank, no sign, no overflow, no suffix.
    for (const char *v : {" -1", "+5", "99999999999999999999999", "12kb"}) {
        auto r = cli(
            {"sweep", "--kernels", "ZL/adler32", "--cache-max-bytes", v});
        EXPECT_EQ(r.code, 2) << v;
        EXPECT_NE(r.err.find("--cache-max-bytes"), std::string::npos) << v;
    }
}

TEST(CliUsage, WiderBitsRequireWiderKernel)
{
    // PF/fft_forward is not one of the eight Figure-5 kernels.
    auto r = cli({"run", "PF/fft_forward", "--bits", "512"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("wider-register"), std::string::npos);
}

// ---------------------------------------------------------------------
// list / info.
// ---------------------------------------------------------------------

TEST(CliList, ListsAllKernels)
{
    auto r = cli({"list"});
    ASSERT_EQ(r.code, 0);
    const size_t n = swan::core::Registry::instance().kernels().size();
    EXPECT_NE(r.out.find(std::to_string(n) + " kernels"),
              std::string::npos);
    EXPECT_NE(r.out.find("ZL/adler32"), std::string::npos);
    EXPECT_NE(r.out.find("XP/gemm_f32"), std::string::npos);
}

TEST(CliList, FiltersByLibrary)
{
    auto r = cli({"list", "--library", "ZL"});
    ASSERT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("ZL/adler32"), std::string::npos);
    EXPECT_EQ(r.out.find("XP/"), std::string::npos);
}

TEST(CliList, UnknownLibraryFails)
{
    auto r = cli({"list", "--library", "QQ"});
    EXPECT_EQ(r.code, 2);
}

TEST(CliInfo, PrintsMetadata)
{
    auto r = cli({"info", "ZL/adler32"});
    ASSERT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("zlib"), std::string::npos);
    EXPECT_NE(r.out.find("patterns:"), std::string::npos);
    EXPECT_NE(r.out.find("reduction"), std::string::npos);
}

TEST(CliInfo, ShowsAutovecFailureReasons)
{
    // Adler-32's s2 recurrence is the canonical complex-PHI failure.
    auto r = cli({"info", "ZL/adler32"});
    ASSERT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("fails"), std::string::npos);
}

// ---------------------------------------------------------------------
// run / compare (on the smallest inputs via SWAN_FAST in the test env).
// ---------------------------------------------------------------------

TEST(CliRun, RunsNeonAndPrintsMetrics)
{
    auto r = cli({"run", "ZL/adler32"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("cycles:"), std::string::npos);
    EXPECT_NE(r.out.find("IPC:"), std::string::npos);
    EXPECT_NE(r.out.find("power:"), std::string::npos);
    EXPECT_NE(r.out.find("[Neon, prime, 128-bit]"), std::string::npos);
}

TEST(CliRun, RunsScalarOnSilver)
{
    auto r = cli({"run", "ZL/adler32", "--impl", "scalar", "--core",
                  "silver"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("[Scalar, silver, 128-bit]"), std::string::npos);
}

TEST(CliRun, WiderRegistersOnFigure5Kernel)
{
    auto r = cli({"run", "ZL/adler32", "--bits", "512"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("512-bit"), std::string::npos);
}

TEST(CliSweep, WidthsOnFigure5Kernel)
{
    auto r = cli({"sweep", "ZL/adler32"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("1024"), std::string::npos);
    EXPECT_NE(r.out.find("Speedup vs 128-bit"), std::string::npos);
}

TEST(CliSweep, WidthsRejectedForNarrowKernel)
{
    auto r = cli({"sweep", "PF/fft_forward"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("wider-register"), std::string::npos);
}

TEST(CliSweep, CoresPrintsAllThree)
{
    auto r = cli({"sweep", "ZL/crc32", "--what", "cores"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("silver"), std::string::npos);
    EXPECT_NE(r.out.find("gold"), std::string::npos);
    EXPECT_NE(r.out.find("prime"), std::string::npos);
}

TEST(CliSweep, BadAxisRejected)
{
    auto r = cli({"sweep", "ZL/adler32", "--what", "nonsense"});
    EXPECT_EQ(r.code, 2);
}

TEST(CliTrace, DumpThenSimulateRoundTrip)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("swan_cli_trace_" + std::to_string(::getpid()) + ".swt"))
            .string();
    auto r = cli({"run", "ZL/adler32", "--dump-trace", path});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("trace:"), std::string::npos);

    auto s = cli({"simulate", path, "--core", "gold"});
    EXPECT_EQ(s.code, 0) << s.err;
    EXPECT_NE(s.out.find("cycles:"), std::string::npos);
    EXPECT_NE(s.out.find("gold"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliTrace, SimulateRejectsGarbageFile)
{
    auto r = cli({"simulate", "/no/such/trace.swt"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliCompare, PrintsThreeImplsAndVerifies)
{
    auto r = cli({"compare", "ZL/adler32"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("Scalar"), std::string::npos);
    EXPECT_NE(r.out.find("Auto"), std::string::npos);
    EXPECT_NE(r.out.find("Neon"), std::string::npos);
    EXPECT_NE(r.out.find("outputs verified: yes"), std::string::npos);
}
