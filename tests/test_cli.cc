/**
 * @file
 * Tests for the swan command-line front end (tools/cli.hh): command
 * parsing, error handling, and the output contracts of list/info/run/
 * compare driven through string streams.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/runner.hh"
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

TEST(CliUsage, VersionPrintsLibraryVersion)
{
    for (const char *spelling : {"version", "--version", "-V"}) {
        auto r = cli({spelling});
        EXPECT_EQ(r.code, 0) << spelling;
        EXPECT_EQ(r.out, std::string("swan ") + swan::versionString() + "\n")
            << spelling;
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

TEST(CliUsage, WrappingJobsAndJunkBitsRejected)
{
    // Counts are plain decimal digits: a --jobs value past INT_MAX must
    // not wrap into "all cores" (0) or a small thread count, and a
    // width with trailing junk is not a width.
    for (const char *v : {"4294967296", "4294967298", "+4", " 4"}) {
        auto r = cli({"sweep", "--kernels", "ZL/adler32", "--jobs", v});
        EXPECT_EQ(r.code, 2) << v;
        EXPECT_NE(r.err.find("--jobs"), std::string::npos) << v;
    }
    for (const char *v : {"128junk", "128,256x", "+128"}) {
        auto r = cli({"run", "ZL/adler32", "--bits", v});
        EXPECT_EQ(r.code, 2) << v;
        EXPECT_NE(r.err.find("--bits"), std::string::npos) << v;
    }
}

TEST(CliUsage, WiderBitsRequireWiderKernel)
{
    // PF/fft_forward is not one of the eight Figure-5 kernels.
    for (const char *cmd : {"run", "compare"}) {
        auto r = cli({cmd, "PF/fft_forward", "--bits", "512"});
        EXPECT_EQ(r.code, 2) << cmd;
        EXPECT_NE(r.err.find("wider-register"), std::string::npos) << cmd;
        EXPECT_TRUE(r.out.empty()) << cmd;
    }
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

TEST(CliSweep, UnwritableMetricsStemIsAWarning)
{
    // Metrics are advisory: the rows print and the exit code stays 0,
    // but the reason the report is missing reaches stderr.
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("swan_cli_no_such_dir_" + std::to_string(::getpid())) / "m")
            .string();
    auto r = cli({"sweep", "--kernels", "ZL/adler32", "--impls", "neon",
                  "--cores", "prime", "--ws", "tiny", "--metrics-out",
                  stem, "--format", "jsonl"});
    ASSERT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("\"kernel\":\"ZL/adler32\""), std::string::npos);
    EXPECT_NE(r.err.find("swan: warning: obs: cannot open " + stem +
                         ".report.json\n"),
              std::string::npos)
        << r.err;
}

namespace
{

/** A trace-dump path private to this process; removed on scope exit. */
struct TmpDump
{
    std::string path;

    explicit TmpDump(const std::string &tag)
        : path((std::filesystem::temp_directory_path() /
                ("swan_cli_" + tag + "_" + std::to_string(::getpid()) +
                 ".dump"))
                   .string())
    {
    }
    ~TmpDump() { std::remove(path.c_str()); }

    std::string
    read() const
    {
        std::ifstream is(path, std::ios::binary);
        return {std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>()};
    }
    void
    write(const std::string &bytes) const
    {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    }
};

/** The value printed after @p label on its line of @p out. */
std::string
field(const std::string &out, const std::string &label)
{
    const size_t at = out.find(label);
    if (at == std::string::npos)
        return "";
    const size_t from = out.find_first_not_of(' ', at + label.size());
    return out.substr(from, out.find('\n', from) - from);
}

/** Dump ZL/adler32 Neon's trace to @p dump; the run must succeed. */
void
dumpAdler(const TmpDump &dump)
{
    auto r = cli({"run", "ZL/adler32", "--dump-trace", dump.path});
    ASSERT_EQ(r.code, 0) << r.err;
}

/** simulate @p dump must exit 2 with a `swan:` line naming @p cause. */
void
expectRejected(const TmpDump &dump, const std::string &cause)
{
    auto r = cli({"simulate", dump.path});
    EXPECT_EQ(r.code, 2);
    EXPECT_TRUE(r.out.empty()) << r.out;
    EXPECT_EQ(r.err.rfind("swan: ", 0), 0u) << r.err;
    EXPECT_NE(r.err.find(cause), std::string::npos) << r.err;
}

// The dump layout: an 8-byte magic, then PackedTrace::appendPayload —
// this header, then the descriptor table, the main stream and the
// multi-address stream. The checksum is FNV-1a over the other header
// fields and the body.
constexpr size_t kMagicBytes = 8;
struct PayloadHeader
{
    uint64_t count, mainLen, multiLen;
    uint32_t descCount, descSize;
    uint64_t checksum;
};

uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<const uint8_t *>(data)[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(CliTrace, DumpThenSimulateRoundTrip)
{
    // The dump replays to the cycle count the run reported, on the
    // run's own core: Neon and Scalar, out of order and in order. Its
    // record and vector counts are the capture's instruction mix.
    using swan::core::Impl;
    struct Case
    {
        const char *kernel, *impl, *core;
        Impl capture;
    };
    for (const Case &c :
         {Case{"ZL/adler32", "neon", "gold", Impl::Neon},
          Case{"LP/defilter_up", "scalar", "silver", Impl::Scalar}}) {
        SCOPED_TRACE(std::string(c.kernel) + " " + c.impl);
        const TmpDump dump("roundtrip");
        auto r = cli({"run", c.kernel, "--impl", c.impl, "--core", c.core,
                      "--dump-trace", dump.path});
        ASSERT_EQ(r.code, 0) << r.err;
        EXPECT_NE(r.out.find("trace:"), std::string::npos);

        auto s = cli({"simulate", dump.path, "--core", c.core});
        ASSERT_EQ(s.code, 0) << s.err;
        const auto *spec = swan::core::Registry::instance().find(c.kernel);
        ASSERT_NE(spec, nullptr);
        auto w = spec->make(swan::core::Options::fromEnv());
        swan::trace::MixStats mix;
        mix.addTrace(swan::core::Runner::capture(*w, c.capture, 128));
        EXPECT_EQ(field(s.out, "trace:"),
                  dump.path + " (" + std::to_string(mix.total()) +
                      " records, " + std::to_string(mix.vectorInstrs()) +
                      " vector)");
        EXPECT_EQ(field(s.out, "core:"), c.core);
        EXPECT_FALSE(field(r.out, "cycles:").empty());
        EXPECT_EQ(field(s.out, "cycles:"), field(r.out, "cycles:"));
        EXPECT_EQ(field(s.out, "energy:"), field(r.out, "energy:"));
    }
}

TEST(CliTrace, SimulateRejectsGarbageFile)
{
    auto r = cli({"simulate", "/no/such/trace.dump"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTrace, SimulateRejectsAnOldSwtFile)
{
    // The retired 64 B/instr format: "SWTR", u32 version, u64 count,
    // then fixed-width records.
    const TmpDump dump("swt");
    std::string swt("SWTR\x01\0\0\0\x01\0\0\0\0\0\0\0", 16);
    swt += std::string(64, '\0');
    dump.write(swt);
    expectRejected(dump, "bad magic");
}

TEST(CliTrace, SimulateRejectsATruncatedDump)
{
    const TmpDump dump("truncated");
    dumpAdler(dump);
    const std::string bytes = dump.read();
    ASSERT_GT(bytes.size(), kMagicBytes + sizeof(PayloadHeader) + 16);
    dump.write(bytes.substr(0, bytes.size() - 16));
    expectRejected(dump, "truncated");
    dump.write(bytes.substr(0, kMagicBytes + 10)); // inside the header
    expectRejected(dump, "truncated");
}

TEST(CliTrace, SimulateRejectsAFlippedBodyByte)
{
    const TmpDump dump("flipped");
    dumpAdler(dump);
    std::string bytes = dump.read();
    ASSERT_GT(bytes.size(), kMagicBytes + sizeof(PayloadHeader));
    bytes[(kMagicBytes + sizeof(PayloadHeader) + bytes.size()) / 2] ^= 0x10;
    dump.write(bytes);
    expectRejected(dump, "checksum");
}

TEST(CliTrace, SimulateRejectsAStreamThatFailsCheckedDecode)
{
    // Drop the main stream's last byte and shrink mainLen to match,
    // with a freshly valid checksum: the payload parses, but the last
    // record runs off the stream, so the fused replay throws — which
    // the CLI must report, not let escape.
    const TmpDump dump("undecodable");
    dumpAdler(dump);
    const std::string bytes = dump.read();
    ASSERT_GT(bytes.size(), kMagicBytes + sizeof(PayloadHeader));
    PayloadHeader h;
    std::memcpy(&h, bytes.data() + kMagicBytes, sizeof h);
    ASSERT_GT(h.mainLen, 0u);
    const std::string body = bytes.substr(kMagicBytes + sizeof h);
    const size_t mainEnd = size_t(h.descCount) * h.descSize + h.mainLen;
    ASSERT_EQ(body.size(), mainEnd + h.multiLen);
    const std::string cut =
        body.substr(0, mainEnd - 1) + body.substr(mainEnd);
    --h.mainLen;
    uint64_t c = 1469598103934665603ull;
    c = fnv1a(c, &h.count, sizeof h.count);
    c = fnv1a(c, &h.mainLen, sizeof h.mainLen);
    c = fnv1a(c, &h.multiLen, sizeof h.multiLen);
    c = fnv1a(c, &h.descCount, sizeof h.descCount);
    c = fnv1a(c, &h.descSize, sizeof h.descSize);
    h.checksum = fnv1a(c, cut.data(), cut.size());
    dump.write(bytes.substr(0, kMagicBytes) +
               std::string(reinterpret_cast<const char *>(&h), sizeof h) +
               cut);
    expectRejected(dump, "checked decode");
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

TEST(CliCompare, BitsRunsTheNeonPointAtThatWidth)
{
    // The Neon row is the point `swan run --bits` measures (Scalar and
    // Auto code has no width), and the outputs are verified at it.
    const auto value = [](const std::string &text, const std::string &key) {
        const size_t at = text.find(key);
        if (at == std::string::npos)
            return std::string();
        const size_t from = text.find_first_not_of(' ', at + key.size());
        return text.substr(from, text.find('\n', from) - from);
    };
    const auto run = cli({"run", "ZL/adler32", "--bits", "256"});
    ASSERT_EQ(run.code, 0) << run.err;
    const auto r = cli({"compare", "ZL/adler32", "--bits", "256"});
    ASSERT_EQ(r.code, 0) << r.err;
    // | Neon | <instructions> | <cycles> | ...
    std::istringstream row(value(r.out, "| Neon"));
    std::string sep, instrs, cycles;
    row >> sep >> instrs >> sep >> cycles;
    EXPECT_EQ(instrs, value(run.out, "instructions:"));
    EXPECT_EQ(cycles, value(run.out, "cycles:"));
    EXPECT_NE(r.out.find("outputs verified: yes"), std::string::npos);
}
