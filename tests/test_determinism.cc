/**
 * @file
 * A result is a pure function of its key, across processes. Ten fresh
 * runs of the built `swan` CLI — ASLR on, argv of different byte
 * lengths (cache-dir names), --jobs 1 to 4, memory-only and disk
 * caches, a warm rerun, and one solo run per kernel — must emit
 * byte-identical jsonl, the solo rows equal to the same rows of the
 * 4-kernel grid. Prime and gold share one functional cache hierarchy
 * in each fused replay (sim::simulateTraceMany), so the grid also pins
 * that shared walk across processes. One in-process leg runs the same grid through Session
 * on the calling thread (jobs 1) after another sweep in the same
 * process and must match the CLI byte for byte.
 *
 * SWAN_CLI_PATH is injected by CMakeLists.txt.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "swan/swan.hh"

extern char **environ;

using namespace swan;

namespace
{

const std::vector<std::string> kKernels = {
    "WA/vclip", "WA/deinterleave_channels", "LP/defilter_up", "XP/gemm_f32"};

std::string
joined(const std::vector<std::string> &v)
{
    std::string out;
    for (const auto &s : v)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

class Determinism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("swan_determinism_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** Start one fresh `swan sweep` process over @p kernels; its
     *  stdout goes to a file that wait() reads back. */
    void
    start(const std::vector<std::string> &kernels,
          const std::vector<std::string> &extra)
    {
        std::vector<std::string> args = {
            SWAN_CLI_PATH, "sweep",    "--kernels", joined(kernels),
            "--impls",     "scalar,auto,neon", "--cores", "prime,gold,silver",
            "--ws",        "default",  "--format",  "jsonl"};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        Run run;
        run.out = (dir_ / ("out" + std::to_string(runs_.size()))).string();
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, run.out.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
        if (posix_spawn(&run.pid, argv[0], &fa, nullptr, argv.data(),
                        environ) != 0)
            run.pid = -1;
        posix_spawn_file_actions_destroy(&fa);
        runs_.push_back(run);
    }

    /** Wait for every started process; their stdouts in start order
     *  (empty for a failed run, with the failure recorded). */
    std::vector<std::string>
    wait()
    {
        std::vector<std::string> outs;
        for (; waited_ < runs_.size(); ++waited_) {
            const Run &r = runs_[waited_];
            int status = 0;
            if (r.pid <= 0 || waitpid(r.pid, &status, 0) != r.pid ||
                !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                ADD_FAILURE() << "swan sweep run " << waited_ << " failed";
                outs.emplace_back();
                continue;
            }
            outs.push_back(slurp(r.out));
        }
        return outs;
    }

    /** A cache directory whose name is @p len characters long. */
    std::string
    cacheDir(size_t len)
    {
        return (dir_ / std::string(len, 'c')).string();
    }

    struct Run
    {
        pid_t pid = -1;
        std::string out;
    };

    std::filesystem::path dir_;
    std::vector<Run> runs_;
    size_t waited_ = 0;
};

/** The rows of @p jsonl that belong to @p kernel, in order. */
std::string
rowsOf(const std::string &jsonl, const std::string &kernel)
{
    std::istringstream in(jsonl);
    std::string line, out;
    const std::string tag = "\"kernel\":\"" + kernel + "\"";
    while (std::getline(in, line))
        if (line.find(tag) != std::string::npos)
            out += line + "\n";
    return out;
}

} // namespace

TEST_F(Determinism, ResultIsAPureFunctionOfItsKeyAcrossProcesses)
{
    // The reference: a cold grid, serial, short argv.
    start(kKernels, {"--jobs", "1", "--cache-dir", cacheDir(1)});
    const std::string ref = wait().front();
    ASSERT_FALSE(ref.empty());
    EXPECT_FALSE(rowsOf(ref, "XP/gemm_f32").empty());

    // Independent fresh processes, run side by side: four more cold
    // grids (argv lengths, job counts, memory-only and disk caches all
    // differ), a warm rerun served from the reference's disk tier, and
    // one solo-kernel grid per kernel.
    start(kKernels, {"--jobs", "4", "--cache-dir", cacheDir(97)});
    start(kKernels, {"--jobs", "2", "--cache-dir", cacheDir(23)});
    start(kKernels, {"--jobs", "1"});
    start(kKernels, {"--jobs", "3"});
    start(kKernels, {"--jobs", "4", "--cache-dir", cacheDir(1)});
    for (size_t k = 0; k < kKernels.size(); ++k)
        start({kKernels[k]}, {"--jobs", k % 2 ? "4" : "1", "--cache-dir",
                              cacheDir(40 + 11 * k)});
    EXPECT_EQ(runs_.size(), 10u);
    const std::vector<std::string> outs = wait();
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(ref, outs[i]) << "grid run " << i + 1;
    // Solo-kernel grids reproduce the 4-kernel grid's rows.
    for (size_t k = 0; k < kKernels.size(); ++k) {
        EXPECT_FALSE(outs[5 + k].empty()) << kKernels[k];
        EXPECT_EQ(rowsOf(ref, kKernels[k]), outs[5 + k]) << kKernels[k];
    }

    // In-process: every unit on the calling thread, after an
    // unrelated sweep has churned this process's heap.
    SessionOptions opts = Session::envDefaults();
    opts.withJobs(1);
    Session session(opts);
    Experiment(session)
        .kernels({"ZL/adler32", "OR/memchr", "XP/spmm_f32"})
        .impls({core::Impl::Scalar, core::Impl::Neon})
        .configs({"gold"})
        .workingSets({"tiny"})
        .run();
    std::ostringstream os;
    Experiment(session)
        .kernels(kKernels)
        .impls({core::Impl::Scalar, core::Impl::Auto, core::Impl::Neon})
        .configs({"prime", "gold", "silver"})
        .workingSets({"default"})
        .run()
        .emit(os, sweep::Format::JsonLines);
    EXPECT_EQ(ref, os.str());
}
