/**
 * @file
 * Arm Optimized Routines workloads (symbol OR, String Utilities): memcpy,
 * memcmp, memchr and strlen (Section 3.2). The scalar versions are the
 * word-at-a-time implementations the library ships for plain AArch64; the
 * Neon versions use full vector registers with across-vector reductions to
 * detect the loop-break conditions (the Section 5.2 Example 1 pattern:
 * uncountable loops defeat the auto-vectorizer for the searching
 * routines, while memcpy's countable copy loop vectorizes).
 */

#include "workloads/common.hh"

namespace swan::workloads::optroutines
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

namespace
{

/** Instrumented 8-byte scalar load from a byte buffer. */
Sc<uint64_t>
loadWord(const uint8_t *p)
{
    uint64_t word;
    std::memcpy(&word, p, 8);
    uint64_t id = emitMem(InstrClass::SLoad, p, 8, Lat::load);
    return {word, id};
}

/** Instrumented 8-byte scalar store to a byte buffer. */
void
storeWord(uint8_t *p, Sc<uint64_t> w)
{
    emitMem(InstrClass::SStore, p, 8, Lat::store, w.src);
    std::memcpy(p, &w.v, 8);
}

} // namespace

// ---------------------------------------------------------------------
// memcpy
// ---------------------------------------------------------------------

class Memcpy : public Workload
{
  public:
    explicit Memcpy(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x0101u);
        src_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes));
        dstScalar_.assign(src_.size(), 0);
        dstNeon_.assign(src_.size(), 0xee);
        dstAuto_.assign(src_.size(), 0xaa);
    }

    void
    runScalar() override
    {
        // Word-at-a-time copy (LDR/STR pairs).
        size_t i = 0;
        for (; i + 8 <= src_.size(); i += 8) {
            storeWord(&dstScalar_[i], loadWord(&src_[i]));
            ctl::loop();
        }
        for (; i < src_.size(); ++i) {
            sstore(&dstScalar_[i], sload(&src_[i]));
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        // 64 bytes per iteration with four q-register pairs.
        size_t i = 0;
        const size_t n = src_.size();
        for (; i + 64 <= n; i += 64) {
            auto a = vld1<128>(&src_[i]);
            auto b = vld1<128>(&src_[i + 16]);
            auto c = vld1<128>(&src_[i + 32]);
            auto d = vld1<128>(&src_[i + 48]);
            vst1(&dstNeon_[i], a);
            vst1(&dstNeon_[i + 16], b);
            vst1(&dstNeon_[i + 32], c);
            vst1(&dstNeon_[i + 48], d);
            ctl::loop();
        }
        for (; i < n; ++i) {
            sstore(&dstNeon_[i], sload(&src_[i]));
            ctl::loop();
        }
    }

    void
    runAuto() override
    {
        // Clang recognizes the copy loop and emits a wide vector copy
        // with heavy interleaving (one of the five Auto > Neon kernels).
        size_t i = 0;
        const size_t n = src_.size();
        for (; i + 128 <= n; i += 128) {
            for (int u = 0; u < 8; ++u) {
                auto v = vld1<128>(&src_[i + size_t(16 * u)]);
                vst1(&dstAuto_[i + size_t(16 * u)], v);
            }
            ctl::loop();
        }
        for (; i < n; ++i) {
            sstore(&dstAuto_[i], sload(&src_[i]));
            ctl::loop();
        }
    }

    bool
    verify() override
    {
        return dstScalar_ == src_ && dstNeon_ == src_;
    }
    uint64_t flops() const override { return src_.size(); }

  private:
    Buf<uint8_t> src_, dstScalar_, dstNeon_, dstAuto_;
};

// ---------------------------------------------------------------------
// memcmp
// ---------------------------------------------------------------------

class Memcmp : public Workload
{
  public:
    explicit Memcmp(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x0202u);
        a_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes));
        b_ = a_;
        // Differ near the end so both implementations scan ~everything.
        b_[b_.size() - 3] = uint8_t(b_[b_.size() - 3] + 1);
    }

    void
    runScalar() override
    {
        // Word compare with early exit (uncountable loop).
        outScalar_ = 0;
        size_t i = 0;
        const size_t n = a_.size();
        for (; i + 8 <= n; i += 8) {
            Sc<uint64_t> x = loadWord(&a_[i]);
            Sc<uint64_t> y = loadWord(&b_[i]);
            if (x != y)
                break;
            ctl::loop();
        }
        for (; i < n; ++i) {
            Sc<uint8_t> x = sload(&a_[i]);
            Sc<uint8_t> y = sload(&b_[i]);
            if (x != y) {
                outScalar_ = x.v < y.v ? -1 : 1;
                return;
            }
            ctl::loop();
        }
        outScalar_ = 0;
    }

    void
    runNeon(int) override
    {
        // 16 bytes per step; MINV of the equality mask detects the break
        // condition (reduction-based loop exit, Section 5.2 Example 1).
        outNeon_ = 0;
        size_t i = 0;
        const size_t n = a_.size();
        for (; i + 16 <= n; i += 16) {
            auto x = vld1<128>(&a_[i]);
            auto y = vld1<128>(&b_[i]);
            auto eq = vceq(x, y);
            Sc<uint8_t> all = vminv(eq);
            if (Sc<uint8_t>(all.v, all.src) != Sc<uint8_t>(0xffu))
                break;
            ctl::loop();
        }
        for (; i < n; ++i) {
            Sc<uint8_t> x = sload(&a_[i]);
            Sc<uint8_t> y = sload(&b_[i]);
            if (x != y) {
                outNeon_ = x.v < y.v ? -1 : 1;
                return;
            }
            ctl::loop();
        }
        outNeon_ = 0;
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    Buf<uint8_t> a_, b_;
    int outScalar_ = 9, outNeon_ = -9;
};

// ---------------------------------------------------------------------
// memchr
// ---------------------------------------------------------------------

class Memchr : public Workload
{
  public:
    explicit Memchr(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x0303u);
        data_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes));
        // Ensure the needle only appears near the end.
        for (auto &c : data_)
            if (c == kNeedle)
                c = uint8_t(kNeedle + 1);
        data_[data_.size() - 7] = kNeedle;
    }

    void
    runScalar() override
    {
        outScalar_ = -1;
        for (size_t i = 0; i < data_.size(); ++i) {
            Sc<uint8_t> c = sload(&data_[i]);
            if (c == Sc<uint8_t>(kNeedle)) {
                outScalar_ = long(i);
                return;
            }
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        outNeon_ = -1;
        const auto needle = vdup<uint8_t, 128>(kNeedle);
        size_t i = 0;
        for (; i + 16 <= data_.size(); i += 16) {
            auto d = vld1<128>(&data_[i]);
            auto eq = vceq(d, needle);
            Sc<uint8_t> any = vmaxv(eq);
            if (any != Sc<uint8_t>(0u)) {
                // Locate the byte within the block.
                for (int j = 0; j < 16; ++j) {
                    Sc<uint8_t> lane = vget_lane(eq, j);
                    if (lane != Sc<uint8_t>(0u)) {
                        outNeon_ = long(i) + j;
                        return;
                    }
                    ctl::loop();
                }
            }
            ctl::loop();
        }
        for (; i < data_.size(); ++i) {
            Sc<uint8_t> c = sload(&data_[i]);
            if (c == Sc<uint8_t>(kNeedle)) {
                outNeon_ = long(i);
                return;
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    static constexpr uint8_t kNeedle = 0x7f;
    Buf<uint8_t> data_;
    long outScalar_ = -2, outNeon_ = -3;
};

// ---------------------------------------------------------------------
// strlen
// ---------------------------------------------------------------------

class Strlen : public Workload
{
  public:
    explicit Strlen(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x0404u);
        data_.resize(size_t(opts.bufferBytes));
        for (auto &c : data_)
            c = uint8_t(rng.range(1, 255));
        data_.back() = 0;
    }

    void
    runScalar() override
    {
        outScalar_ = 0;
        for (size_t i = 0; i < data_.size(); ++i) {
            Sc<uint8_t> c = sload(&data_[i]);
            if (c == Sc<uint8_t>(0u)) {
                outScalar_ = long(i);
                return;
            }
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        outNeon_ = 0;
        const auto zero = vdup<uint8_t, 128>(uint8_t(0));
        size_t i = 0;
        for (; i + 16 <= data_.size(); i += 16) {
            auto d = vld1<128>(&data_[i]);
            auto eq = vceq(d, zero);
            Sc<uint8_t> any = vmaxv(eq);
            if (any != Sc<uint8_t>(0u)) {
                for (int j = 0; j < 16; ++j) {
                    Sc<uint8_t> lane = vget_lane(eq, j);
                    if (lane != Sc<uint8_t>(0u)) {
                        outNeon_ = long(i) + j;
                        return;
                    }
                    ctl::loop();
                }
            }
            ctl::loop();
        }
        for (; i < data_.size(); ++i) {
            Sc<uint8_t> c = sload(&data_[i]);
            if (c == Sc<uint8_t>(0u)) {
                outNeon_ = long(i);
                return;
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    Buf<uint8_t> data_;
    long outScalar_ = -2, outNeon_ = -3;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "Opt. Routines", "OR", Domain::StringUtilities,
    true, true, true, true, 9.6, 1.2}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Opt. Routines", "OR", "memcpy",
                     Domain::StringUtilities, 0,
                     autovec::Verdict{true, 0}, false, 0},
    [](const Options &o) { return std::make_unique<Memcpy>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Opt. Routines", "OR", "memcmp",
                     Domain::StringUtilities,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::Uncountable)},
                     false, 0},
    [](const Options &o) { return std::make_unique<Memcmp>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Opt. Routines", "OR", "memchr",
                     Domain::StringUtilities,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::Uncountable)},
                     false, 0},
    [](const Options &o) { return std::make_unique<Memchr>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"Opt. Routines", "OR", "strlen",
                     Domain::StringUtilities,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::Uncountable)},
                     false, 0},
    [](const Options &o) { return std::make_unique<Strlen>(o); }}));

} // namespace swan::workloads::optroutines
