/**
 * @file
 * zlib workloads (symbol ZL, Data Compression). zlib's LZ77/Huffman stages
 * are scalar; its vector-processing hot spots are the two checksums
 * (Section 3.2): Adler-32 (the Section 6.1 loop-distribution reduction
 * example, also one of the eight wider-register kernels of Figure 5) and
 * CRC-32 (accelerated with the Armv8 CRC32 instructions; the scalar code
 * is the classic look-up-table implementation, which is exactly the
 * indirect-memory pattern that defeats auto-vectorization).
 */

#include "workloads/common.hh"

namespace swan::workloads::zlibw
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

constexpr uint32_t kAdlerBase = 65521;
constexpr size_t kAdlerNmax = 5552; //!< bytes before deferred modulo

// ---------------------------------------------------------------------
// Adler-32
// ---------------------------------------------------------------------

/** Adler-32 checksum: s1 = 1 + sum(b_i), s2 = sum of running s1. */
class Adler32 : public Workload
{
  public:
    explicit Adler32(const Options &opts)
    {
        Rng rng(opts.seed);
        data_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes));
    }

    void
    runScalar() override
    {
        Sc<uint32_t> s1(1u), s2(0u);
        size_t i = 0;
        const size_t n = data_.size();
        while (i < n) {
            const size_t end = std::min(n, i + kAdlerNmax);
            for (; i < end; ++i) {
                Sc<uint8_t> b = sload(&data_[i]);
                s1 += b.to<uint32_t>();
                s2 += s1;
                ctl::loop();
            }
            s1 = s1 % Sc<uint32_t>(kAdlerBase);
            s2 = s2 % Sc<uint32_t>(kAdlerBase);
        }
        outScalar_ = (s2.v << 16) | s1.v;
    }

    void
    runNeon(int vec_bits) override
    {
        switch (vec_bits) {
          case 256:
            outNeon_ = neonImpl<256>();
            break;
          case 512:
            outNeon_ = neonImpl<512>();
            break;
          case 1024:
            outNeon_ = neonImpl<1024>();
            break;
          default:
            outNeon_ = neonImpl<128>();
            break;
        }
    }

    // The s2 recurrence is a complex PHI chain; LLVM does not vectorize
    // it without the loop-distribution rewrite (Section 6.1), so Auto
    // falls back to the scalar loop (the default runAuto()).

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return 2 * data_.size(); }

  private:
    template <int B>
    uint32_t
    neonImpl()
    {
        using V8 = Vec<uint8_t, B>;
        constexpr int kLanes = V8::kLanes; // bytes per chunk
        constexpr int kShift = std::countr_zero(unsigned(kLanes));

        // taps[i] = kLanes - i, the per-position weight of a chunk.
        uint8_t taps_mem[size_t(kLanes)];
        for (int i = 0; i < kLanes; ++i)
            taps_mem[i] = uint8_t(kLanes - i);
        const V8 taps = vld1<B>(taps_mem);

        uint32_t s1 = 1, s2 = 0;
        size_t i = 0;
        const size_t n = data_.size();
        while (i + size_t(kLanes) <= n) {
            const size_t block_end =
                std::min(n - size_t(kLanes) + 1, i + kAdlerNmax);

            auto vs1 = vset_lane(vdup<uint32_t, B>(0u), 0,
                                 Sc<uint32_t>(s1));
            auto vs2 = vset_lane(vdup<uint32_t, B>(0u), 0,
                                 Sc<uint32_t>(s2));
            for (; i + size_t(kLanes) <= n && i < block_end;
                 i += size_t(kLanes)) {
                // s2 += kLanes * s1 (distributes over lanes).
                vs2 = vadd(vs2, vshl(vs1, kShift));
                V8 d = vld1<B>(&data_[i]);
                // s2 += sum((kLanes - j) * b_j) via widening MUL + PADAL.
                vs2 = vpadal(vs2, vmull_lo(d, taps));
                vs2 = vpadal(vs2, vmull_hi(d, taps));
                // s1 += sum(b_j).
                vs1 = vpadal(vs1, vpaddl(d));
                ctl::loop();
            }
            s1 = vaddv(vs1).v % kAdlerBase;
            s2 = vaddv(vs2).v % kAdlerBase;
        }
        // Scalar tail.
        Sc<uint32_t> t1(s1), t2(s2);
        for (; i < n; ++i) {
            Sc<uint8_t> b = sload(&data_[i]);
            t1 += b.to<uint32_t>();
            t2 += t1;
            ctl::loop();
        }
        t1 = t1 % Sc<uint32_t>(kAdlerBase);
        t2 = t2 % Sc<uint32_t>(kAdlerBase);
        return (t2.v << 16) | t1.v;
    }

    Buf<uint8_t> data_;
    uint32_t outScalar_ = 0;
    uint32_t outNeon_ = 1;
};

// ---------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------

/** CRC-32 (zlib polynomial). */
class Crc32 : public Workload
{
  public:
    explicit Crc32(const Options &opts)
    {
        Rng rng(opts.seed ^ 0xc3c3c3c3u);
        data_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes));
        // Build the classic byte table (host-side, not traced: zlib's
        // table is a compile-time constant).
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t c = b;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
            table_[b] = c;
        }
    }

    void
    runScalar() override
    {
        // Table-driven byte-at-a-time CRC: the A[B[i]] indirect pattern.
        Sc<uint32_t> crc(0xffffffffu);
        for (size_t i = 0; i < data_.size(); ++i) {
            Sc<uint8_t> b = sload(&data_[i]);
            Sc<uint32_t> idx = (crc ^ b.to<uint32_t>()) &
                               Sc<uint32_t>(0xffu);
            Sc<uint32_t> t = sload(&table_[idx.v]);
            crc = (crc >> 8) ^ t;
            ctl::loop();
        }
        outScalar_ = ~crc.v;
    }

    void
    runNeon(int) override
    {
        // Armv8 CRC32 instructions, 8 bytes per step (the cryptography
        // acceleration the paper credits for ZL's large reduction).
        Sc<uint32_t> crc(0xffffffffu);
        size_t i = 0;
        const size_t n = data_.size();
        for (; i + 8 <= n; i += 8) {
            uint64_t word;
            std::memcpy(&word, &data_[i], 8);
            uint64_t id = emitMem(InstrClass::SLoad, &data_[i], 8,
                                  Lat::load);
            Sc<uint64_t> d(word, id);
            crc = vcrc32x(crc, d);
            ctl::loop();
        }
        for (; i < n; ++i) {
            Sc<uint8_t> b = sload(&data_[i]);
            crc = vcrc32b(crc, b);
            ctl::loop();
        }
        outNeon_ = ~crc.v;
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return data_.size(); }

  private:
    Buf<uint8_t> data_;
    uint32_t table_[256] = {};
    uint32_t outScalar_ = 0;
    uint32_t outNeon_ = 1;
};

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "zlib", "ZL", Domain::DataCompression,
    true, true, false, true, 0.4, 0.2}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{
        "zlib", "ZL", "adler32", Domain::DataCompression,
        Pattern::Reduction | Pattern::LoopDistribution,
        autovec::Verdict{false, uint32_t(autovec::Fail::ComplexPhi)},
        /*widerWidths=*/true, /*flopsHint=*/0},
    [](const Options &o) { return std::make_unique<Adler32>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{
        "zlib", "ZL", "crc32", Domain::DataCompression,
        uint32_t(Pattern::RandomAccess),
        autovec::Verdict{false,
                         uint32_t(autovec::Fail::IndirectMemory)},
        false, 0},
    [](const Options &o) { return std::make_unique<Crc32>(o); }}));

} // namespace swan::workloads::zlibw
