/**
 * @file
 * boringssl workloads (symbol BS, Cryptography). Low-level primitives
 * accelerated by the Armv8 Cryptography Extension (Section 3.2): AES-128
 * encryption (AESE/AESMC vs the scalar S-box look-up implementation),
 * ChaCha20 (pure add/xor/rotate, no crypto instructions needed), SHA-256
 * (SHA256H/H2/SU0/SU1 vs textbook rounds), and a GHASH-style carry-less
 * MAC (PMULL vs the scalar 4-bit-nibble table method). The GF(2^64)
 * variant of GHASH is used so both implementations stay readable; the
 * 128-bit version differs only in operand widths (DESIGN.md).
 *
 * A DES-like Feistel kernel (excluded from headline geomeans, like the
 * paper's DES) exists solely for the Section 6.2 look-up-table study:
 * its Neon implementation must export lanes to scalar registers for every
 * S-box access, which makes it *slower* than scalar (the paper measures
 * an 11% slowdown, with 73% of instructions spent on table look-ups).
 */

#include "workloads/common.hh"

namespace swan::workloads::boringssl
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

// ---------------------------------------------------------------------
// AES-128 (ECB over the buffer)
// ---------------------------------------------------------------------

class AesEncrypt : public Workload
{
  public:
    explicit AesEncrypt(const Options &opts)
    {
        Rng rng(opts.seed ^ 0xae5);
        data_ = randomInts<uint8_t>(rng,
                                    size_t(opts.bufferBytes) & ~15ull);
        // Round keys: random (a real schedule does not change the
        // kernel's instruction profile; keys are inputs here).
        for (auto &rk : roundKeys_)
            for (auto &b : rk)
                b = rng.u8();
        outScalar_.assign(data_.size(), 0);
        outNeon_.assign(data_.size(), 1);
        // The traced S-box lookups read a registered copy: a static
        // table falls back to the page map, whose in-page offsets (and
        // so cache-line splits) follow the binary's link layout.
        sbox_.assign(std::begin(crypto::kAesSbox),
                     std::end(crypto::kAesSbox));
        buildTTables();
    }

    void
    runScalar() override
    {
        // T-table implementation (boringssl's scalar path): one 32-bit
        // table look-up per state byte folds SubBytes, ShiftRows and
        // MixColumns together — the A[B[i]] pattern that defeats the
        // auto-vectorizer (Section 6.2).
        for (size_t blk = 0; blk + 16 <= data_.size(); blk += 16) {
            std::array<Sc<uint32_t>, 4> col;
            for (int c = 0; c < 4; ++c)
                col[size_t(c)] = loadCol(&data_[blk + size_t(4 * c)]);
            for (int round = 0; round < 9; ++round) {
                std::array<Sc<uint32_t>, 4> x;
                for (int c = 0; c < 4; ++c) {
                    x[size_t(c)] = col[size_t(c)] ^
                                   Sc<uint32_t>(keyWord(round, c));
                }
                for (int c = 0; c < 4; ++c) {
                    Sc<uint32_t> acc(0u);
                    for (int r = 0; r < 4; ++r) {
                        Sc<uint32_t> byte =
                            (x[size_t((c + r) % 4)] >> (8 * r)) &
                            Sc<uint32_t>(0xffu);
                        acc = acc ^ sload(&ttab_[size_t(r)][byte.v]);
                    }
                    col[size_t(c)] = acc;
                }
                ctl::loop();
            }
            // Final round: SubBytes + ShiftRows + AddRoundKey, bytewise.
            std::array<Sc<uint32_t>, 4> x;
            for (int c = 0; c < 4; ++c)
                x[size_t(c)] = col[size_t(c)] ^
                               Sc<uint32_t>(keyWord(9, c));
            for (int c = 0; c < 4; ++c) {
                Sc<uint32_t> out(0u);
                for (int r = 0; r < 4; ++r) {
                    Sc<uint32_t> byte =
                        (x[size_t((c + r) % 4)] >> (8 * r)) &
                        Sc<uint32_t>(0xffu);
                    Sc<uint8_t> sub = sload(&sbox_[byte.v]);
                    out = out | (sub.to<uint32_t>() << (8 * r));
                }
                out = out ^ Sc<uint32_t>(keyWord(10, c));
                storeCol(&outScalar_[blk + size_t(4 * c)], out);
            }
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        std::array<Vec<uint8_t, 128>, 11> rk;
        for (int r = 0; r < 11; ++r)
            rk[size_t(r)] = vld1<128>(roundKeys_[size_t(r)].data());
        for (size_t blk = 0; blk + 16 <= data_.size(); blk += 16) {
            auto state = vld1<128>(&data_[blk]);
            for (int round = 0; round < 9; ++round)
                state = vaesmc(vaese(state, rk[size_t(round)]));
            state = vaese(state, rk[9]);
            state = veor(state, rk[10]);
            vst1(&outNeon_[blk], state);
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    /** Build the four round T-tables from the S-box (host constants). */
    void
    buildTTables()
    {
        auto x2 = [](uint8_t v) { return crypto::xtime(v); };
        for (uint32_t v = 0; v < 256; ++v) {
            const uint8_t sb = crypto::kAesSbox[v];
            const uint8_t s2 = x2(sb);
            const uint8_t s3 = uint8_t(s2 ^ sb);
            // MixColumns rows [2 3 1 1; 1 2 3 1; 1 1 2 3; 3 1 1 2];
            // T[r][v] is the contribution of shifted-row byte r.
            ttab_[0][v] = uint32_t(s2) | uint32_t(sb) << 8 |
                          uint32_t(sb) << 16 | uint32_t(s3) << 24;
            ttab_[1][v] = uint32_t(s3) | uint32_t(s2) << 8 |
                          uint32_t(sb) << 16 | uint32_t(sb) << 24;
            ttab_[2][v] = uint32_t(sb) | uint32_t(s3) << 8 |
                          uint32_t(s2) << 16 | uint32_t(sb) << 24;
            ttab_[3][v] = uint32_t(sb) | uint32_t(sb) << 8 |
                          uint32_t(s3) << 16 | uint32_t(s2) << 24;
        }
    }

    uint32_t
    keyWord(int round, int c) const
    {
        uint32_t w;
        std::memcpy(&w, &roundKeys_[size_t(round)][size_t(4 * c)], 4);
        return w;
    }

    static Sc<uint32_t>
    loadCol(const uint8_t *p)
    {
        uint32_t w;
        std::memcpy(&w, p, 4);
        uint64_t id = emitMem(InstrClass::SLoad, p, 4, Lat::load);
        return {w, id};
    }

    static void
    storeCol(uint8_t *p, Sc<uint32_t> v)
    {
        emitMem(InstrClass::SStore, p, 4, Lat::store, v.src);
        std::memcpy(p, &v.v, 4);
    }

    Buf<uint8_t> data_, outScalar_, outNeon_, sbox_;
    std::array<std::array<uint8_t, 16>, 11> roundKeys_{};
    std::array<std::array<uint32_t, 256>, 4> ttab_{};
};

// ---------------------------------------------------------------------
// ChaCha20 block function (keystream XOR over the buffer)
// ---------------------------------------------------------------------

class ChaCha20 : public Workload
{
  public:
    explicit ChaCha20(const Options &opts)
    {
        Rng rng(opts.seed ^ 0xcaca);
        data_ = randomInts<uint8_t>(rng,
                                    size_t(opts.bufferBytes) & ~63ull);
        for (auto &w : state0_)
            w = rng.u32();
        outScalar_.assign(data_.size(), 0);
        outNeon_.assign(data_.size(), 1);
    }

    void
    runScalar() override
    {
        uint32_t counter = 0;
        for (size_t blk = 0; blk + 64 <= data_.size(); blk += 64) {
            Sc<uint32_t> x[16];
            for (int i = 0; i < 16; ++i)
                x[i] = Sc<uint32_t>(state0_[size_t(i)]);
            x[12] = Sc<uint32_t>(state0_[12] + counter);
            for (int round = 0; round < 10; ++round) {
                qr(x[0], x[4], x[8], x[12]);
                qr(x[1], x[5], x[9], x[13]);
                qr(x[2], x[6], x[10], x[14]);
                qr(x[3], x[7], x[11], x[15]);
                qr(x[0], x[5], x[10], x[15]);
                qr(x[1], x[6], x[11], x[12]);
                qr(x[2], x[7], x[8], x[13]);
                qr(x[3], x[4], x[9], x[14]);
                ctl::loop();
            }
            for (int i = 0; i < 16; ++i) {
                Sc<uint32_t> ks =
                    x[i] + Sc<uint32_t>(state0_[size_t(i)] +
                                        (i == 12 ? counter : 0));
                uint32_t word;
                std::memcpy(&word, &data_[blk + size_t(4 * i)], 4);
                uint64_t id = emitMem(InstrClass::SLoad,
                                      &data_[blk + size_t(4 * i)], 4,
                                      Lat::load);
                Sc<uint32_t> d(word, id);
                Sc<uint32_t> o = d ^ ks;
                emitMem(InstrClass::SStore,
                        &outScalar_[blk + size_t(4 * i)], 4, Lat::store,
                        o.src);
                std::memcpy(&outScalar_[blk + size_t(4 * i)], &o.v, 4);
            }
            ++counter;
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        uint32_t counter = 0;
        for (size_t blk = 0; blk + 64 <= data_.size(); blk += 64) {
            std::array<Vec<uint32_t, 128>, 4> v;
            uint32_t init[16];
            for (int i = 0; i < 16; ++i)
                init[i] = state0_[size_t(i)];
            init[12] += counter;
            for (int r = 0; r < 4; ++r)
                v[size_t(r)] = vld1<128>(init + 4 * r);
            auto v0_init = v[0], v1_init = v[1], v2_init = v[2],
                 v3_init = v[3];
            for (int round = 0; round < 10; ++round) {
                vqr(v[0], v[1], v[2], v[3]);
                // Diagonalize.
                v[1] = vext(v[1], v[1], 1);
                v[2] = vext(v[2], v[2], 2);
                v[3] = vext(v[3], v[3], 3);
                vqr(v[0], v[1], v[2], v[3]);
                v[1] = vext(v[1], v[1], 3);
                v[2] = vext(v[2], v[2], 2);
                v[3] = vext(v[3], v[3], 1);
                ctl::loop();
            }
            v[0] = vadd(v[0], v0_init);
            v[1] = vadd(v[1], v1_init);
            v[2] = vadd(v[2], v2_init);
            v[3] = vadd(v[3], v3_init);
            for (int r = 0; r < 4; ++r) {
                const uint8_t *src = &data_[blk + size_t(16 * r)];
                auto d = vld1<128>(src);
                auto ks = vreinterpret<uint8_t>(v[size_t(r)]);
                vst1(&outNeon_[blk + size_t(16 * r)], veor(d, ks));
            }
            ++counter;
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    static void
    qr(Sc<uint32_t> &a, Sc<uint32_t> &b, Sc<uint32_t> &c,
       Sc<uint32_t> &d)
    {
        auto rotl = [](Sc<uint32_t> x, int n) {
            return (x << n) | (x >> (32 - n));
        };
        a += b;
        d = rotl(d ^ a, 16);
        c += d;
        b = rotl(b ^ c, 12);
        a += b;
        d = rotl(d ^ a, 8);
        c += d;
        b = rotl(b ^ c, 7);
    }

    static void
    vqr(Vec<uint32_t, 128> &a, Vec<uint32_t, 128> &b,
        Vec<uint32_t, 128> &c, Vec<uint32_t, 128> &d)
    {
        auto rotl = [](const Vec<uint32_t, 128> &x, int n) {
            if (n == 16) {
                // REV32 on 16-bit lanes rotates every word by 16.
                return vreinterpret<uint32_t>(
                    vrev32(vreinterpret<uint16_t>(x)));
            }
            return vorr(vshl(x, n), vshr(x, 32 - n));
        };
        a = vadd(a, b);
        d = rotl(veor(d, a), 16);
        c = vadd(c, d);
        b = rotl(veor(b, c), 12);
        a = vadd(a, b);
        d = rotl(veor(d, a), 8);
        c = vadd(c, d);
        b = rotl(veor(b, c), 7);
    }

    Buf<uint8_t> data_, outScalar_, outNeon_;
    std::array<uint32_t, 16> state0_{};
};

// ---------------------------------------------------------------------
// SHA-256 over the buffer
// ---------------------------------------------------------------------

/** SHA-256 round constants. */
constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

class Sha256 : public Workload
{
  public:
    explicit Sha256(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x5a25);
        data_ = randomInts<uint8_t>(rng,
                                    size_t(opts.bufferBytes) & ~63ull);
        // Traced loads read a registered copy of the constants (see
        // AesEncrypt: a static table's addresses follow the link
        // layout).
        k_.assign(std::begin(kSha256K), std::end(kSha256K));
    }

    void
    runScalar() override
    {
        uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
        for (size_t blk = 0; blk + 64 <= data_.size(); blk += 64) {
            Sc<uint32_t> w[64];
            for (int i = 0; i < 16; ++i) {
                uint32_t word;
                std::memcpy(&word, &data_[blk + size_t(4 * i)], 4);
                uint64_t id = emitMem(InstrClass::SLoad,
                                      &data_[blk + size_t(4 * i)], 4,
                                      Lat::load);
                // REV byte swap (1 scalar op).
                uint64_t rid = emitOp(InstrClass::SInt, Fu::SAlu,
                                      Lat::sAlu, id);
                w[i] = Sc<uint32_t>(__builtin_bswap32(word), rid);
            }
            for (int i = 16; i < 64; ++i) {
                Sc<uint32_t> s0 = ror(w[i - 15], 7) ^
                                  ror(w[i - 15], 18) ^ (w[i - 15] >> 3);
                Sc<uint32_t> s1 = ror(w[i - 2], 17) ^
                                  ror(w[i - 2], 19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16] + s0 + w[i - 7] + s1;
                ctl::loop();
            }
            Sc<uint32_t> a(h[0]), b(h[1]), c(h[2]), d(h[3]);
            Sc<uint32_t> e(h[4]), f(h[5]), g(h[6]), hh(h[7]);
            for (int i = 0; i < 64; ++i) {
                Sc<uint32_t> k = sload(&k_[size_t(i)]);
                Sc<uint32_t> big1 =
                    ror(e, 6) ^ ror(e, 11) ^ ror(e, 25);
                Sc<uint32_t> ch = (e & f) ^ (~e & g);
                Sc<uint32_t> t1 = hh + big1 + ch + k + w[i];
                Sc<uint32_t> big0 =
                    ror(a, 2) ^ ror(a, 13) ^ ror(a, 22);
                Sc<uint32_t> maj = (a & b) ^ (a & c) ^ (b & c);
                Sc<uint32_t> t2 = big0 + maj;
                hh = g; g = f; f = e; e = d + t1;
                d = c; c = b; b = a; a = t1 + t2;
                ctl::loop();
            }
            h[0] += a.v; h[1] += b.v; h[2] += c.v; h[3] += d.v;
            h[4] += e.v; h[5] += f.v; h[6] += g.v; h[7] += hh.v;
            ctl::loop();
        }
        std::memcpy(outScalar_, h, sizeof(h));
    }

    void
    runNeon(int) override
    {
        uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
        for (size_t blk = 0; blk + 64 <= data_.size(); blk += 64) {
            auto abcd = vld1<128>(h);
            auto efgh = vld1<128>(h + 4);
            std::array<Vec<uint32_t, 128>, 4> w;
            for (int i = 0; i < 4; ++i) {
                auto bytes = vld1<128>(&data_[blk + size_t(16 * i)]);
                auto swapped = vrev32(bytes); // REV32.16B byte swap
                w[size_t(i)] = vreinterpret<uint32_t>(swapped);
            }
            auto a0 = abcd, e0 = efgh;
            for (int r = 0; r < 16; ++r) {
                auto wk = vadd(w[0], vld1<128>(&k_[size_t(4 * r)]));
                auto new_abcd = vsha256h(abcd, efgh, wk);
                efgh = vsha256h2(efgh, abcd, wk);
                abcd = new_abcd;
                if (r < 15) {
                    // Message schedule: W[t..t+3] from the last 16;
                    // the window keeps sliding after generation stops.
                    Vec<uint32_t, 128> next{};
                    if (r < 12) {
                        auto part = vsha256su0(w[0], w[1]);
                        next = vsha256su1(part, w[2], w[3]);
                    }
                    w[0] = w[1];
                    w[1] = w[2];
                    w[2] = w[3];
                    if (r < 12)
                        w[3] = next;
                }
                ctl::loop();
            }
            abcd = vadd(abcd, a0);
            efgh = vadd(efgh, e0);
            uint32_t tmp[8];
            vst1(tmp, abcd);
            vst1(tmp + 4, efgh);
            std::memcpy(h, tmp, sizeof(h));
            ctl::loop();
        }
        std::memcpy(outNeon_, h, sizeof(h));
    }

    bool
    verify() override
    {
        return std::memcmp(outScalar_, outNeon_, sizeof(outScalar_)) == 0;
    }

  private:
    static Sc<uint32_t>
    ror(Sc<uint32_t> x, int n)
    {
        return (x >> n) | (x << (32 - n));
    }

    Buf<uint8_t> data_;
    Buf<uint32_t> k_;
    uint32_t outScalar_[8] = {};
    uint32_t outNeon_[8] = {1};
};

// ---------------------------------------------------------------------
// GHASH-style carry-less MAC over GF(2^64)
// ---------------------------------------------------------------------

class GhashPmull : public Workload
{
  public:
    explicit GhashPmull(const Options &opts)
    {
        Rng rng(opts.seed ^ 0x64a5);
        data_ = randomInts<uint8_t>(rng,
                                    size_t(opts.bufferBytes) & ~7ull);
        h_ = rng.next() | 1;
        // 4-bit nibble table: T[i] = clmul(i, H), 68-bit results.
        for (uint64_t i = 0; i < 16; ++i) {
            uint64_t lo = 0, hi = 0;
            for (int b = 0; b < 4; ++b) {
                if ((i >> b) & 1) {
                    lo ^= h_ << b;
                    if (b > 0)
                        hi ^= h_ >> (64 - b);
                }
            }
            tabLo_[i] = lo;
            tabHi_[i] = hi;
        }
    }

    void
    runScalar() override
    {
        // 4-bit table method (gcm_gmult_4bit style): table look-ups per
        // nibble — the Section 6.2 look-up pattern.
        Sc<uint64_t> x(0ull);
        for (size_t i = 0; i + 8 <= data_.size(); i += 8) {
            x = x ^ loadWord(&data_[i]);
            // 128-bit accumulator acc = X * H, nibble at a time.
            Sc<uint64_t> acc_lo(0ull), acc_hi(0ull);
            for (int nib = 15; nib >= 0; --nib) {
                // acc <<= 4 (128-bit).
                acc_hi = (acc_hi << 4) | (acc_lo >> 60);
                acc_lo = acc_lo << 4;
                Sc<uint64_t> idx = (x >> (4 * nib)) &
                                   Sc<uint64_t>(uint64_t(0xf));
                acc_lo = acc_lo ^ sload(&tabLo_[idx.v]);
                acc_hi = acc_hi ^ sload(&tabHi_[idx.v]);
                ctl::loop();
            }
            x = reduceScalar(acc_lo, acc_hi);
            ctl::loop();
        }
        outScalar_ = x.v;
    }

    void
    runNeon(int) override
    {
        auto h = vdup<uint64_t, 128>(Sc<uint64_t>(h_));
        auto fold_c = vdup<uint64_t, 128>(uint64_t(0x1b));
        auto x = vdup<uint64_t, 128>(uint64_t(0));
        const auto zero = vdup<uint64_t, 128>(uint64_t(0));
        for (size_t i = 0; i + 8 <= data_.size(); i += 8) {
            auto d = vld1_partial<128>(
                reinterpret_cast<const uint64_t *>(&data_[i]), 1);
            auto xin = veor(x, d);
            auto prod = vpmull_lo(xin, h);           // [lo, hi]
            // Fold hi: hi * 0x1b, then the 4-bit spill once more.
            auto hi = vext(prod, zero, 1);           // lane0 = hi
            auto f1 = vpmull_lo(hi, fold_c);         // [f1lo, f1hi]
            auto f1hi = vext(f1, zero, 1);
            auto f2 = vpmull_lo(f1hi, fold_c);
            x = veor(veor(prod, f1), f2);
            // Clear lane1 (keep the reduced 64-bit value in lane0).
            x = vset_lane(x, 1, Sc<uint64_t>(uint64_t(0)));
            ctl::loop();
        }
        outNeon_ = vget_lane(x, 0).v;
    }

    bool verify() override { return outScalar_ == outNeon_; }

  private:
    static Sc<uint64_t>
    loadWord(const uint8_t *p)
    {
        uint64_t word;
        std::memcpy(&word, p, 8);
        uint64_t id = emitMem(InstrClass::SLoad, p, 8, Lat::load);
        return {word, id};
    }

    /** Reduce a 128-bit carry-less product mod x^64+x^4+x^3+x+1. */
    static Sc<uint64_t>
    reduceScalar(Sc<uint64_t> lo, Sc<uint64_t> hi)
    {
        Sc<uint64_t> f = (hi << 4) ^ (hi << 3) ^ (hi << 1) ^ hi;
        Sc<uint64_t> carry =
            (hi >> 60) ^ (hi >> 61) ^ (hi >> 63);
        Sc<uint64_t> f2 = (carry << 4) ^ (carry << 3) ^ (carry << 1) ^
                          carry;
        return lo ^ f ^ f2;
    }

    Buf<uint8_t> data_;
    uint64_t h_ = 0;
    uint64_t tabLo_[16] = {}, tabHi_[16] = {};
    uint64_t outScalar_ = 0, outNeon_ = 1;
};

// ---------------------------------------------------------------------
// DES-like Feistel cipher (Section 6.2 study kernel; excluded from
// headline results). S-boxes are synthetic 6->4-bit tables.
// ---------------------------------------------------------------------

class DesLut : public Workload
{
  public:
    explicit DesLut(const Options &opts, bool use_lut = true)
        : useLut_(use_lut)
    {
        Rng rng(opts.seed ^ 0xde5);
        data_ = randomInts<uint8_t>(rng,
                                    size_t(opts.bufferBytes) & ~7ull);
        for (auto &box : sbox_)
            for (auto &e : box)
                e = uint8_t(rng.range(0, 15));
        for (auto &k : keys_)
            k = rng.u32();
        outScalar_.assign(data_.size() / 8, 0);
        outNeon_.assign(data_.size() / 8, 1);
    }

    void
    runScalar() override
    {
        for (size_t b = 0; b * 8 + 8 <= data_.size(); ++b) {
            uint32_t halves[2];
            std::memcpy(halves, &data_[b * 8], 8);
            uint64_t id = emitMem(InstrClass::SLoad, &data_[b * 8], 8,
                                  Lat::load);
            Sc<uint32_t> l(halves[0], id), r(halves[1], id);
            for (int round = 0; round < 16; ++round) {
                Sc<uint32_t> f = feistelScalar(r, keys_[size_t(round)]);
                Sc<uint32_t> nl = r;
                r = l ^ f;
                l = nl;
                ctl::loop();
            }
            sstore(&outScalar_[b], (uint64_t(l.v) << 32) | r.v,
                   l.src ? l : r);
        }
    }

    void
    runNeon(int) override
    {
        // Four blocks per vector; every S-box access exports the lane to
        // a scalar register, looks the value up, and re-inserts it
        // (Section 6.2: ~73% of instructions are table look-ups).
        const size_t nblk = data_.size() / 8;
        size_t b = 0;
        for (; b + 4 <= nblk; b += 4) {
            auto l = vdup<uint32_t, 128>(0u);
            auto r = vdup<uint32_t, 128>(0u);
            for (int j = 0; j < 4; ++j) {
                uint32_t halves[2];
                std::memcpy(halves, &data_[(b + size_t(j)) * 8], 8);
                uint64_t id = emitMem(InstrClass::SLoad,
                                      &data_[(b + size_t(j)) * 8], 8,
                                      Lat::load);
                l = vset_lane(l, j, Sc<uint32_t>(halves[0], id));
                r = vset_lane(r, j, Sc<uint32_t>(halves[1], id));
            }
            for (int round = 0; round < 16; ++round) {
                auto f = useLut_ ? feistelVecLut(r, keys_[size_t(round)])
                                 : feistelVecNoLut(r,
                                                   keys_[size_t(round)]);
                auto nl = r;
                r = veor(l, f);
                l = nl;
                ctl::loop();
            }
            for (int j = 0; j < 4; ++j) {
                Sc<uint32_t> lv = vget_lane(l, j);
                Sc<uint32_t> rv = vget_lane(r, j);
                sstore(&outNeon_[b + size_t(j)],
                       (uint64_t(lv.v) << 32) | rv.v, lv);
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }

    /** Switch both implementations to the arithmetic S-box variant. */
    void setUseLut(bool use_lut) { useLut_ = use_lut; }

    /** Fraction of Neon instructions spent on look-up lane traffic. */
    static constexpr const char *kNote =
        "see bench/sec62_des_lut for the Section 6.2 study";

    void
    runScalarNoLut()
    {
        const bool saved = useLut_;
        useLut_ = false;
        runScalarImpl();
        useLut_ = saved;
    }

  private:
    void
    runScalarImpl()
    {
        runScalar();
    }

    static void
    sstore(uint64_t *p, uint64_t v, Sc<uint32_t> dep)
    {
        emitMem(InstrClass::SStore, p, 8, Lat::store, dep.src);
        *p = v;
    }

    Sc<uint32_t>
    feistelScalar(Sc<uint32_t> r, uint32_t key)
    {
        Sc<uint32_t> x = r ^ Sc<uint32_t>(key);
        Sc<uint32_t> out(0u);
        for (int s = 0; s < 8; ++s) {
            Sc<uint32_t> chunk = (x >> (4 * s)) &
                                 Sc<uint32_t>(0x3fu & 0xfu);
            Sc<uint32_t> v;
            if (useLut_) {
                Sc<uint8_t> t =
                    sload(&sbox_[size_t(s)][chunk.v & 0x3f]);
                v = t.to<uint32_t>();
            } else {
                // Arithmetic substitute for the S-box.
                v = ((chunk * Sc<uint32_t>(193u) + Sc<uint32_t>(7u)) >>
                     2) & Sc<uint32_t>(0xfu);
            }
            out = out | (v << (4 * s));
        }
        return out;
    }

    Vec<uint32_t, 128>
    feistelVecLut(const Vec<uint32_t, 128> &r, uint32_t key)
    {
        auto x = veor(r, vdup<uint32_t, 128>(key));
        auto out = vdup<uint32_t, 128>(0u);
        for (int s = 0; s < 8; ++s) {
            auto chunk = vand(vshr(x, 4 * s), vdup<uint32_t, 128>(0xfu));
            // Export each lane, look up, re-insert (the costly path).
            auto looked = vdup<uint32_t, 128>(0u);
            for (int lane = 0; lane < 4; ++lane) {
                Sc<uint32_t> c = vget_lane(chunk, lane);
                Sc<uint8_t> t = sload(&sbox_[size_t(s)][c.v & 0x3f]);
                looked = vset_lane(looked, lane, t.to<uint32_t>());
            }
            out = vorr(out, vshl(looked, 4 * s));
        }
        return out;
    }

    Vec<uint32_t, 128>
    feistelVecNoLut(const Vec<uint32_t, 128> &r, uint32_t key)
    {
        auto x = veor(r, vdup<uint32_t, 128>(key));
        auto out = vdup<uint32_t, 128>(0u);
        for (int s = 0; s < 8; ++s) {
            auto chunk = vand(vshr(x, 4 * s), vdup<uint32_t, 128>(0xfu));
            auto v = vmul(chunk, vdup<uint32_t, 128>(193u));
            v = vadd(v, vdup<uint32_t, 128>(7u));
            v = vand(vshr(v, 2), vdup<uint32_t, 128>(0xfu));
            out = vorr(out, vshl(v, 4 * s));
        }
        return out;
    }

    bool useLut_;
    Buf<uint8_t> data_;
    std::array<std::array<uint8_t, 64>, 8> sbox_{};
    std::array<uint32_t, 16> keys_{};
    Buf<uint64_t> outScalar_, outNeon_;
};

/** Factory used by the Section 6.2 bench. */
std::unique_ptr<Workload>
makeDesLut(const Options &opts, bool use_lut)
{
    return std::make_unique<DesLut>(opts, use_lut);
}

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "boringssl", "BS", Domain::Cryptography,
    true, true, true, false, 0.9, 0.6}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"boringssl", "BS", "aes_encrypt",
                     Domain::Cryptography,
                     uint32_t(Pattern::RandomAccess),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::IndirectMemory)},
                     false, 0},
    [](const Options &o) { return std::make_unique<AesEncrypt>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"boringssl", "BS", "chacha20",
                     Domain::Cryptography, 0,
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::OtherLegality)},
                     false, 0},
    [](const Options &o) { return std::make_unique<ChaCha20>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"boringssl", "BS", "sha256", Domain::Cryptography,
                     uint32_t(Pattern::Reduction),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::ComplexPhi)},
                     false, 0},
    [](const Options &o) { return std::make_unique<Sha256>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"boringssl", "BS", "ghash_pmull",
                     Domain::Cryptography,
                     uint32_t(Pattern::RandomAccess),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::IndirectMemory)},
                     false, 0},
    [](const Options &o) { return std::make_unique<GhashPmull>(o); }}));

SWAN_REGISTER_KERNEL((core::KernelSpec{
    core::KernelInfo{"boringssl", "BS", "des_lut", Domain::Cryptography,
                     uint32_t(Pattern::RandomAccess),
                     autovec::Verdict{
                         false, uint32_t(autovec::Fail::IndirectMemory)},
                     false, 0, /*excluded=*/true},
    [](const Options &o) { return std::make_unique<DesLut>(o); }}));

} // namespace swan::workloads::boringssl
