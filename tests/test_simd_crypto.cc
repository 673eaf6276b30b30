/**
 * @file
 * Tests for the emulated cryptography extension. AES round primitives
 * are checked against the FIPS-197 AES-128 known-answer vector by
 * composing them into a full encryption; CRC32 against known zlib
 * values; PMULL against carry-less multiplication identities; SHA-256
 * helpers against the NIST "abc" digest via the kernel-style round loop.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "simd/simd.hh"

using namespace swan;
using namespace swan::simd;

namespace
{

/** AES-128 key expansion (host-side reference). */
void
expandKey(const uint8_t key[16], uint8_t rk[11][16])
{
    static const uint8_t rcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                     0x20, 0x40, 0x80, 0x1b, 0x36};
    std::memcpy(rk[0], key, 16);
    for (int r = 1; r <= 10; ++r) {
        uint8_t t[4] = {rk[r - 1][13], rk[r - 1][14], rk[r - 1][15],
                        rk[r - 1][12]};
        for (int i = 0; i < 4; ++i)
            t[i] = crypto::kAesSbox[t[i]];
        t[0] ^= rcon[r - 1];
        for (int i = 0; i < 4; ++i)
            rk[r][i] = uint8_t(rk[r - 1][i] ^ t[i]);
        for (int i = 4; i < 16; ++i)
            rk[r][i] = uint8_t(rk[r - 1][i] ^ rk[r][i - 4]);
    }
}

Vec<uint8_t, 128>
loadBytes(const uint8_t *p)
{
    Vec<uint8_t, 128> v;
    for (int i = 0; i < 16; ++i)
        v.lane[size_t(i)] = p[i];
    return v;
}

} // namespace

TEST(SimdCrypto, Aes128Fips197KnownAnswer)
{
    // FIPS-197 Appendix B.
    const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                             0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                             0x4f, 0x3c};
    const uint8_t plain[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                               0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                               0x07, 0x34};
    const uint8_t expect[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09,
                                0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                                0x0b, 0x32};
    uint8_t rk[11][16];
    expandKey(key, rk);

    auto state = loadBytes(plain);
    for (int r = 0; r < 9; ++r)
        state = vaesmc(vaese(state, loadBytes(rk[r])));
    state = vaese(state, loadBytes(rk[9]));
    state = veor(state, loadBytes(rk[10]));

    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(state[i], expect[i]) << "byte " << i;
}

TEST(SimdCrypto, Crc32KnownValues)
{
    // CRC32("123456789") = 0xCBF43926 (IEEE 802.3 / zlib).
    const char *msg = "123456789";
    Sc<uint32_t> crc(0xffffffffu);
    for (int i = 0; i < 9; ++i)
        crc = vcrc32b(crc, Sc<uint8_t>(uint8_t(msg[i])));
    EXPECT_EQ(~crc.v, 0xCBF43926u);
}

TEST(SimdCrypto, Crc32WidthsCompose)
{
    // Processing 4 bytes with crc32w equals 4x crc32b.
    const uint8_t bytes[4] = {0xde, 0xad, 0xbe, 0xef};
    Sc<uint32_t> c1(0x12345678u);
    for (auto b : bytes)
        c1 = vcrc32b(c1, Sc<uint8_t>(b));
    uint32_t word;
    std::memcpy(&word, bytes, 4);
    Sc<uint32_t> c2 = vcrc32w(Sc<uint32_t>(0x12345678u),
                              Sc<uint32_t>(word));
    EXPECT_EQ(c1.v, c2.v);
}

TEST(SimdCrypto, PmullLinearity)
{
    // clmul(a, b) ^ clmul(a, c) == clmul(a, b ^ c).
    auto a = vdup<uint64_t, 128>(uint64_t(0x123456789abcdef1ull));
    auto b = vdup<uint64_t, 128>(uint64_t(0x0fedcba987654321ull));
    auto c = vdup<uint64_t, 128>(uint64_t(0x1111222233334444ull));
    auto bc = veor(b, c);
    auto ab = vpmull_lo(a, b);
    auto ac = vpmull_lo(a, c);
    auto abc = vpmull_lo(a, bc);
    EXPECT_EQ(veor(ab, ac)[0], abc[0]);
    EXPECT_EQ(veor(ab, ac)[1], abc[1]);
}

TEST(SimdCrypto, PmullByOneIsIdentity)
{
    auto a = vdup<uint64_t, 128>(uint64_t(0xa5a5a5a5deadbeefull));
    auto one = vdup<uint64_t, 128>(uint64_t(1));
    auto p = vpmull_lo(a, one);
    EXPECT_EQ(p[0], 0xa5a5a5a5deadbeefull);
    EXPECT_EQ(p[1], 0u);
}

TEST(SimdCrypto, Sha256AbcDigest)
{
    // One padded block of "abc"; NIST FIPS 180-2 test vector.
    uint8_t block[64] = {};
    block[0] = 'a';
    block[1] = 'b';
    block[2] = 'c';
    block[3] = 0x80;
    block[63] = 24; // bit length

    extern const uint32_t kTestSha256K[64];
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

    Vec<uint32_t, 128> abcd, efgh;
    for (int i = 0; i < 4; ++i) {
        abcd.lane[size_t(i)] = h[i];
        efgh.lane[size_t(i)] = h[4 + i];
    }
    std::array<Vec<uint32_t, 128>, 4> w;
    for (int i = 0; i < 4; ++i) {
        auto bytes = loadBytes(block + 16 * i);
        w[size_t(i)] = vreinterpret<uint32_t>(vrev32(bytes));
    }
    auto a0 = abcd, e0 = efgh;
    for (int r = 0; r < 16; ++r) {
        Vec<uint32_t, 128> k;
        for (int i = 0; i < 4; ++i)
            k.lane[size_t(i)] = kTestSha256K[4 * r + i];
        auto wk = vadd(w[0], k);
        auto na = vsha256h(abcd, efgh, wk);
        efgh = vsha256h2(efgh, abcd, wk);
        abcd = na;
        if (r < 15) {
            swan::simd::Vec<uint32_t, 128> next{};
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
    }
    abcd = vadd(abcd, a0);
    efgh = vadd(efgh, e0);

    const uint32_t expect[8] = {0xba7816bf, 0x8f01cfea, 0x414140de,
                                0x5dae2223, 0xb00361a3, 0x96177a9c,
                                0xb410ff61, 0xf20015ad};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(abcd[i], expect[i]) << "word " << i;
        EXPECT_EQ(efgh[i], expect[4 + i]) << "word " << (4 + i);
    }
}

const uint32_t kTestSha256K[64] = {
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

TEST(SimdCrypto, CryptoInstructionsClassified)
{
    trace::Recorder rec;
    trace::ScopedRecorder scoped(&rec);
    auto s = vdup<uint8_t, 128>(uint8_t(1));
    (void)vaese(s, s);
    (void)vaesmc(s);
    for (const auto &i : rec.instrs()) {
        if (i.cls != trace::InstrClass::VMisc) {
            EXPECT_EQ(i.cls, trace::InstrClass::VCrypto);
        }
    }
}
