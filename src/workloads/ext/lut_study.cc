/**
 * @file
 * Section 6.2 look-up-table kernels with future-ISA gather intrinsics.
 *
 * The paper observes that all seven random-access kernels in the suite
 * gather values from look-up tables, that Neon has no general-purpose
 * intrinsic for this (TBL tops out at 64 byte-entries), and that the
 * workaround — export each key lane to a scalar register, load from the
 * table, re-insert the value — is so costly that four kernels abandon
 * their look-up tables and DES abandons vectorization entirely (11%
 * slower than scalar, 73% of instructions spent on look-up traffic).
 * Section 9 names SVE/RVV gathers as the fix; these two workloads
 * measure exactly that fix.
 */

#include "workloads/ext/ext.hh"

#include "workloads/common.hh"

namespace swan::workloads::ext
{

using namespace swan::simd;
using core::Options;
using core::Workload;

namespace
{

// ---------------------------------------------------------------------
// LU_TBL: vals[i] = table[keys[i]] (the paper's Section 6.2 listing).
// ---------------------------------------------------------------------

class LutTransform : public Workload
{
  public:
    static constexpr uint32_t kTableSize = 1024; // > 64: TBL inapplicable

    LutTransform(const Options &opts, LutImpl impl) : impl_(impl)
    {
        Rng rng(opts.seed ^ 0x107b1ull);
        table_ = randomInts<uint32_t>(rng, kTableSize);
        const size_t n = size_t(opts.bufferBytes) / sizeof(uint32_t);
        keys_.resize(n);
        for (auto &k : keys_)
            k = rng.u32() % kTableSize;
        outScalar_.assign(n, 0);
        outNeon_.assign(n, 1);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < keys_.size(); ++i) {
            Sc<uint32_t> key = sload(&keys_[i]);
            Sc<uint32_t> val = sload(&table_[key.v]);
            sstore(&outScalar_[i], val);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        constexpr int kL = Vec<uint32_t, 128>::kLanes;
        for (size_t i = 0; i + kL <= keys_.size(); i += kL) {
            auto keys = vld1<128>(&keys_[i]);
            Vec<uint32_t, 128> vals;
            if (impl_ == LutImpl::Gather) {
                vals = vgather(table_.data(), keys);
            } else {
                vals = vdup<uint32_t, 128>(0u);
                for (int lane = 0; lane < kL; ++lane) {
                    Sc<uint32_t> k = vget_lane(keys, lane);
                    Sc<uint32_t> v = sload(&table_[k.v]);
                    vals = vset_lane(vals, lane, v);
                }
            }
            vst1(&outNeon_[i], vals);
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return keys_.size(); }

  private:
    LutImpl impl_;
    Buf<uint32_t> table_;
    Buf<uint32_t> keys_;
    Buf<uint32_t> outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// DES-like Feistel cipher with gathered S-boxes.
// ---------------------------------------------------------------------

/**
 * Mirrors the structure of the suite's BS/des_lut kernel (16 Feistel
 * rounds, eight 4-bit S-boxes per round) with 32-bit S-box entries so
 * the gather index and data lanes line up (RVV vluxei32 semantics).
 */
class DesGather : public Workload
{
  public:
    DesGather(const Options &opts, LutImpl impl) : impl_(impl)
    {
        Rng rng(opts.seed ^ 0xde59a7ull);
        data_ = randomInts<uint8_t>(rng, size_t(opts.bufferBytes) & ~7ull);
        for (auto &box : sbox_)
            for (auto &e : box)
                e = uint32_t(rng.range(0, 15));
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
            uint64_t id =
                emitMem(InstrClass::SLoad, &data_[b * 8], 8, Lat::load);
            Sc<uint32_t> l(halves[0], id), r(halves[1], id);
            for (int round = 0; round < 16; ++round) {
                Sc<uint32_t> f = feistelScalar(r, keys_[size_t(round)]);
                Sc<uint32_t> nl = r;
                r = l ^ f;
                l = nl;
                ctl::loop();
            }
            emitMem(InstrClass::SStore, &outScalar_[b], 8, Lat::store,
                    l.src ? l.src : r.src);
            outScalar_[b] = (uint64_t(l.v) << 32) | r.v;
        }
    }

    void
    runNeon(int) override
    {
        constexpr int kL = Vec<uint32_t, 128>::kLanes; // 4 blocks/vector
        const size_t nblk = data_.size() / 8;
        for (size_t b = 0; b + kL <= nblk; b += kL) {
            auto l = vdup<uint32_t, 128>(0u);
            auto r = vdup<uint32_t, 128>(0u);
            for (int j = 0; j < kL; ++j) {
                uint32_t halves[2];
                std::memcpy(halves, &data_[(b + size_t(j)) * 8], 8);
                uint64_t id = emitMem(InstrClass::SLoad,
                                      &data_[(b + size_t(j)) * 8], 8,
                                      Lat::load);
                l = vset_lane(l, j, Sc<uint32_t>(halves[0], id));
                r = vset_lane(r, j, Sc<uint32_t>(halves[1], id));
            }
            for (int round = 0; round < 16; ++round) {
                auto f = feistelVec(r, keys_[size_t(round)]);
                auto nl = r;
                r = veor(l, f);
                l = nl;
                ctl::loop();
            }
            for (int j = 0; j < kL; ++j) {
                Sc<uint32_t> lv = vget_lane(l, j);
                Sc<uint32_t> rv = vget_lane(r, j);
                emitMem(InstrClass::SStore, &outNeon_[b + size_t(j)], 8,
                        Lat::store, lv.src);
                outNeon_[b + size_t(j)] = (uint64_t(lv.v) << 32) | rv.v;
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override
    {
        return (data_.size() / 8) * 16 * 8;
    }

  private:
    Sc<uint32_t>
    feistelScalar(Sc<uint32_t> r, uint32_t key)
    {
        Sc<uint32_t> x = r ^ Sc<uint32_t>(key);
        Sc<uint32_t> out(0u);
        for (int s = 0; s < 8; ++s) {
            Sc<uint32_t> chunk = (x >> (4 * s)) & Sc<uint32_t>(0xfu);
            Sc<uint32_t> v = sload(&sbox_[size_t(s)][chunk.v]);
            out = out | (v << (4 * s));
        }
        return out;
    }

    Vec<uint32_t, 128>
    feistelVec(const Vec<uint32_t, 128> &r, uint32_t key)
    {
        constexpr int kL = Vec<uint32_t, 128>::kLanes;
        auto x = veor(r, vdup<uint32_t, 128>(key));
        auto out = vdup<uint32_t, 128>(0u);
        for (int s = 0; s < 8; ++s) {
            auto chunk = vand(vshr(x, 4 * s), vdup<uint32_t, 128>(0xfu));
            Vec<uint32_t, 128> looked;
            if (impl_ == LutImpl::Gather) {
                looked = vgather(sbox_[size_t(s)].data(), chunk);
            } else {
                looked = vdup<uint32_t, 128>(0u);
                for (int lane = 0; lane < kL; ++lane) {
                    Sc<uint32_t> c = vget_lane(chunk, lane);
                    Sc<uint32_t> t = sload(&sbox_[size_t(s)][c.v]);
                    looked = vset_lane(looked, lane, t);
                }
            }
            out = vorr(out, vshl(looked, 4 * s));
        }
        return out;
    }

    LutImpl impl_;
    Buf<uint8_t> data_;
    std::array<std::array<uint32_t, 16>, 8> sbox_{};
    std::array<uint32_t, 16> keys_{};
    Buf<uint64_t> outScalar_, outNeon_;
};

} // namespace

std::unique_ptr<Workload>
makeLutTransform(const Options &opts, LutImpl impl)
{
    return std::make_unique<LutTransform>(opts, impl);
}

std::unique_ptr<Workload>
makeDesGather(const Options &opts, LutImpl impl)
{
    return std::make_unique<DesGather>(opts, impl);
}

} // namespace swan::workloads::ext
