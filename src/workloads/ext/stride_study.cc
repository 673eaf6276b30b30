/**
 * @file
 * Section 6.3 arbitrary-stride study. Neon's structure loads stop at
 * stride 4 (VLD4/VST4); beyond that, kernels must compose multiple
 * structure loads with UZP stages, loading — and discarding — data they
 * do not need. RVV's strided loads (vlse) encode any stride in one
 * instruction. Two workloads over an 8-channel interleaved 16-bit audio
 * stream (stride 8):
 *
 *  - Deinterleave8: split all eight channels. The Neon composition
 *    (2x VLD4 + 8x UZP per vector of samples) uses every loaded byte,
 *    so the strided-load win is modest — instruction count only.
 *  - ChannelExtract: produce one channel. Neon still pays the full
 *    2x VLD4 (8x the useful memory traffic) plus an UZP; the strided
 *    load fetches exactly the wanted elements.
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

constexpr int kChannels = 8;

/** Interleaved 8-channel stream sized from the audio options. */
Buf<int16_t>
makeStream(const Options &opts, uint64_t salt, size_t &samples_out)
{
    Rng rng(opts.seed ^ salt);
    const size_t samples =
        (size_t(std::max(opts.audioSamples, 64)) & ~7ull);
    samples_out = samples;
    return randomInts<int16_t>(rng, samples * kChannels);
}

// ---------------------------------------------------------------------
// Deinterleave8
// ---------------------------------------------------------------------

class Deinterleave8 : public Workload
{
  public:
    Deinterleave8(const Options &opts, StrideImpl impl) : impl_(impl)
    {
        stream_ = makeStream(opts, 0xd318ull, samples_);
        outScalar_.assign(size_t(kChannels) * samples_, 0);
        outNeon_.assign(size_t(kChannels) * samples_, 1);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < samples_; ++i) {
            for (int c = 0; c < kChannels; ++c) {
                Sc<int16_t> v =
                    sload(&stream_[i * kChannels + size_t(c)]);
                sstore(&outScalar_[size_t(c) * samples_ + i], v);
            }
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        constexpr int kL = Vec<int16_t, 128>::kLanes; // 8 samples/vector
        for (size_t i = 0; i + kL <= samples_; i += kL) {
            const int16_t *p = &stream_[i * kChannels];
            if (impl_ == StrideImpl::StridedLoad) {
                // One arbitrary-stride load per channel (RVV vlse16).
                for (int c = 0; c < kChannels; ++c) {
                    auto v = vlds<128>(p + c, kChannels);
                    vst1(&outNeon_[size_t(c) * samples_ + i], v);
                }
            } else {
                // VLD4 pairs + UZP: A[r]/B[r] interleave channels r and
                // r+4; UZP1/UZP2 split them.
                auto a = vld4<128>(p);
                auto b = vld4<128>(p + 4 * kL);
                for (int r = 0; r < 4; ++r) {
                    auto lo = vuzp1(a[size_t(r)], b[size_t(r)]);
                    auto hi = vuzp2(a[size_t(r)], b[size_t(r)]);
                    vst1(&outNeon_[size_t(r) * samples_ + i], lo);
                    vst1(&outNeon_[size_t(r + 4) * samples_ + i], hi);
                }
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override
    {
        return samples_ * size_t(kChannels);
    }

  private:
    StrideImpl impl_;
    size_t samples_ = 0;
    Buf<int16_t> stream_;
    Buf<int16_t> outScalar_, outNeon_;
};

// ---------------------------------------------------------------------
// ChannelExtract
// ---------------------------------------------------------------------

class ChannelExtract : public Workload
{
  public:
    static constexpr int kChannel = 5; // r = 1, odd half (exercises UZP2)

    ChannelExtract(const Options &opts, StrideImpl impl) : impl_(impl)
    {
        stream_ = makeStream(opts, 0xce57ull, samples_);
        outScalar_.assign(samples_, 0);
        outNeon_.assign(samples_, 1);
    }

    void
    runScalar() override
    {
        for (size_t i = 0; i < samples_; ++i) {
            Sc<int16_t> v =
                sload(&stream_[i * kChannels + kChannel]);
            sstore(&outScalar_[i], v);
            ctl::loop();
        }
    }

    void
    runNeon(int) override
    {
        constexpr int kL = Vec<int16_t, 128>::kLanes;
        for (size_t i = 0; i + kL <= samples_; i += kL) {
            const int16_t *p = &stream_[i * kChannels];
            if (impl_ == StrideImpl::StridedLoad) {
                auto v = vlds<128>(p + kChannel, kChannels);
                vst1(&outNeon_[i], v);
            } else {
                // The wanted channel rides in register kChannel%4 of a
                // VLD4 pair; 7/8 of the loaded bytes are discarded.
                constexpr int r = kChannel % 4;
                auto a = vld4<128>(p);
                auto b = vld4<128>(p + 4 * kL);
                auto v = kChannel < 4 ? vuzp1(a[r], b[r])
                                      : vuzp2(a[r], b[r]);
                vst1(&outNeon_[i], v);
            }
            ctl::loop();
        }
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return samples_; }

  private:
    StrideImpl impl_;
    size_t samples_ = 0;
    Buf<int16_t> stream_;
    Buf<int16_t> outScalar_, outNeon_;
};

} // namespace

std::unique_ptr<Workload>
makeDeinterleave8(const Options &opts, StrideImpl impl)
{
    return std::make_unique<Deinterleave8>(opts, impl);
}

std::unique_ptr<Workload>
makeChannelExtract(const Options &opts, StrideImpl impl)
{
    return std::make_unique<ChannelExtract>(opts, impl);
}

} // namespace swan::workloads::ext
