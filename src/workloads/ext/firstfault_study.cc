/**
 * @file
 * Section 5.2 uncountable-loop study. Loops whose trip count the
 * compiler cannot establish (strlen-style scans with a data-dependent
 * break) block auto-vectorization in eight Swan kernels; the hand-
 * written Neon workaround loads full vectors — legal only when the
 * buffer is padded or page-guarded — reduces to detect a match, and
 * exports lanes one by one to locate it. SVE's first-faulting loads
 * (LDFF1 + FFR) vectorize the same loop safely and locate matches with
 * one predicate instruction. This workload scans a batch of NUL-
 * terminated strings with both strategies.
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

class StrlenScan : public Workload
{
  public:
    StrlenScan(const Options &opts, ScanImpl impl) : impl_(impl)
    {
        Rng rng(opts.seed ^ 0xff57ull);
        // A buffer of strings, lengths 8..120, plus zero padding so the
        // Neon over-read stays in bounds (SVE needs no padding; the
        // fault limit below is the true data end).
        const size_t total = size_t(opts.bufferBytes);
        data_.reserve(total + 16);
        while (data_.size() + 130 < total) {
            const int len = rng.range(8, 120);
            for (int i = 0; i < len; ++i)
                data_.push_back(uint8_t(rng.range(1, 255)));
            data_.push_back(0);
        }
        dataEnd_ = data_.size();
        data_.resize(data_.size() + 16, 0); // over-read pad
        outScalar_ = 0;
        outNeon_ = 1;
    }

    void
    runScalar() override
    {
        // The uncountable loop: while (*p) ++p;
        uint64_t sum = 0;
        size_t s = 0;
        while (s < dataEnd_) {
            size_t i = s;
            for (;;) {
                Sc<uint8_t> c = sload(&data_[i]);
                if (c == Sc<uint8_t>(0u))
                    break;
                ++i;
                ctl::loop();
            }
            sum += i - s;
            s = i + 1;
            ctl::loop();
        }
        outScalar_ = sum;
    }

    void
    runNeon(int) override
    {
        outNeon_ = impl_ == ScanImpl::SveFirstFault ? sveScan()
                                                    : neonScan();
    }

    bool verify() override { return outScalar_ == outNeon_; }
    uint64_t flops() const override { return dataEnd_; }

  private:
    /**
     * Arm Optimized Routines strategy: full-vector loads (over-reading
     * into the pad), MAXV reduction to detect a NUL, then a lane-export
     * scan to locate it.
     */
    uint64_t
    neonScan()
    {
        const auto zero = vdup<uint8_t, 128>(uint8_t(0));
        uint64_t sum = 0;
        size_t s = 0;
        while (s < dataEnd_) {
            size_t i = s;
            size_t term = dataEnd_;
            for (;;) {
                auto d = vld1<128>(&data_[i]); // may over-read the pad
                auto eq = vceq(d, zero);
                Sc<uint8_t> any = vmaxv(eq);
                if (any != Sc<uint8_t>(0u)) {
                    for (int j = 0; j < 16; ++j) {
                        Sc<uint8_t> lane = vget_lane(eq, j);
                        if (lane != Sc<uint8_t>(0u)) {
                            term = i + size_t(j);
                            break;
                        }
                        ctl::loop();
                    }
                    break;
                }
                i += 16;
                ctl::loop();
            }
            sum += term - s;
            s = term + 1;
            ctl::loop();
        }
        return sum;
    }

    /**
     * SVE strategy: LDFF1-governed loop bounded by the true data end
     * (no padding requirement), CMPEQ to a predicate, BRKB/CNTP-style
     * first-index extraction.
     */
    uint64_t
    sveScan()
    {
        const uint8_t *limit = data_.data() + dataEnd_ + 1;
        uint64_t sum = 0;
        size_t s = 0;
        while (s < dataEnd_) {
            size_t i = s;
            size_t term = dataEnd_;
            for (;;) {
                auto ff = vldff1<128>(&data_[i], limit);
                auto m = cmpeq_p(ff.valid, ff.data, uint8_t(0));
                if (ptest(m)) {
                    term = i + size_t(pfirstIdx(m).v);
                    break;
                }
                i += size_t(pcount(ff.valid).v); // INCP
                ctl::loop();
            }
            sum += term - s;
            s = term + 1;
            ctl::loop();
        }
        return sum;
    }

    ScanImpl impl_;
    size_t dataEnd_ = 0;
    Buf<uint8_t> data_;
    uint64_t outScalar_ = 0, outNeon_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeStrlenScan(const Options &opts, ScanImpl impl)
{
    return std::make_unique<StrlenScan>(opts, impl);
}

} // namespace swan::workloads::ext
