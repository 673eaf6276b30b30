/**
 * @file
 * XNNPACK workloads (symbol XP, Machine Learning). GEMM and SpMM
 * micro-kernels in four precisions (FP32, FP16, INT32, INT16), as used by
 * TFLite/PyTorch back-ends (Section 3.2). The Neon GEMM uses the
 * MR=4 x NR=2-vector register-blocked micro-kernel with eight independent
 * accumulators — the high-ILP, manually-unrolled code that scales with
 * more ASIMD units in Figure 5(b). gemm_f32 is one of the eight
 * Figure-5 wider-register kernels; the default N is not divisible by the
 * wider lane counts, so SIMD utilization drops with width exactly as the
 * paper describes (98% at 128 bits to ~89% at 1024 bits).
 *
 * SpMM keeps the weight matrix in a CSR-like layout; the column indices
 * produce the indirect B-row loads that defeat the auto-vectorizer.
 *
 * Integer variants use wraparound accumulation in the element type, which
 * keeps Scalar and Neon bit-identical.
 */

#include "workloads/common.hh"

namespace swan::workloads::xnnpack
{

using namespace swan::simd;
using core::Domain;
using core::Options;
using core::Pattern;
using core::Workload;

namespace
{

template <typename T>
T
randomValue(Rng &rng)
{
    if constexpr (std::is_same_v<T, float>)
        return rng.f32(-1.0f, 1.0f);
    else if constexpr (std::is_same_v<T, Half>)
        return Half(rng.f32(-1.0f, 1.0f));
    else
        return T(rng.range(-64, 64));
}

template <typename T>
bool
outputsMatch(const Buf<T> &a, const Buf<T> &b)
{
    if constexpr (std::is_same_v<T, float>) {
        return approxOutputs(a, b, 1e-3f);
    } else if constexpr (std::is_same_v<T, Half>) {
        if (a.size() != b.size())
            return false;
        for (size_t i = 0; i < a.size(); ++i) {
            if (std::fabs(float(a[i]) - float(b[i])) >
                0.05f * std::max(1.0f, std::fabs(float(a[i]))))
                return false;
        }
        return true;
    } else {
        return a == b;
    }
}

} // namespace

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

/** Dense C[M,N] = A[M,K] * B[K,N] in precision T. */
template <typename T>
class Gemm : public Workload
{
  public:
    Gemm(const Options &opts, uint64_t salt, bool wider)
        : m_(opts.gemmM), n_(opts.gemmN), k_(opts.gemmK), wider_(wider)
    {
        Rng rng(opts.seed ^ salt);
        a_.resize(size_t(m_) * size_t(k_));
        b_.resize(size_t(k_) * size_t(n_));
        for (auto &v : a_)
            v = randomValue<T>(rng);
        for (auto &v : b_)
            v = randomValue<T>(rng);
        cScalar_.assign(size_t(m_) * size_t(n_), T{});
        cNeon_.assign(cScalar_.size(), T{});
        cAuto_.assign(cScalar_.size(), T{});
    }

    void
    runScalar() override
    {
        runScalarInto(cScalar_);
    }

    void
    runNeon(int vec_bits) override
    {
        if (!wider_ || vec_bits == 128) {
            microKernel<128>(cNeon_);
            return;
        }
        switch (vec_bits) {
          case 256: microKernel<256>(cNeon_); break;
          case 512: microKernel<512>(cNeon_); break;
          case 1024: microKernel<1024>(cNeon_); break;
          default: microKernel<128>(cNeon_); break;
        }
    }

    void
    runAuto() override
    {
        if constexpr (std::is_integral_v<T>) {
            // The integer inner n-loop vectorizes, but C stays in
            // memory: one load + store of the C slice per k iteration
            // (no register blocking; Auto < Neon).
            constexpr int kLanes = Vec<T, 128>::kLanes;
            for (int m = 0; m < m_; ++m) {
                for (int k = 0; k < k_; ++k) {
                    Sc<T> av = sload(&a_[size_t(m) * size_t(k_) +
                                         size_t(k)]);
                    int n = 0;
                    for (; n + kLanes <= n_; n += kLanes) {
                        T *c = &cAuto_[size_t(m) * size_t(n_) +
                                       size_t(n)];
                        auto bv = vld1<128>(&b_[size_t(k) * size_t(n_) +
                                                size_t(n)]);
                        vst1(c, vmla_n(vld1<128>(c), bv, av));
                    }
                    for (; n < n_; ++n) {
                        T *c = &cAuto_[size_t(m) * size_t(n_) +
                                       size_t(n)];
                        Sc<T> bv = sload(&b_[size_t(k) * size_t(n_) +
                                             size_t(n)]);
                        sstore(c, smadd(av, bv, sload(c)));
                    }
                    ctl::loop();
                }
            }
        } else {
            // FP reductions do not vectorize without fast-math.
            runScalarInto(cAuto_);
        }
    }

    bool verify() override { return outputsMatch(cScalar_, cNeon_); }
    uint64_t
    flops() const override
    {
        return 2ull * uint64_t(m_) * uint64_t(n_) * uint64_t(k_);
    }

  private:
    /**
     * Scalar reference: XNNPACK's scalar micro-kernels block the output
     * (here 1x4) and keep four independent accumulators, amortizing the
     * A-load and loop overhead and exposing ILP — the paper notes the
     * scalar code is unrolled too (Section 5.4).
     */
    void
    runScalarInto(Buf<T> &c)
    {
        for (int m = 0; m < m_; ++m) {
            for (int n0 = 0; n0 < n_; n0 += 4) {
                const int w = std::min(4, n_ - n0);
                std::array<Sc<T>, 4> acc{};
                for (int k = 0; k < k_; ++k) {
                    Sc<T> av = sload(&a_[size_t(m) * size_t(k_) +
                                         size_t(k)]);
                    const T *brow = &b_[size_t(k) * size_t(n_) +
                                        size_t(n0)];
                    for (int j = 0; j < w; ++j) {
                        acc[size_t(j)] =
                            smadd(av, sload(brow + j), acc[size_t(j)]);
                    }
                    ctl::loop();
                }
                for (int j = 0; j < w; ++j) {
                    sstore(&c[size_t(m) * size_t(n_) +
                              size_t(n0 + j)],
                           acc[size_t(j)]);
                }
                ctl::loop();
            }
        }
    }

    /** MR=4 x NR=2-vector register-blocked micro-kernel. */
    template <int B>
    void
    microKernel(Buf<T> &c)
    {
        constexpr int kLanes = Vec<T, B>::kLanes;
        const int nr = 2 * kLanes;
        for (int m0 = 0; m0 < m_; m0 += 4) {
            const int mr = std::min(4, m_ - m0);
            for (int n0 = 0; n0 < n_; n0 += nr) {
                const int w0 = std::min(kLanes, n_ - n0);
                const int w1 = std::min(kLanes,
                                        std::max(0, n_ - n0 - kLanes));
                // 8 independent accumulators (4 rows x 2 vectors).
                std::array<Vec<T, B>, 8> acc{};
                for (auto &v : acc)
                    v = vdup<T, B>(T{});
                for (int k = 0; k < k_; ++k) {
                    const T *brow = &b_[size_t(k) * size_t(n_) +
                                        size_t(n0)];
                    auto b0 = vld1_partial<B>(brow, w0);
                    Vec<T, B> b1{};
                    if (w1 > 0)
                        b1 = vld1_partial<B>(brow + kLanes, w1);
                    for (int r = 0; r < mr; ++r) {
                        Sc<T> av = sload(&a_[size_t(m0 + r) *
                                                 size_t(k_) +
                                             size_t(k)]);
                        acc[size_t(2 * r)] =
                            vmla_n(acc[size_t(2 * r)], b0, av);
                        if (w1 > 0) {
                            acc[size_t(2 * r + 1)] =
                                vmla_n(acc[size_t(2 * r + 1)], b1, av);
                        }
                    }
                    ctl::loop();
                }
                for (int r = 0; r < mr; ++r) {
                    T *crow = &c[size_t(m0 + r) * size_t(n_) +
                                 size_t(n0)];
                    vst1_partial(crow, acc[size_t(2 * r)], w0);
                    if (w1 > 0) {
                        vst1_partial(crow + kLanes,
                                     acc[size_t(2 * r + 1)], w1);
                    }
                    ctl::loop();
                }
            }
        }
    }

    int m_, n_, k_;
    bool wider_;
    Buf<T> a_, b_, cScalar_, cNeon_, cAuto_;
};

// ---------------------------------------------------------------------
// SpMM: C[M,N] = A_sparse[M,K] * B[K,N]
// ---------------------------------------------------------------------

template <typename T>
class Spmm : public Workload
{
  public:
    Spmm(const Options &opts, uint64_t salt)
        : m_(opts.gemmM), n_(opts.gemmN), k_(opts.gemmK)
    {
        Rng rng(opts.seed ^ salt);
        b_.resize(size_t(k_) * size_t(n_));
        for (auto &v : b_)
            v = randomValue<T>(rng);
        // CSR-like sparse A.
        rowPtr_.push_back(0);
        for (int m = 0; m < m_; ++m) {
            for (int k = 0; k < k_; ++k) {
                if (rng.f32(0.0f, 1.0f) >= float(opts.spmmSparsity)) {
                    values_.push_back(randomValue<T>(rng));
                    colIdx_.push_back(uint32_t(k));
                }
            }
            rowPtr_.push_back(uint32_t(values_.size()));
        }
        cScalar_.assign(size_t(m_) * size_t(n_), T{});
        cNeon_.assign(cScalar_.size(), T{});
    }

    void
    runScalar() override
    {
        for (int m = 0; m < m_; ++m) {
            for (int n = 0; n < n_; ++n)
                sstore(&cScalar_[size_t(m) * size_t(n_) + size_t(n)],
                       Sc<T>{T{}});
            for (uint32_t e = rowPtr_[size_t(m)];
                 e < rowPtr_[size_t(m) + 1]; ++e) {
                Sc<T> val = sload(&values_[e]);
                Sc<uint32_t> col = sload(&colIdx_[e]);
                const T *brow = &b_[size_t(col.v) * size_t(n_)];
                for (int n = 0; n < n_; ++n) {
                    T *c = &cScalar_[size_t(m) * size_t(n_) + size_t(n)];
                    sstore(c, smadd(val, sload(brow + n), sload(c)));
                    ctl::loop();
                }
                ctl::loop();
            }
        }
    }

    void
    runNeon(int) override
    {
        constexpr int kLanes = Vec<T, 128>::kLanes;
        for (int m = 0; m < m_; ++m) {
            int n0 = 0;
            for (; n0 < n_; n0 += 2 * kLanes) {
                const int w0 = std::min(kLanes, n_ - n0);
                const int w1 = std::min(kLanes,
                                        std::max(0, n_ - n0 - kLanes));
                auto acc0 = vdup<T, 128>(T{});
                auto acc1 = acc0;
                for (uint32_t e = rowPtr_[size_t(m)];
                     e < rowPtr_[size_t(m) + 1]; ++e) {
                    Sc<T> val = sload(&values_[e]);
                    Sc<uint32_t> col = sload(&colIdx_[e]);
                    const T *brow =
                        &b_[size_t(col.v) * size_t(n_) + size_t(n0)];
                    acc0 = vmla_n(acc0, vld1_partial<128>(brow, w0),
                                  val);
                    if (w1 > 0) {
                        acc1 = vmla_n(acc1,
                                      vld1_partial<128>(brow + kLanes,
                                                        w1),
                                      val);
                    }
                    ctl::loop();
                }
                T *crow = &cNeon_[size_t(m) * size_t(n_) + size_t(n0)];
                vst1_partial(crow, acc0, w0);
                if (w1 > 0)
                    vst1_partial(crow + kLanes, acc1, w1);
                ctl::loop();
            }
        }
    }

    bool verify() override { return outputsMatch(cScalar_, cNeon_); }
    uint64_t
    flops() const override
    {
        return 2ull * values_.size() * uint64_t(n_);
    }

  private:
    int m_, n_, k_;
    Buf<T> b_, values_, cScalar_, cNeon_;
    Buf<uint32_t> colIdx_;
    Buf<uint32_t> rowPtr_;
};

// ---------------------------------------------------------------------
// Factories used by the Figure 6 bench (custom shapes).
// ---------------------------------------------------------------------

std::unique_ptr<Workload>
makeGemmF32(const Options &opts)
{
    return std::make_unique<Gemm<float>>(opts, 0x9901, true);
}

std::unique_ptr<Workload>
makeSpmmF32(const Options &opts)
{
    return std::make_unique<Spmm<float>>(opts, 0x9905);
}

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

SWAN_REGISTER_LIBRARY((core::LibraryUsage{
    "XNNPACK", "XP", Domain::MachineLearning,
    true, true, false, false, 0.0, 0.0}));

namespace
{

core::KernelSpec
gemmSpec(const char *name, autovec::Verdict verdict, bool wider,
         std::function<std::unique_ptr<Workload>(const Options &)> make)
{
    core::KernelSpec spec;
    const bool sparse = std::string_view(name).substr(0, 4) == "spmm";
    // SpMM's column indices are the indirect (look-up) access pattern.
    const uint32_t patterns = sparse
        ? (Pattern::Reduction | Pattern::RandomAccess)
        : uint32_t(Pattern::Reduction);
    spec.info = core::KernelInfo{"XNNPACK", "XP", name,
                                 Domain::MachineLearning, patterns,
                                 verdict, wider, 0};
    spec.make = std::move(make);
    return spec;
}

} // namespace

SWAN_REGISTER_KERNEL(gemmSpec(
    "gemm_f32",
    autovec::Verdict{false, uint32_t(autovec::Fail::OtherLegality)},
    true, [](const Options &o) {
        return std::make_unique<Gemm<float>>(o, 0x9901, true);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "gemm_f16",
    autovec::Verdict{false, uint32_t(autovec::Fail::OtherLegality)},
    false, [](const Options &o) {
        return std::make_unique<Gemm<Half>>(o, 0x9902, false);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "gemm_s32", autovec::Verdict{true, 0}, false, [](const Options &o) {
        return std::make_unique<Gemm<int32_t>>(o, 0x9903, false);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "gemm_s16", autovec::Verdict{true, 0}, false, [](const Options &o) {
        return std::make_unique<Gemm<int16_t>>(o, 0x9904, false);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "spmm_f32",
    autovec::Verdict{false, uint32_t(autovec::Fail::IndirectMemory)},
    false, [](const Options &o) {
        return std::make_unique<Spmm<float>>(o, 0x9905);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "spmm_f16",
    autovec::Verdict{false, uint32_t(autovec::Fail::IndirectMemory)},
    false, [](const Options &o) {
        return std::make_unique<Spmm<Half>>(o, 0x9906);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "spmm_s32",
    autovec::Verdict{false, uint32_t(autovec::Fail::IndirectMemory)},
    false, [](const Options &o) {
        return std::make_unique<Spmm<int32_t>>(o, 0x9907);
    }));

SWAN_REGISTER_KERNEL(gemmSpec(
    "spmm_s16",
    autovec::Verdict{false, uint32_t(autovec::Fail::IndirectMemory)},
    false, [](const Options &o) {
        return std::make_unique<Spmm<int16_t>>(o, 0x9908);
    }));

} // namespace swan::workloads::xnnpack
