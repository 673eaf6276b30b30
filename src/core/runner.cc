#include "core/runner.hh"

namespace swan::core
{

std::string_view
name(Impl impl)
{
    switch (impl) {
      case Impl::Scalar: return "Scalar";
      case Impl::Auto: return "Auto";
      case Impl::Neon: return "Neon";
      default: return "?";
    }
}

std::vector<trace::Instr>
Runner::capture(Workload &w, Impl impl, int vec_bits)
{
    std::vector<trace::Instr> out;
    captureInto(w, impl, vec_bits, &out);
    return out;
}

namespace
{

/**
 * Run one implementation under @p rec. Every capture path goes through
 * this one out-of-line frame: the ScopedRecorder below anchors the
 * canonical stack mapping (trace/canon.hh), so the kernel's stack
 * addresses are recorded at the same distance from the anchor whether
 * the trace lands in an AoS buffer or is encoded on emit.
 */
[[gnu::noinline]] void
runUnder(trace::Recorder &rec, Workload &w, Impl impl, int vec_bits)
{
    trace::ScopedRecorder scoped(&rec);
    switch (impl) {
      case Impl::Scalar:
        w.runScalar();
        break;
      case Impl::Auto:
        w.runAuto();
        break;
      case Impl::Neon:
        w.runNeon(vec_bits);
        break;
    }
}

} // namespace

void
Runner::captureInto(Workload &w, Impl impl, int vec_bits,
                    std::vector<trace::Instr> *out)
{
    trace::Recorder rec(out);
    runUnder(rec, w, impl, vec_bits);
}

void
Runner::captureInto(Workload &w, Impl impl, int vec_bits, trace::Sink *sink)
{
    trace::Recorder rec(sink);
    runUnder(rec, w, impl, vec_bits);
}

trace::PackedTrace
Runner::capturePacked(Workload &w, Impl impl, int vec_bits,
                      trace::MixStats *mix)
{
    trace::PackedTrace::Builder builder(mix);
    captureInto(w, impl, vec_bits, &builder);
    return builder.finish();
}

KernelRun
Runner::run(Workload &w, Impl impl, const sim::CoreConfig &cfg,
            int vec_bits, int warmup_passes) const
{
    KernelRun out;
    const trace::PackedTrace packed =
        capturePacked(w, impl, vec_bits, &out.mix);
    // Results come out of the replay engine power-complete (the power
    // model is fused into CoreModel::finish).
    out.sim = sim::simulateTrace(packed, cfg, warmup_passes);
    return out;
}

Comparison
Runner::compare(const KernelSpec &spec, const sim::CoreConfig &cfg) const
{
    Comparison c;
    c.info = spec.info;
    auto w = spec.make(opts_);
    c.scalar = run(*w, Impl::Scalar, cfg);
    c.autovec = run(*w, Impl::Auto, cfg);
    c.neon = run(*w, Impl::Neon, cfg);
    c.verified = w->verify();
    return c;
}

Comparison
Runner::compareScalarNeon(const KernelSpec &spec,
                          const sim::CoreConfig &cfg, int vec_bits) const
{
    Comparison c;
    c.info = spec.info;
    auto w = spec.make(opts_);
    c.scalar = run(*w, Impl::Scalar, cfg);
    c.neon = run(*w, Impl::Neon, cfg, vec_bits);
    c.autovec = c.scalar;
    c.verified = w->verify();
    return c;
}

} // namespace swan::core
