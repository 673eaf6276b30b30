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

} // namespace swan::core
