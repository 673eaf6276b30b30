/**
 * @file
 * Trace recorder: collects the dynamic instruction stream of one kernel
 * invocation, either buffering it as an AoS vector or streaming it into
 * a sink (a PackedTrace::Builder encodes it on emit).
 */

#ifndef SWAN_TRACE_RECORDER_HH
#define SWAN_TRACE_RECORDER_HH

#include <cstdint>
#include <vector>

#include "trace/canon.hh"
#include "trace/instr.hh"

namespace swan::trace
{

/**
 * Consumer of a streaming Recorder. The library's one Sink is
 * PackedTrace::Builder (encode on emit), which also counts the
 * capture's MixStats; tests implement their own.
 */
class Sink
{
  public:
    virtual ~Sink() = default;
    /** Called once per recorded instruction, in program order. */
    virtual void onInstr(const Instr &instr) = 0;
};

/**
 * Records the dynamic instruction stream of a kernel invocation.
 *
 * A Recorder either keeps the full trace in memory as an AoS buffer
 * (benches, tests) or forwards each record to a Sink without
 * buffering: a PackedTrace::Builder encodes on emit (the sweep,
 * Session::run and `swan run` capture path).
 *
 * Every recorded address is translated into the canonical trace
 * address space (trace/canon.hh) on emit, so a trace is a pure
 * function of the kernel, its inputs and the capture sequence — never
 * of where the host placed its buffers.
 */
class Recorder
{
  public:
    /** Buffered recorder. */
    Recorder() : keep_(true), ext_(nullptr) {}

    /**
     * Buffered recorder writing into the caller's vector (cleared
     * first, capacity kept), so a driver capturing many traces back to
     * back can reuse one buffer.
     */
    explicit Recorder(std::vector<Instr> *buf) : keep_(true), ext_(buf)
    {
        ext_->clear();
    }

    /** Streaming recorder; @p sink receives every instruction. */
    explicit Recorder(Sink *sink) : keep_(false), sink_(sink) {}

    /**
     * Append an instruction. Assigns the id (program order, 1-based).
     * @return the id, to be stored as provenance in produced values.
     */
    uint64_t
    emit(Instr instr)
    {
        instr.id = ++lastId_;
        if (instr.addr) {
            // addr2 keeps its distance to addr: the region bounds of a
            // gather/scatter and the LdS/StS element stride stay exact.
            const uint64_t a = canon_.translate(instr.addr);
            if (instr.addr2)
                instr.addr2 = a + (instr.addr2 - instr.addr);
            instr.addr = a;
        }
        if (keep_)
            (ext_ ? *ext_ : buf_).push_back(instr);
        else if (sink_)
            sink_->onInstr(instr);
        return lastId_;
    }

    uint64_t count() const { return lastId_; }
    const std::vector<Instr> &instrs() const
    {
        return ext_ ? *ext_ : buf_;
    }

    /** Move the buffered trace out (recorder becomes empty). */
    std::vector<Instr>
    take()
    {
        std::vector<Instr> out = std::move(ext_ ? *ext_ : buf_);
        (ext_ ? *ext_ : buf_).clear();
        lastId_ = 0;
        return out;
    }
    void
    clear()
    {
        (ext_ ? *ext_ : buf_).clear();
        lastId_ = 0;
    }

    /** This capture's address translation state. */
    CanonMap &canon() { return canon_; }

  private:
    bool keep_;
    Sink *sink_ = nullptr;
    std::vector<Instr> *ext_ = nullptr;
    uint64_t lastId_ = 0;
    std::vector<Instr> buf_;
    CanonMap canon_;
};

/**
 * The thread-local recorder the instrumentation writes to. Null means
 * tracing is disabled and instrumented code runs at full host speed (used
 * for warm-up and output-verification runs).
 */
Recorder *&currentRecorder();

/**
 * RAII installation of a recorder for the current thread. The guard
 * object itself anchors the recorder's canonical stack mapping: stack
 * addresses are recorded relative to the frame that installs it.
 */
class ScopedRecorder
{
  public:
    explicit ScopedRecorder(Recorder *rec)
        : saved_(currentRecorder())
    {
        if (rec)
            rec->canon().setStackAnchor(reinterpret_cast<uintptr_t>(this));
        currentRecorder() = rec;
    }
    ~ScopedRecorder() { currentRecorder() = saved_; }

    ScopedRecorder(const ScopedRecorder &) = delete;
    ScopedRecorder &operator=(const ScopedRecorder &) = delete;

  private:
    Recorder *saved_;
};

} // namespace swan::trace

#endif // SWAN_TRACE_RECORDER_HH
