/**
 * @file
 * Porting a Swan kernel to WebAssembly SIMD128, end to end. The paper's
 * Section 9 plans WASM-SIMD versions of the suite for browser
 * workloads; this example shows both halves of that workflow on the
 * public API:
 *
 *  1. Write a kernel directly against the wasm instruction-set model
 *     (simd/vec_wasm.hh) — here a saturating u8 "screen blend" like the
 *     ones Skia rasterizes — trace it, and read off the cost.
 *  2. Run the prebuilt Section-9 ports (workloads/ext) to see where the
 *     proposal's missing instructions (VLD3, ADDV, FMLA, crypto) bite
 *     relative to native Neon.
 *
 * Usage: wasm_port [--full]   (--full uses paper-scale inputs)
 */

#include <iostream>
#include <string>
#include <vector>

#include "swan/simd.hh"
#include "swan/swan.hh"
#include "swan/workloads.hh"

using namespace swan;
using namespace swan::workloads;
namespace ws = swan::simd::wasm;
using ws::v128;

namespace
{

/**
 * Step 1's hand-written port: dst = dst + src - dst*src/255 per byte
 * (a screen blend), built purely from SIMD128 operations.
 */
void
screenBlendWasm(const uint8_t *src, uint8_t *dst, size_t n)
{
    const v128 k255 = ws::splat(uint8_t(255));
    for (size_t i = 0; i + 16 <= n; i += 16) {
        const v128 s = ws::v128_load(&src[i]);
        const v128 d = ws::v128_load(&dst[i]);
        // dst + src - dst*src/255 == 255 - (255-dst)(255-src)/255;
        // approximate the /255 with the usual (x + 128 + (x>>8)) >> 8 on
        // widened lanes.
        const v128 is = ws::i8x16_sub(k255, s);
        const v128 id = ws::i8x16_sub(k255, d);
        const v128 p_lo = ws::i16x8_extmul_low_u8x16(is, id);
        const v128 p_hi = ws::i16x8_extmul_high_u8x16(is, id);
        auto div255 = [](const v128 &x) {
            v128 t = ws::i16x8_add(x, ws::splat(uint16_t(128)));
            t = ws::i16x8_add(t, ws::i16x8_shr_u(t, 8));
            return ws::i16x8_shr_u(t, 8);
        };
        const v128 q_lo = div255(p_lo);
        const v128 q_hi = div255(p_hi);
        const v128 blended =
            ws::i8x16_sub(k255, ws::i8x16_narrow_i16x8_u(q_lo, q_hi));
        ws::v128_store(&dst[i], blended);
        simd::ctl::loop();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    core::Options opts = core::Options::fromEnv();
    if (argc > 1 && std::string(argv[1]) == "--full")
        opts = core::Options::full();
    const Session session = Session::fromEnv();
    const auto prime = sim::primeConfig();

    core::banner(std::cout,
                 "Step 1: a hand-written WASM SIMD kernel, traced");

    std::vector<uint8_t> src(4096), dst(4096);
    for (size_t i = 0; i < src.size(); ++i) {
        src[i] = uint8_t(i * 37);
        dst[i] = uint8_t(i * 11);
    }
    trace::Recorder rec;
    {
        trace::ScopedRecorder scoped(&rec);
        screenBlendWasm(src.data(), dst.data(), src.size());
    }
    auto instrs = rec.take();
    trace::MixStats mix;
    mix.addTrace(instrs);
    std::cout << "screen-blend over " << src.size() << " bytes: "
              << mix.total() << " instructions, "
              << mix.vectorInstrs() << " vector ("
              << core::fmtPct(100.0 * double(mix.vectorInstrs()) /
                              double(mix.total()))
              << "), " << mix.loadBytes() << " B loaded\n";

    core::banner(std::cout,
                 "Step 2: the Section-9 ports, WASM vs native Neon");

    struct Port
    {
        const char *name;
        std::unique_ptr<core::Workload> (*make)(const core::Options &,
                                                ext::WasmIsa);
    };
    const Port ports[] = {
        {"rgb_to_y (no VLD3)", &ext::makeWasmRgbToY},
        {"adler32 (no ADDV)", &ext::makeWasmAdler32},
        {"fir_filter (no FMA)", &ext::makeWasmFirFilter},
        {"sha256 (no crypto)", &ext::makeWasmSha256},
    };

    core::Table t({"Kernel", "Neon", "WASM SIMD128", "WASM relaxed"});
    for (const auto &port : ports) {
        std::vector<std::string> row{port.name};
        for (ext::WasmIsa isa : {ext::WasmIsa::NeonNative,
                                 ext::WasmIsa::Simd128,
                                 ext::WasmIsa::Relaxed}) {
            auto w = port.make(opts, isa);
            auto s = session.run(*w, core::Impl::Scalar, prime);
            auto v = session.run(*w, core::Impl::Neon, prime);
            if (!w->verify()) {
                std::cerr << port.name << ": output mismatch\n";
                return 1;
            }
            row.push_back(core::fmtX(double(s.sim.cycles) /
                                     double(v.sim.cycles)) +
                          " vs scalar");
        }
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\nReading the table: streaming arithmetic ports at "
                 "near parity; structured\nloads and reductions pay a "
                 "shuffle tax; fused ops return with\nrelaxed-simd; "
                 "crypto does not return at all (Section 5.1's ZL/BS "
                 "edge).\n";
    return 0;
}
