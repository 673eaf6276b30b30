#!/usr/bin/env python3
"""swan benchmark: the paper's grids, end to end and per layer.

Usage (from the root of a swan checkout):

    python3 swanbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

Builds the swan library, the `swan` CLI and the benchmark's child
program (swanbench.cc) from the checkout in Release mode under
$CARGO_TARGET_DIR (default .bench_build), then measures one workload:

  paper_cold   headline kernels x scalar,auto,neon x prime,gold,silver,
               default working set, a fresh cache directory every pass.
  fanout_full  headline kernels x neon x nine core configs, paper-size
               (full) working set, a fresh cache directory every pass.
  paper_warm   the paper_cold grid against a cache directory that
               set-up populated with one cold pass: every row is a disk hit.

Every pass is a fresh child process (one-shot CLI reality) using
min(4, nproc) sweep workers; passes repeat until --seconds elapse and
every metric is the median over passes. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it makes one untraced pass, then
repeats the traced layer pass (the child's own spans around direct calls
into each layer) and prints the per-layer metrics, the top-10 long-pole
work units per layer, a reconciliation of layer time against the
untraced pass's CPU time, and writes a Chrome-trace JSON (Perfetto).

Inputs come from --seed alone: it is written into every grid point's
core::Options::seed. Every SWAN_* environment variable is scrubbed.
Correctness: every point must produce a row with cycles > 0 and
energy > 0; instruction counts must match a capture-only reference and,
for seeds listed in pins.json, the pinned digest; warm rows must be
byte-identical to the populating pass; another seed must not hit the
cache. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 swanbench/run.py --pin-seeds 0-31   # regenerate pins.json
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("paper_cold", "fanout_full", "paper_warm")
MIN_PASSES = 3
SETUP_SPAWNS = 41
MAX_PASSES = 5000
JOBS = max(1, min(4, os.cpu_count() or 1))
MIB = 1024.0 * 1024.0

E2E_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "sim_minstr_per_s": "Minstr/s",
    "first_row_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cache_disk_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "capture.s": "s",
    "capture.minstr": "Minstr",
    "capture.minstr_per_s": "Minstr/s",
    "capture.unit_max_s": "s",
    "pack.s": "s",
    "pack.minstr_per_s": "Minstr/s",
    "pack.bytes_per_instr": "B/instr",
    "decode.minstr_per_s": "Minstr/s",
    "replay.s": "s",
    "replay.minstr_cfg_per_s": "Minstr/s",
    "replay.lanes": "count",
    "replay.unit_p50_ms": "ms",
    "replay.unit_p90_ms": "ms",
    "model.cycles_total": "cycles",
    "model.geomean_neon_speedup_prime": "x",
    "model.l1_hit_rate_mean": "ratio",
    "model.llc_mpki_mean": "MPKI",
    "model.dram_per_kcycle_mean": "1/kcycle",
    "model.cycles_drift_max_pct": "%",
    "cache.lookup.count": "count",
    "cache.lookup_us_p50": "us",
    "cache.lookup_us_p98": "us",
    "cache.hit_ratio": "ratio",
    "cache.store_us_p50": "us",
    "cache.store_trace_ms_p50": "ms",
    "cache.bytes_written": "B",
    "grid.expand_ms": "ms",
    "emit.ms": "ms",
    "proc.start_ms": "ms",
    "sched.serial_s": "s",
    "sched.parallel_efficiency": "ratio",
    "recon.layers_cpu_s": "s",
    "recon.cpu_s": "s",
    "recon.unaccounted_pct": "%",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def clean_env():
    """The environment minus every SWAN_* variable: SWAN_FULL/SWAN_FAST
    change the default working set, SWAN_SIMD the dispatch, SWAN_METRICS
    turns tracing on, SWAN_JOBS/SWAN_SHARDS change placement."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SWAN_")}


ENV = clean_env()


def out_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then (incrementally) build the two binaries."""
    bdir = os.path.join(out_root(), "swanbench")
    cache = os.path.join(bdir, "CMakeCache.txt")
    os.makedirs(bdir, exist_ok=True)
    steps = [["cmake", "--build", bdir, "-j", str(JOBS), "--target", "swanbench", "swan_cli"]]
    if not os.path.exists(cache):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(bdir, "build.log"), "a") as blog:
        for cmd in steps:
            if subprocess.call(cmd, stdout=blog, stderr=subprocess.STDOUT, env=ENV, cwd=ROOT) != 0:
                # A failed configure must not leave a cache that skips it next time.
                if "-S" in cmd and os.path.exists(cache):
                    os.remove(cache)
                raise BenchError("build failed: %s (see %s/build.log)" % (" ".join(cmd), bdir))
    build_type = "?"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    return os.path.join(bdir, "swanbench"), os.path.join(bdir, "swan", "swan"), build_type


class Child:
    """One child process run to completion: stdout, rusage, timestamps."""

    def __init__(self, argv, stderr_path):
        with open(stderr_path, "ab") as err:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
            try:
                out = proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, self.rusage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.rows = []
        self.result = None
        lines = out.decode(errors="replace").strip().splitlines()
        if self.rc == 0 and lines:
            try:
                self.result = json.loads(lines[-1])
            except ValueError:
                pass

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def wall_s(self):
        return self.result["t_done"] - self.t_spawn


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def read_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            c = line.rstrip("\n").split("\t")
            rows.append({
                "key": tuple(c[:5]), "unit": (c[0], c[1], c[2], c[4]),
                "instrs": int(c[5]), "cycles": int(c[6]), "energy": float(c[7]),
            })
    os.remove(path)
    return rows


def digest(rows):
    """sha256 over (kernel, impl, bits, core, ws, instrs) of every point."""
    h = hashlib.sha256()
    for r in rows:
        h.update(("\t".join(r["key"]) + "\t%d\n" % r["instrs"]).encode())
    return h.hexdigest()


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.warm = workload == "paper_warm"
        self.grid = "fanout_full" if workload == "fanout_full" else "paper"
        self.seed = seed % (1 << 32)
        self.seconds = seconds
        self.bench, self.swan, self.build_type = build()
        self.work = os.path.join(out_root(), "swanbench-work",
                                 "%s-%d-%d" % (workload, self.seed, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.warm_dir = os.path.join(self.work, "warm-cache")
        self.stderr = os.path.join(self.work, "stderr.log")
        self.seq = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.expected = {}  # unit -> instrs, from the capture-only reference
        self.points = 1     # grid points per pass, from the reference
        self.pin = None     # pinned digest of this seed's grid, if any

    # -- children ---------------------------------------------------------

    def child(self, mode, *extra, seed=None):
        argv = [self.bench, mode, "--workload", self.workload,
                "--seed", str(self.seed if seed is None else seed),
                "--jobs", str(JOBS)] + list(extra)
        return Child(argv, self.stderr)

    def fresh(self, stem):
        self.seq += 1
        return os.path.join(self.work, "%s%d" % (stem, self.seq))

    def load_reference(self):
        """Before the timed section: expected instrs per unit from a
        capture-only child (outside the sweep engine), and this seed's
        pinned digest when pins.json lists it."""
        c = self.child("reference")
        if not c.result:
            raise BenchError("reference capture failed (see %s)" % self.stderr)
        self.expected = {(k, i, str(b), ws): n for k, i, b, ws, n in c.result["units"]}
        self.points = c.result["points"]
        if os.path.exists(PINS):
            with open(PINS) as f:
                self.pin = json.load(f).get(self.grid, {}).get(str(self.seed))

    def sweep_pass(self, cache_dir, what, want_hits=None, want_fnv=None, keep_rows=False):
        """One untraced pass, checked at once; rows are dropped unless kept,
        so this process stays small however many passes a run makes."""
        rows = self.fresh("rows")
        c = self.child("pass", "--cache-dir", cache_dir, "--rows-out", rows)
        if c.result:
            c.rows = read_rows(rows)
        self.check(what, c, want_hits, want_fnv)
        if not keep_rows:
            c.rows = []
        return c

    def cold_pass(self, what, keep_rows=False):
        cache_dir = self.fresh("cache")
        c = self.sweep_pass(cache_dir, what, 0, None, keep_rows)
        c.disk_mb = dir_bytes(cache_dir) / MIB
        shutil.rmtree(cache_dir, ignore_errors=True)
        return c

    def populate(self):
        """paper_warm set-up: one cold pass that fills the cache dir."""
        c = self.sweep_pass(self.warm_dir, "populating pass", 0)
        if not c.result:
            raise BenchError("populating pass failed (see %s)" % self.stderr)
        return c

    def warm_pass(self, pop, what, keep_rows=False):
        """Every point a cache hit, rows byte-identical to the populating pass."""
        return self.sweep_pass(self.warm_dir, what, pop.result["points"],
                               pop.result["emit_fnv"], keep_rows)

    def timed_passes(self, one_pass):
        deadline = time.monotonic() + self.seconds
        out = []
        while len(out) < MAX_PASSES:
            out.append(one_pass("pass %d" % (len(out) + 1)))
            if not out[-1].result:
                break
            if len(out) >= MIN_PASSES and time.monotonic() >= deadline:
                break
        return out

    def setup_s(self, cache_dir):
        """Median time from spawn to ready-to-sweep (process start, Session
        construction, grid expansion) over SETUP_SPAWNS set-up-only children."""
        times = []
        for _ in range(SETUP_SPAWNS):
            c = self.child("setup", "--cache-dir", cache_dir)
            if not c.result:
                raise BenchError("set-up child failed (see %s)" % self.stderr)
            times.append(c.result["t_ready"] - c.t_spawn)
        return statistics.median(times)

    # -- correctness --------------------------------------------------------

    def fail(self, n, why):
        self.failed += n
        self.problems.append(why)

    def check(self, what, c, want_hits=None, want_fnv=None):
        """Count one pass's points and its failed points."""
        res = c.result
        if not res:
            self.attempted += self.points
            self.fail(self.points, "%s: child exited %d without a result" % (what, c.rc))
            return
        n = res["points"]
        self.attempted += n
        bad = set()
        if res.get("rows", n) != n or res.get("results", n) != n or len(c.rows) != n:
            self.problems.append("%s: only %d of %d points produced rows" % (what, len(c.rows), n))
            bad.update(range(n))
        for i, r in enumerate(c.rows):
            if r["cycles"] <= 0 or r["energy"] <= 0:
                bad.add(i)
            if self.expected.get(r["unit"]) != r["instrs"]:
                bad.add(i)
        if self.pin is not None and c.rows and digest(c.rows) != self.pin:
            self.problems.append("%s: instruction digest differs from the pinned one" % what)
            bad.update(range(n))
        if want_hits is not None and res["result_hits"] != want_hits:
            self.problems.append("%s: %d cache hits, expected %d" % (what, res["result_hits"], want_hits))
            bad.update(range(n))
        if want_fnv is not None and res["emit_fnv"] != want_fnv:
            self.problems.append("%s: rows differ from the populating pass" % what)
            bad.update(range(n))
        if bad and len(bad) < n:
            self.problems.append("%s: %d points failed the row checks" % (what, len(bad)))
        self.failed += len(bad)

    def probe_other_seed(self, cache_dir):
        """A second seed must produce zero cache hits against this seed's cache."""
        p = self.child("probe", "--cache-dir", cache_dir, seed=(self.seed + 1) % (1 << 32))
        self.attempted += 1
        if not p.result or p.result["hits"] or p.result["trace_hits"]:
            self.fail(1, "another seed hit this seed's cache: %s" % p.result)

    # -- untraced run -------------------------------------------------------

    def untraced(self):
        self.load_reference()
        if self.warm:
            pop = self.populate()
            setup_s = pop.wall_s + self.setup_s(self.warm_dir)
            passes = self.timed_passes(lambda what: self.warm_pass(pop, what))
            disk_mb = dir_bytes(self.warm_dir) / MIB
            for c in passes:
                c.disk_mb = disk_mb
        else:
            setup_dir = self.fresh("cache")
            setup_s = self.setup_s(setup_dir)
            shutil.rmtree(setup_dir, ignore_errors=True)
            passes = self.timed_passes(self.cold_pass)
        good = [c for c in passes if c.result]
        if not good:
            raise BenchError("no pass produced a result (see %s)" % self.stderr)

        def med(f):
            return statistics.median(f(c) for c in good)

        metrics = {
            "wall_s": med(lambda c: c.wall_s),
            "points_per_s": med(lambda c: c.result["points"] / c.wall_s),
            "sim_minstr_per_s": med(lambda c: c.result["instrs"] / 1e6 / c.wall_s),
            "first_row_s": med(lambda c: c.result["t_first_row"] - c.t_spawn),
            "cpu_s": med(lambda c: c.cpu_s),
            "peak_rss_mb": med(lambda c: c.result["peak_rss_kb"] / 1024.0),
            "cache_disk_mb": med(lambda c: c.disk_mb),
            "setup_s": setup_s,
        }
        if self.warm:
            self.probe_other_seed(self.warm_dir)
        return metrics, len(good)

    # -- traced run ---------------------------------------------------------

    def traced(self):
        self.load_reference()
        if self.warm:
            pop = self.populate()
            base = self.warm_pass(pop, "untraced pass", keep_rows=True)
        else:
            base = self.cold_pass("untraced pass", keep_rows=True)
        if not base.result:
            raise BenchError("untraced pass failed (see %s)" % self.stderr)

        trace_dir = os.path.join(out_root(), "swanbench-out")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.trace.json" % (self.workload, self.seed))
        deadline = time.monotonic() + self.seconds
        layers = []
        while not layers or (time.monotonic() < deadline and len(layers) < MAX_PASSES):
            rows = self.fresh("layer-rows")
            c = self.child("layers", "--cache-dir", self.fresh("layer-cache"), "--rows-out", rows,
                           "--trace-out", trace_out, "--swan-bin", self.swan)
            if not c.result:
                raise BenchError("traced layer pass failed (see %s)" % self.stderr)
            c.rows = read_rows(rows)
            self.check("layer pass %d" % (len(layers) + 1), c)
            if c.result["other_seed_hits"]:
                self.fail(1, "another seed hit the layer pass cache")
            if layers:
                c.rows = []  # the first layer pass's rows feed the drift metric
            layers.append(c)

        metrics = {name: statistics.median(c.result["metrics"][name] for c in layers)
                   for name in LAYER_UNITS if name in layers[0].result["metrics"]}
        busy = statistics.median(c.result["busy_warm_s" if self.warm else "busy_cold_s"]
                                 for c in layers)
        metrics["sched.parallel_efficiency"] = busy / (JOBS * base.wall_s)
        metrics["recon.layers_cpu_s"] = busy
        metrics["recon.cpu_s"] = base.cpu_s
        metrics["recon.unaccounted_pct"] = 100.0 * (base.cpu_s - busy) / base.cpu_s
        untraced = {r["key"]: r["cycles"] for r in base.rows}
        metrics["model.cycles_drift_max_pct"] = max(
            100.0 * abs(r["cycles"] - untraced[r["key"]]) / untraced[r["key"]]
            for r in layers[0].rows if untraced.get(r["key"]))

        log("reconcile: layer busy %.3f s (%s) vs untraced pass cpu_s %.3f s: %.1f%% unaccounted"
            % (busy, "process start + grid + cache lookups + emit" if self.warm
               else "grid + capture + mix + pack + replay + cache + emit",
               base.cpu_s, metrics["recon.unaccounted_pct"]))
        poles = layers[-1].result["long_poles_ms"]
        for layer in ("capture", "pack", "decode", "replay"):
            log("long poles, %s (top 10, ms): %s" % (
                layer, ", ".join("%s %.1f" % (u, ms) for u, ms in poles[layer])))
        log("chrome trace (Perfetto): %s" % os.path.relpath(trace_out, ROOT))
        return metrics, len(layers)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def simd_line(swan):
    out = subprocess.run([swan, "version"], capture_output=True, text=True, env=ENV).stdout
    return " ".join(l for l in out.splitlines() if l.startswith("simd:")) or "simd: ?"


def pin_seeds(spec):
    """Write pins.json: the instruction digest of both grids for each seed."""
    lo, _, hi = spec.partition("-")
    pins = {}
    for workload in ("paper_cold", "fanout_full"):
        for s in range(int(lo), int(hi or lo) + 1):
            b = Bench(workload, s, 0)
            try:
                b.load_reference()
                b.pin = None
                c = b.cold_pass("pass", keep_rows=True)
                if b.failed:
                    raise BenchError("seed %d: %s" % (s, "; ".join(b.problems)))
                pins.setdefault(b.grid, {})[str(b.seed)] = digest(c.rows)
            finally:
                b.cleanup()
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    # Terminated, run.py still stops and reaps its child (Child above).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-seeds", metavar="LO-HI")
    a = ap.parse_args()
    try:
        if a.pin_seeds:
            pin_seeds(a.pin_seeds)
            return 0
        if not a.workload:
            ap.error("--workload is required")
        b = Bench(a.workload, a.seed, a.seconds)
        try:
            log("swanbench: workload=%s seed=%d jobs=%d build=%s %s" % (
                a.workload, b.seed, JOBS, b.build_type, simd_line(b.swan)))
            metrics, runs = b.traced() if a.trace else b.untraced()
        finally:
            b.cleanup()
    except BenchError as e:
        print("swanbench: %s" % e, file=sys.stderr)
        return 1

    units = LAYER_UNITS if a.trace else E2E_UNITS
    for name, unit in units.items():
        log("  %-34s %16.6g %-9s (median of %d %s)" % (
            name, metrics[name], unit, runs, "layer passes" if a.trace else "passes"))
    correct = b.failed == 0
    log("correctness: %s, %d of %d points failed, instruction digest %s%s" % (
        "PASS" if correct else "FAIL", b.failed, b.attempted,
        "pinned" if b.pin else "checked against the capture-only reference",
        "" if correct else "; " + "; ".join(b.problems[:5])))
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
