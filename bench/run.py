"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload interp --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  One run sets up the workload several times (the median is
`setup_s`), then runs a fixed number of passes of seeded ops: `--seconds`
divided by the workload's reference pass time, and at least MIN_PASSES.
The count depends only on the workload and `--seconds`, never on how fast
the program runs, so every commit is measured over the same passes.  Every
pass has the same op kinds and sizes, in the same order, with fresh
inputs; `wall_s` and `cpu_s` are the wall and CPU time of one pass with
each op at its median after the first pass.  Every time, `setup_s` too,
is scaled by the host's speed while it ran (see `HostClock`).  Each op is
checked by an oracle; a failed check or an exception counts in `failed`
and never stops the run.  A known defect that
an op works around (see `workloads.op_morse`) is printed as a NOTE line on
standard error and counted in `defect_notes`.

With `--trace 1` odd passes are traced and even passes are not: the
per-layer metrics are medians over traced passes, and `trace.overhead_s` is
the fastest traced minus the fastest untraced pass time in reference-host
seconds, leaving out the first pass, which warms up.  The last line of
standard output is one JSON object; the environment, the metrics and (when traced)
every span are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one single-threaded process per workload
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

MIN_PASSES = 4          # the warm-up pass plus three that count
# Rough pass time of each workload at the baseline commit on a 2-vCPU VM
# in a busy phase (bench/README.md), so that all runs of the benchmark fit
# its time budget then.  It only sets the pass count: a run of `--seconds`
# makes round(seconds / this) passes, and at least MIN_PASSES, whatever the
# program's speed.
REFERENCE_PASS_S = {"interp": 2.8, "lift": 2.4, "morse-surgery": 5.0,
                    "morse-poly": 3.0, "bredon": 4.0}
SETUP_PROBES = 6        # fresh processes timing set-up, besides this one
# Quiet-host time of `calibrate()` on a 2-vCPU Xeon VM at 2.0 GHz with
# Python 3.11 (the fastest twentieth of 3000 calls).  Timings are scaled by it
# over the calibration time measured while they ran (see `HostClock`).
CAL_REFERENCE_S = 0.0003

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Layer spans (reported as <name>.s, self seconds per pass) and counters
# (per pass), in the order of BENCHMARK.json.
LAYER_SPANS = (
    "polynomials.jet_interpolate", "polynomials.taylor_jet",
    "polynomials.equivariant_jet_lift", "polynomials.substitute_linear",
    "morse.localize_surgery", "morse.classify", "morse.find_critical_points",
    "morse.morse_differentials", "morse.morse_complex",
    "groups.OrbitCategory", "coefficients.build_system", "gcw.gcw_from_cells",
    "gcw.bredon_chain_complex", "gcw.subquotient_complex",
    "complexes.homology.z", "complexes.homology.fp",
    "spectral.spectral_pages", "spectral.einfty_check", "smith.smith_report",
    "cli.main",
)
LAYER_COUNTS = {
    "polynomials.out_terms": "count",
    "polynomials.out_coeff_bits": "bits",
    "morse.find_critical_points.found": "count",
    "complexes.boundary_entries": "count",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.coverage": "ratio"}


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / REFERENCE_PASS_S[workload]))


def median_ops(walls: list, cpus: list, fails: list) -> tuple[float, float]:
    """Wall and CPU seconds of one pass with every op at its median.

    `walls[n][i]`, `cpus[n][i]` and `fails[n][i]` belong to op i of pass n,
    already scaled by the host's speed; op i has the same kind and size in every
    pass.  For each op the median sample over the passes after the first
    (which finishes lazy set-up) is taken, the lower one of an even count,
    leaving out passes where that op failed while some pass has it succeed:
    an op that fails early skips work.  Its CPU time comes from that same
    sample.  The pass count is fixed per workload, so the median is taken
    over as many samples on every commit.
    """
    wall = cpu = 0.0
    for i in range(len(walls[0])):
        counted = range(1, len(walls))
        kept = sorted([n for n in counted if not fails[n][i]] or counted,
                      key=lambda n: walls[n][i])
        mid = kept[(len(kept) - 1) // 2]
        wall += walls[mid][i]
        cpu += cpus[mid][i]
    return wall, cpu


def calibrate() -> float:
    """Seconds that a fixed piece of pure-Python work takes now: a probe of
    how fast this host runs the interpreter at the moment.  The garbage
    collector is held off, since a collection of the program's heap would
    time the heap and not the host."""
    held = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i % 7
        return time.perf_counter() - t0
    finally:
        if held:
            gc.enable()


class HostClock:
    """Times a piece of work together with how fast the host ran during it.

    The host's cores are shared with other tenants: code here runs up to
    1.8x slower while they are busy, in bursts of under a second to phases
    of minutes, longer than one run, so no statistic inside a run removes
    it.  So while the work runs, a SIGALRM timer interrupts it every
    SAMPLE_S to time `calibrate`, as do EDGE_SAMPLES calls before and after
    it, and the work's time is scaled by CAL_REFERENCE_S over the median
    calibration time.  The program under test does not run in a
    calibration, so the factor follows the host and not the program: a
    faster program still reads faster by the full amount.  Time spent in
    the samples is taken out of the work's wall and CPU time.  Over two
    sets of ten runs per workload, scaling cut the spread of `wall_s` from
    0.06-0.27 of the median to 0.035-0.13 (bench/README.md).
    """

    SAMPLE_S = 0.05
    EDGE_SAMPLES = 3

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def measure(self, work):
        """Run `work()`; returns its result, its wall and CPU seconds, and
        the factor that turns them into reference-host seconds."""
        self.samples = []
        for _ in range(self.EDGE_SAMPLES):
            self._sample()
        self.spent = 0.0
        w0, c0 = time.perf_counter(), cpu_now()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - w0 - self.spent
        cpu = cpu_now() - c0 - self.spent
        for _ in range(self.EDGE_SAMPLES):
            self._sample()
        return result, wall, cpu, CAL_REFERENCE_S / statistics.median(self.samples)


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its waited-for
    children, to the microsecond."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def environment(args, passes, attempted, failed, notes) -> dict:
    import numpy
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "equimorse").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "gmpy2": has_gmpy2, "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "passes": passes, "ops_attempted": attempted, "ops_failed": failed,
            "defect_notes": notes}


def timed_setup(clock: HostClock, workload: str):
    """Set-up seconds (raw, and in reference-host seconds) and the
    workload context."""
    def load():
        import workloads
        return workloads.setup(workload)
    ctx, took, _, factor = clock.measure(load)
    return took, took * factor, ctx


def probe_setups(args) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", args.workload,
                               "--seed", str(args.seed), "--probe-setup"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append([float(x) for x in proc.stdout.split()[-2:]])
    return times


def check_op(ctx, op, tracer) -> list:
    """Run one op and its oracle check; returns the failure reasons."""
    import workloads
    try:
        with tracer.span("op." + op[0]):
            return workloads.run_op(ctx, op, tracer)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        return [f"raised {type(exc).__name__}: {exc}"]


def run_pass(clock, ctx, ops, tracer, pass_no, failures) -> tuple[list, list, list, list]:
    """Run and check every op; returns each op's wall and CPU seconds, the
    host's speed factor while it ran (see `HostClock`) and whether it
    failed.  `failures` collects one line per failed check."""
    walls, cpus, speeds, fails = [], [], [], []
    for i, op in enumerate(ops):
        tracer.op_id = f"{pass_no}.{i}"
        reasons, wall, cpu, factor = clock.measure(lambda: check_op(ctx, op, tracer))
        walls.append(wall)
        cpus.append(cpu)
        speeds.append(factor)
        fails.append(bool(reasons))
        failures += [f"op {tracer.op_id} ({op[0]}): {r}" for r in reasons]
    return walls, cpus, speeds, fails


def layer_metrics(traced: list, untraced_walls: list, traced_walls: list) -> dict:
    """Per-layer medians over traced passes; `traced` holds (spans, counts)
    per traced pass.  Coverage is the share of the ops' own spans that layer
    spans cover."""
    from spans import self_times
    per_pass = []
    for recorded, counts in traced:
        selfs = self_times(recorded)
        row = {f"{name}.s": selfs.get(name, 0.0) for name in LAYER_SPANS}
        row.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
        ops = sum(end - start for name, start, end, _, _ in recorded if name.startswith("op."))
        row["trace.coverage"] = sum(selfs.get(n, 0.0) for n in LAYER_SPANS) / ops
        per_pass.append(row)
    out = {name: {"value": statistics.median(r[name] for r in per_pass),
                  "unit": LAYER_COUNTS.get(name, TRACE_UNITS.get(name, "s"))}
           for name in per_pass[0]}
    overhead = min(traced_walls) - min(untraced_walls) if untraced_walls else 0.0
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "equimorse" / "__init__.py").is_file():
        print(f"error: no equimorse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    clock = HostClock()
    setup_raw, setup_s, ctx = timed_setup(clock, args.workload)
    import equimorse
    if Path(equimorse.__file__).resolve().parent != (SRC / "equimorse").resolve():
        print(f"error: equimorse imported from {equimorse.__file__}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(setup_raw, setup_s)
        return 0
    setup_samples = [[setup_raw, setup_s]] + probe_setups(args)
    setups = [scaled for _, scaled in setup_samples]

    from spans import NullTracer, Tracer
    null, tracer = NullTracer(), Tracer()
    op_walls, op_cpus, op_speeds, op_fails = [], [], [], []
    scaled_walls, scaled_cpus = [], []
    traced, traced_walls, untraced_walls = [], [], []
    attempted = failed = 0
    failures: list = []
    for n in range(pass_count(args.workload, args.seconds)):
        ops = workloads.make_pass(ctx, args.seed, n)
        trace_this = bool(args.trace) and n % 2 == 1
        walls, cpus, speeds, fails = run_pass(clock, ctx, ops, tracer if trace_this else null,
                                              n, failures)
        op_walls.append(walls)
        op_cpus.append(cpus)
        op_speeds.append(speeds)
        op_fails.append(fails)
        scaled_walls.append([w * s for w, s in zip(walls, speeds)])
        scaled_cpus.append([c * s for c, s in zip(cpus, speeds)])
        attempted += len(ops)
        failed += sum(fails)
        if trace_this:
            recorded, counts = tracer.take()
            traced.append((recorded, counts))
            traced_walls.append(sum(scaled_walls[-1]))
        elif n:
            untraced_walls.append(sum(scaled_walls[-1]))

    wall_s, cpu_s = median_ops(scaled_walls, scaled_cpus, op_fails)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        metrics = layer_metrics(traced, untraced_walls, traced_walls)
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    env = environment(args, len(op_walls), attempted, failed, len(ctx.notes))
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "e2e": e2e, "metrics": metrics, "failures": failures,
              "notes": ctx.notes,
              "setup_samples": setup_samples, "op_walls": op_walls, "op_cpus": op_cpus,
              "op_speeds": op_speeds}
    if args.trace:
        record["spans"] = [
            {"pass": 2 * i + 1, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "op": s[4]} for i, (recorded, _) in enumerate(traced) for s in recorded]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for line in failures:
        print("FAILED " + line, file=sys.stderr)
    for line in ctx.notes:
        print("NOTE " + line, file=sys.stderr)
    print("env " + json.dumps(env))
    for k, m in metrics.items():
        print(f"{k:<45} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
