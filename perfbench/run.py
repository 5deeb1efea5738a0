"""Benchmark of the sgcorona package, run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-spectral --seed 0 --seconds 30 --trace 0

Workloads and metrics are declared in BENCHMARK.json. Each workload is a closed
loop with one client: one op at a time, in-process, through the public API.
The op list is fixed by (workload, seed, seconds), so two commits compared on
the same arguments run identical work; at the commit that defined the
benchmark one pass takes about --seconds on the reference machine.

--trace 0 times one pass and prints the end-to-end metrics. --trace 1 runs
every second op of the list twice in a row, untraced and then with every layer
function wrapped, prints the per-layer table, writes the spans to
perfbench/out/spans-<workload>-seed<seed>.jsonl and prints the per-layer
metrics. Every output is checked after the timed pass; a wrong output, an
unexpected exit code or an exception counts as a failed op. The last line of
stdout is the result as one JSON object.

The time metrics are given at the reference machine's speed. The host lends
this process a speed that drifts by 10-30 % within seconds to minutes, so
after every op the pass times a fixed pure-Python probe for a small share of
that op's time (after every set-up, for a larger share). Each op's latency is
scaled by REFERENCE_PROBE_S over the mean time of the probes taken within
PROBE_WINDOW_S of it, and each set-up's time by REFERENCE_PROBE_S over the mean
of the probes right after it. The values as measured are printed on a line of
their own.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from layertrace import LAYER_MODULES, Tracer, layer_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 12  # untraced runs set up this often before the pass and again after it
PROBE_SHARE = 0.02  # share of each op's time spent on speed probes after it
SETUP_PROBE_SHARE = 0.25  # the same after each set-up, which lasts about 50 ms
PROBE_WINDOW_S = 1.0  # an op's speed comes from the probes this close to it
REFERENCE_PROBE_S = 0.00130  # mean probe time on the reference machine (perfbench/README.md)


class SetupError(Exception):
    pass


def import_package() -> SimpleNamespace:
    """Import the package from this checkout's source, afresh."""
    for name in [m for m in sys.modules if m == "sgcorona" or m.startswith("sgcorona.")]:
        del sys.modules[name]
    package = importlib.import_module("sgcorona")
    if Path(package.__file__).resolve().parent != SRC / "sgcorona":
        raise SetupError(f"imported sgcorona from {package.__file__}, not from {SRC}")
    layers = {m: importlib.import_module(f"sgcorona.{m}") for m in LAYER_MODULES}
    return SimpleNamespace(package=package, **layers)


@dataclass
class Pass:
    latencies: list[float]
    outputs: list
    wall: float  # of the ops alone, without the probes
    starts: list[float] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)


def probe() -> float:
    """Seconds taken by a fixed piece of the work the package does: float
    products over nested lists (as in the Jacobi solver) and Fraction
    arithmetic (as in the exact kernels). It uses nothing of the package, and
    the collector is off, so the package's heap does not enter its time."""
    n = 16
    a = [[float((7 * i + 3 * j) % 11 - 5) for j in range(n)] for i in range(n)]
    gc.disable()
    try:
        start = time.perf_counter()
        [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        sum(Fraction(k, k + 1) * Fraction(2 * k - 1, 3) for k in range(1, 80))
        return time.perf_counter() - start
    finally:
        gc.enable()


def probes_after(seconds: float, share: float) -> list[tuple[float, float]]:
    """(start, seconds) of the probes run until they have taken `share` of
    `seconds`, at least one."""
    taken, spent = [], 0.0
    while spent < share * seconds or not taken:
        taken.append((time.perf_counter(), probe()))
        spent += taken[-1][1]
    return taken


def run_op(op) -> tuple[float, tuple]:
    start = time.perf_counter()
    try:
        output = (op.run(), None)
    except Exception:
        output = (None, traceback.format_exc(limit=3))
    return time.perf_counter() - start, output


def run_pass(ops) -> Pass:
    """Runs the ops in order; after each, probes the machine's speed until the
    probes have taken PROBE_SHARE of the op's time, so the probes sample the
    run in proportion to where its time goes."""
    done = Pass([], [], 0.0)
    begin = time.perf_counter()
    for op in ops:
        done.starts.append(time.perf_counter())
        latency, output = run_op(op)
        done.latencies.append(latency)
        done.outputs.append(output)
        done.probes.extend(probes_after(latency, PROBE_SHARE))
    done.wall = time.perf_counter() - begin - sum(t for _, t in done.probes)
    return done


def run_traced(ops, env, tracer: Tracer) -> tuple[Pass, Pass]:
    """Each op runs untraced and traced back to back, the two in alternating
    order, so that drift in the machine's speed and the warm-up a first run
    gives the second fall on both sides alike. The wrappers are installed only
    around the traced run."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        if i % 2 == 0:
            plain.append(run_op(op))
        tracer.install(env)
        tracer.begin_op(i)
        traced.append(run_op(op))
        tracer.end_op()
        tracer.uninstall()
        if i % 2 == 1:
            plain.append(run_op(op))
    return tuple(
        Pass([t for t, _ in runs], [o for _, o in runs], sum(t for t, _ in runs))
        for runs in (plain, traced)
    )


def check_pass(ops, done: Pass) -> list[str]:
    """Reasons for every failed op; empty when all outputs are right."""
    failures = []
    for i, (op, (output, error)) in enumerate(zip(ops, done.outputs)):
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:  # malformed output
                error = f"{op.kind}: output could not be checked: {exc!r}"
        if error is not None:
            failures.append(f"op {i} ({op.kind}): {error}")
    return failures


def speed(probes) -> float:
    """The machine's speed while the probes ran, relative to the reference."""
    return REFERENCE_PROBE_S / statistics.mean(t for _, t in probes)


def reference_latencies(done: Pass) -> list[float]:
    """Each op's latency at the reference machine's speed."""
    at = [start for start, _ in done.probes]
    scaled = []
    for start, latency in zip(done.starts, done.latencies):
        lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, start + latency + PROBE_WINDOW_S)
        scaled.append(latency * speed(done.probes[lo:hi]))
    return scaled


def time_metrics(ops: int, latencies: list[float], wall: float) -> dict[str, float]:
    lat_ms = [1000.0 * t for t in latencies]
    return {
        "ops_per_s": ops / wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
    }


def end_to_end(ops, done: Pass, failed: int, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The metrics at the reference machine's speed, and the time metrics as
    measured. `setups` holds each set-up's time as measured and at reference
    speed."""
    completed = len(ops) - failed
    raw = {"setup_s": statistics.median(t for t, _ in setups),
           **time_metrics(completed, done.latencies, done.wall)}
    latencies = reference_latencies(done)
    return {
        "setup_s": statistics.median(t for _, t in setups),
        **time_metrics(completed, latencies, sum(latencies)),
        "ok_ratio": completed / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, raw


def latency_summary(ops, done: Pass) -> list[str]:
    n = len(done.latencies)
    lines = [f"{n} ops in {done.wall:.3f} s; {n - int(0.9 * n)} samples at or beyond p90"]
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(ops, done.latencies):
        by_kind.setdefault(op.kind, []).append(1000.0 * t)
    for kind, ts in sorted(by_kind.items(), key=lambda kv: -sum(kv[1])):
        lines.append(f"  {kind:<24} {len(ts):>5} ops  median {statistics.median(ts):9.2f} ms  "
                     f"total {sum(ts) / 1000:8.3f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sgcorona" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a source checkout; {SRC / 'sgcorona'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    setups = []

    def set_up(repeats: int):
        for _ in range(repeats):
            shutil.rmtree(workdir, ignore_errors=True)
            start = time.perf_counter()
            env = import_package()
            workdir.mkdir()
            ops = workload.build(env, args.seed, args.seconds, workdir)
            elapsed = time.perf_counter() - start
            setups.append((elapsed, elapsed * speed(probes_after(elapsed, SETUP_PROBE_SHARE))))
        return env, ops

    try:
        env, ops = set_up(1 if args.trace else SETUP_REPEATS)
        ops = ops[::2] if args.trace else ops
        run_op(ops[0])  # warm-up: first-call costs stay out of the timing
        if args.trace:
            tracer = Tracer()
            untraced, traced = run_traced(ops, env, tracer)
            failures = check_pass(ops, untraced) + check_pass(ops, traced)
            attempted = 2 * len(ops)
            metrics = tracer.metrics(untraced.wall, traced.wall)
            print(f"{workload.name} seed {args.seed}: traced pass of {len(ops)} ops "
                  f"({traced.wall:.3f} s traced, {untraced.wall:.3f} s untraced)")
            print("\n".join(layer_table(metrics, workload.bypassed)))
            tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
        else:
            done = run_pass(ops)
            failures = check_pass(ops, done)
            attempted = len(ops)
            # Set-ups on both sides of the pass sample the machine's speed at
            # both ends of the run, as the ops do.
            set_up(SETUP_REPEATS)
            metrics, raw = end_to_end(ops, done, len(failures), setups)
            print(f"{workload.name} seed {args.seed}:")
            print("\n".join(latency_summary(ops, done)))
            print(f"machine speed {speed(done.probes):.4f} of the reference ({len(done.probes)} "
                  "probes); as measured: "
                  + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
            print(f"fail_ratio {len(failures) / attempted:g} ({len(failures)} of {attempted})")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    if set(metrics) != set(declared):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
