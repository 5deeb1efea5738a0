"""Collect, summarise and compare benchmark runs.

    # runs of one checkout, or alternating pairs of two (order flips per seed)
    python3 perfbench/compare.py collect --seeds 0-9 --side . head.jsonl
    python3 perfbench/compare.py collect --seeds 0-9 --side ../parent base.jsonl --side . head.jsonl

    python3 perfbench/compare.py spread head.jsonl        # quartile spread vs bound
    python3 perfbench/compare.py diff base.jsonl head.jsonl

`collect` makes untraced runs of run_seconds from BENCHMARK.json; per-layer
reports come from `run.py --trace 1`. A result file holds one JSON object per
line: the run's workload and seed, and the result line the run printed. `diff`
prints one row per (workload, end-to-end metric) and applies the rules of a
gain claim: at least ten pairs, the change winning at least nine in ten, a
median gap larger than the parent's quartile spread, and no more failed ops
than the parent. Otherwise a metric is a regression when its median is worse
than the parent's by more than the bound in BENCHMARK.json, unresolved when
the parent's spread exceeds that bound (unless every run of the change beats
every run of the parent), and no regression else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    spec = load_spec(checkout)
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return {"workload": workload, "seed": seed, **json.loads(lines[-1])}


def collect(args) -> None:
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = [(Path(checkout), Path(out)) for checkout, out in args.side]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for checkout, out in order:
                record = run_once(checkout, workload, seed)
                with out.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                status = "ok" if record["correct"] else f"{record['failed']} FAILED"
                print(f"{checkout} {workload} seed {seed}: {status}", flush=True)


def load_runs(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def spread(args) -> None:
    spec = load_spec()
    runs = load_runs(args.results)
    print(f"{'workload':<16} {'metric':<12} {'runs':>4} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, records in runs.items():
        failed = sum(r["failed"] for r in records)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            q1, q2, q3 = quartiles(values)
            rel = relative_spread(values)
            bound = metric["bound"]
            verdict = "steady" if rel < bound / 3 else "within bound" if rel <= bound else "TOO WIDE"
            print(f"{workload:<16} {metric['name']:<12} {len(values):>4} {q2:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {rel:>7.3f} {bound:>6}  {verdict}")
        print(f"{workload:<16} failed ops: {failed} in {len(records)} runs")


def verdict(base: list[float], head: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float, failed: tuple[int, int]) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    b1, b2, b3 = quartiles(base)
    h2 = statistics.median(head)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(h2 - b2) > b3 - b1 and sign * (h2 - b2) > 0:
        return ("gain" if failed[1] <= failed[0] else "no gain: more failed ops"), wins
    if sign * (h2 - b2) < -bound * abs(b2):
        return "regression", wins
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if relative_spread(base) > bound and not all_better:
        return "unresolved", wins
    return "no regression", wins


def diff(args) -> None:
    spec = load_spec()
    base_runs, head_runs = load_runs(args.base), load_runs(args.head)
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} "
          f"{'wins':>7} {'bound':>6}  verdict")
    for workload in base_runs:
        if workload not in head_runs:
            continue
        base_by_seed = defaultdict(list)
        for r in base_runs[workload]:
            base_by_seed[r["seed"]].append(r)
        paired = []  # the k-th run of a seed on one side pairs with the k-th on the other
        for r in head_runs[workload]:
            if base_by_seed[r["seed"]]:
                paired.append((base_by_seed[r["seed"]].pop(0), r))
        failed = (sum(r["failed"] for r in base_runs[workload]),
                  sum(r["failed"] for r in head_runs[workload]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs[workload]]
            head = [r["metrics"][name]["value"] for r in head_runs[workload]]
            pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"]) for b, h in paired]
            result, wins = verdict(base, head, pairs, metric["better"], metric["bound"], failed)
            b1, b2, b3 = quartiles(base)
            h1, h2, h3 = quartiles(head)
            print(f"{workload:<16} {name:<12} {b2:>12.5g} [{b1:>9.5g}, {b3:>9.5g}] "
                  f"{h2:>12.5g} [{h1:>9.5g}, {h3:>9.5g}] {wins:>3}/{len(pairs):<3} "
                  f"{metric['bound']:>6}  {result}")
        print(f"{workload:<16} failed ops: base {failed[0]}, head {failed[1]}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark and append results")
    p.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,5,8")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--side", nargs=2, action="append", required=True, metavar=("CHECKOUT", "OUT"))
    p.set_defaults(func=collect)
    p = sub.add_parser("spread", help="quartile spread of each metric against its bound")
    p.add_argument("results")
    p.set_defaults(func=spread)
    p = sub.add_parser("diff", help="compare two result files metric by metric")
    p.add_argument("base")
    p.add_argument("head")
    p.set_defaults(func=diff)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
