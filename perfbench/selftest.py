"""Self-test of the benchmark at tiny size, run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload prints every declared metric with its unit and
no failed op, in both modes; that the traced runs confirm their bypass
predictions; that a deliberately wrong output is counted as a failed op; and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
from workloads import DESK_CLI, VERIFY_EXACT, WORKLOADS

SECONDS = "1"


def run_command(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = [*spec["command"], "--workload", workload, "--seed", "0",
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_metrics_printed() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_command(run.ROOT, workload.name, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (workload.name, trace)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace:
                assert "VIOLATED" not in proc.stdout, proc.stdout
                assert proc.stdout.count("bypass prediction holds") == len(workload.bypassed)
            else:
                assert "fail_ratio 0 " in proc.stdout
                assert result["metrics"]["ok_ratio"]["value"] == 1.0
            print(f"ok: {workload.name} --trace {trace} prints {len(declared)} metrics, 0 failed")


def _perturb_charpoly(output):
    code, out, err = output
    doc = json.loads(out)
    doc["coeffs"][0] = str(int(doc["coeffs"][0]) + 1)
    return code, json.dumps(doc), err


def _perturb_verify(result):
    return replace(result, seed=result.seed + 1)


def check_wrong_output_counted() -> None:
    sys.path.insert(0, str(run.SRC))
    env = run.import_package()
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        desk = DESK_CLI.build(env, 0, 1, Path(tmp))
        exact = VERIFY_EXACT.build(env, 0, 1, Path(tmp))[:2]
        charpoly = next(op for op in desk if op.kind.startswith("charpoly"))
        cases = [
            (charpoly, _perturb_charpoly),
            (exact[0], _perturb_verify),
        ]
        for good, perturb in cases:
            bad = replace(good, run=lambda good=good, perturb=perturb: perturb(good.run()))
            ops = [good, bad, exact[1]]
            failures = run.check_pass(ops, run.run_pass(ops))
            assert len(failures) == 1 and failures[0].startswith("op 1 "), failures
            print(f"ok: perturbed {good.kind} output counted as a failed op: {failures[0]}")


def check_refuses_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_command(bare, VERIFY_EXACT.name, 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok: without the package source the benchmark exits {proc.returncode}, printing no result")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    check_metrics_printed()
    check_wrong_output_counted()
    check_refuses_bare_directory()
    print("selftest passed")
