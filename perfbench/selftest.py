"""Tiny-scale self-test of the benchmark (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Records the ``--tiny`` scale's references, then runs every workload (the
ungated ``table2-vector`` too) untraced and traced at that scale and
checks that:

* each run exits 0 and ends with the result object, every operation
  passing (``failed_share`` 0);
* every metric ``BENCHMARK.json`` names is emitted with its unit;
* the traced counts show the known contrasts: ``oracle.rebuild_share``
  higher on ``table2-vector`` than on ``table2-fast``, ``adaptive.*``
  nonzero only on ``headline-vector``, ``cache.*`` and ``pool.*``
  nonzero only on ``advisor``;
* a corrupted reference is caught (the run reports a failed operation);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from make_refs import record
from workloads import ARTIFACTS, RUNNABLE, TINY, WORKLOADS, reference_path, trace_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd,
    )


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(out)}")
    return out


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    scratch = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(TINY.refs, ignore_errors=True)
    TINY.refs.mkdir(parents=True)
    for command in {c for c, _ in ARTIFACTS.values()}:
        record(command, trace_seed(0), TINY)

    layers: dict[str, dict] = {}
    for workload in RUNNABLE:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            out = result_of(run(workload, trace), what)
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{what}: {out['failed']} of {out['attempted']} operations failed")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == wanted[trace], f"{what}: metrics/units {got} != {wanted[trace]}")
            if trace:
                layers[workload] = {k: v["value"] for k, v in out["metrics"].items()}
            print(f"ok  {what}: {out['attempted']} operations")

    share = {w: layers[w]["oracle.rebuild_share"] for w in ("table2-fast", "table2-vector")}
    check(share["table2-vector"] > share["table2-fast"], f"rebuild shares {share}")
    for prefix, owner in (("adaptive.", "headline-vector"), ("cache.", "advisor"),
                          ("pool.", "advisor")):
        for workload, values in layers.items():
            used = any(v for k, v in values.items() if k.startswith(prefix))
            check(used == (workload == owner), f"{prefix}* on {workload}: {used}")
    print("ok  traced contrasts")

    bad = reference_path("table2", trace_seed(0), TINY.refs)
    bad.write_text(bad.read_text().replace("$", "#"))
    out = result_of(run("table2-fast", 0), "corrupted reference")
    check(not out["correct"] and out["failed"] == 1, f"corrupted reference passed: {out}")
    print("ok  corrupted reference caught")

    bare = scratch / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("table2-fast", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  bare directory refused")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(TINY.refs, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
