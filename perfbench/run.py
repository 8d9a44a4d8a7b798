"""End-to-end benchmark runner: cold processes of what users run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table2-vector --seed 3 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``table2-fast``, ``headline-vector`` (and ``table2-vector``, run
  ungated by ``report.py``) — ``repro-spotsim table2|headline --engine E
  --experiments 20`` on the archive seed the benchmark seed maps to;
  stdout must equal the ``--engine fast`` reference recorded in
  ``perfbench/refs``;
* ``advisor`` — surface build, warm rebuild, JSON-lines serving and a
  closed-loop client in one process (:mod:`advisor_phases`).

Every sample is a fresh process (:mod:`sample`).  A run spawns samples
one after another while at least half of the next one is expected to
fall inside ``--seconds`` (at least one always runs) and reports
medians.  Samples are pinned to each CPU in turn (only the ``advisor``
cold build's two pool workers get every CPU): a virtual CPU's speed
drifts for a minute at a time independently of the others', and taking
samples from each averages their drifts.  ``--trace 0`` reports ``setup_s``,
``wall_s`` and ``peak_rss_mb``; ``--trace 1`` alternates untraced and
traced samples and reports the per-layer metrics of the traced ones plus
the tracing overhead (traced over untraced ``wall_s``).  The last stdout
line is one JSON object; earlier lines starting with ``#`` are ungated
diagnostics.
``--tiny`` runs the self-test's scale against the references the
self-test records.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    ADVISOR_PHASES, ARTIFACTS, END_TO_END, FULL, PER_LAYER, RUNNABLE, TINY,
    reference_path, trace_seed,
)

#: A run must end within 180 s; a sample still running this long after
#: the run began is killed and counted as failed.
HARD_LIMIT_S = 165.0


class SampleError(RuntimeError):
    pass


def run_sample(work: Path, args, tseed: int, traced: bool, cpu: int,
               budget_s: float) -> dict:
    """Spawn one sample process pinned to ``cpu``; its result, or
    :class:`SampleError`."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(Path(__file__).with_name("sample.py")),
        "--workload", args.workload, "--trace-seed", str(tseed),
        "--seed", str(args.seed), "--work", str(work), "--cpu", str(cpu),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if traced:
        cmd.append("--trace")
    log = work / "log.txt"
    with log.open("w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=max(budget_s, 1.0))
        except subprocess.TimeoutExpired:
            raise SampleError(f"sample timed out after {budget_s:.0f}s") from None
        finally:
            # also on timeout or SIGTERM: the sample, and a sweep pool's
            # workers in its process group, end before the run does
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise SampleError(f"sample exited {proc.returncode}:\n{tail}")
    result = json.loads((work / "result.json").read_text())
    result["duration_s"] = time.monotonic() - t0
    return result


def check_artifact(result: dict, work: Path, reference: bytes) -> bool:
    """Exit status 0 and stdout byte-identical to the reference."""
    return result.get("status") == 0 and (work / "stdout.txt").read_bytes() == reference


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=RUNNABLE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the self-test's scale and references")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    tseed = trace_seed(args.seed)
    reference = None
    if args.workload in ARTIFACTS:
        refs = (TINY if args.tiny else FULL).refs
        path = reference_path(ARTIFACTS[args.workload][0], tseed, refs)
        if not path.is_file():
            print(f"perfbench: missing reference {path}", file=sys.stderr)
            return 2
        reference = path.read_bytes()

    # byte-compile once, untimed: an installed package ships bytecode
    compileall.compile_dir(root / "src", quiet=2)
    started = time.monotonic()
    deadline = started + args.seconds
    base = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    error = None

    def budget() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    cpus = sorted(os.sched_getaffinity(0))
    try:
        i = 0
        while True:
            want_trace = bool(args.trace) and i % 2 == 1
            # untraced and traced samples each alternate between the CPUs
            cpu = cpus[(i + (i // 2 if args.trace else 0)) % len(cpus)]
            work = base / f"sample{i}"
            try:
                result = run_sample(work, args, tseed, want_trace, cpu, budget())
            except SampleError as exc:
                error = str(exc)
                attempted += 1
                failed += 1
                break
            i += 1
            if reference is not None:
                attempted += 1
                failed += not check_artifact(result, work, reference)
            else:
                attempted += result["attempted"]
                failed += result["failed"]
            (traced if want_trace else plain).append(result)
            if want_trace:
                (work / "spans.json").replace(
                    root / ".perfbench" / f"spans-{args.workload}-{args.seed}.json")
            if not plain or (args.trace and not traced):
                continue
            # start another sample only if at least half of it is expected
            # to fall inside --seconds
            next_kind = traced if args.trace and i % 2 == 1 else plain
            expected_s = statistics.median(s["duration_s"] for s in next_kind)
            if time.monotonic() + expected_s / 2 > deadline:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if error is not None:
        print("# sample failed: " + error.replace("\n", "\n# "))
    if not plain or (args.trace and not traced):
        print("perfbench: no sample completed", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} trace_seed={tseed} "
          f"samples={len(plain)} traced_samples={len(traced)} cpus={cpus} "
          f"elapsed_s={time.monotonic() - started:.1f} "
          f"wall_s={[round(s['wall_s'], 3) for s in plain + traced]} "
          f"setup_s={[round(s['setup_s'], 3) for s in plain + traced]}")
    if args.workload == "advisor":
        diag = {k: median_of([s["phases"] for s in plain], k) for k in ADVISOR_PHASES}
        diag["advise_samples"] = plain[0]["advise_samples"]
        print("# advisor " + json.dumps(diag))
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead":
                value = median_of(traced, "wall_s") / median_of(plain, "wall_s")
            else:
                value = statistics.median(s["layers"].get(name, 0) for s in traced)
            metrics[name] = {"value": value, "unit": unit}
        share = statistics.median(s["oracle_s"] / s["wall_s"] for s in traced)
        print(f"# oracle_share_of_traced_wall={share:.4f}")
    else:
        values = {
            "setup_s": median_of(plain, "setup_s"),
            "wall_s": median_of(plain, "wall_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
