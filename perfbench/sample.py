"""One cold-process sample of a benchmark workload (started by ``run.py``).

Run from the root of a checkout::

    python3 perfbench/sample.py --workload table2-fast --trace-seed 20140623 \\
        --seed 0 --t0 <time.monotonic() at spawn> --work DIR --cpu N \\
        [--trace] [--tiny]

``--t0`` is the spawning process's ``time.monotonic()`` just before the
spawn (the clock is system-wide), so ``setup_s`` and ``wall_s`` count
interpreter start-up.  The sample imports ``repro`` from ``src/``,
builds the workload's evaluation windows (set-up), runs the workload and
writes ``DIR/result.json``.  Artifact workloads write the command's
stdout to ``DIR/stdout.txt`` for ``run.py`` to check against its
reference.  With ``--trace`` the layer wrappers of :mod:`tracing` are
installed right after import and the span aggregates go to
``DIR/spans.json``.  ``--cpu`` pins the process to one CPU before it
imports anything (the ``advisor`` cold build's pool gets every CPU the
process started with).  ``--tiny`` runs the self-test's scale.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(Path.cwd() / "src"))
    import repro.cli
    import repro.traces.library

    from workloads import ARTIFACTS, FULL, TINY, WINDOWS

    scale = TINY if args.tiny else FULL

    advisor = args.workload == "advisor"
    if advisor:
        import advisor_phases
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for window in WINDOWS[args.workload]:
        # looked up after install() so the traced run times it
        repro.traces.library.evaluation_window(window, args.trace_seed)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if advisor:
        out = advisor_phases.run(args.work, args.trace_seed, args.seed, scale, cpus)
        result["wall_s"] = out.pop("phases_end") - args.t0
        result.update(out)
    else:
        command, engine = ARTIFACTS[args.workload]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = repro.cli.main([
                command, "--engine", engine, "--seed", str(args.trace_seed),
                "--experiments", str(scale.experiments),
            ])
        (args.work / "stdout.txt").write_text(buf.getvalue())
        result["wall_s"] = time.monotonic() - args.t0
        result["status"] = status
        result["layers"] = {}
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["layers"].update(tracing.layer_metrics(tracer))
        result["oracle_s"] = tracing.oracle_seconds(tracer)
        (args.work / "spans.json").write_text(json.dumps(tracer.dump(), indent=1))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
