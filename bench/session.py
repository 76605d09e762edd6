"""One run of a workload in a fresh interpreter, as a CLI user would see it.

Started by ``run.py`` with the run's working directory as its cwd.  It
imports spanlab from the checkout's ``src``, writes the workload's inputs,
then issues the requests one after another through ``spanlab.cli.main``
with stdout captured, parsing every printed report.  It writes what it saw
to the file named by ``--out``; ``run.py`` checks it.

So that ``run.py`` can give set-up and each request at the reference speed,
it times units of ``calibrate.py`` in this interpreter: right after the
inputs are written; then, for suites, after every request (on two threads
at once, as the program runs a suite), and otherwise on a sampler thread
every second while the requests run.  With ``--setup-only`` it stops after
the first units, so the caller can time set-up alone.  With ``--trace 1`` it wraps the program's layers
(see ``tracer.py``) before the first request and, for the suite, runs the
suite's inner requests once more one after another.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# Calibration units timed right after set-up, and for suites after each
# request; while other requests run, a unit on a thread of its own every
# SAMPLE_EVERY_S seconds.  A suite rests on the units before and after it
# alone, so it takes more of them.
UNITS_PER_POINT = 2
SUITE_UNITS_PER_POINT = 4
SAMPLE_EVERY_S = 1.0


def issue(cli, argv) -> dict:
    """Run one request through the CLI entry point and parse its report."""
    out = io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        report, crash = json.loads(out.getvalue()), None
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        code, report, crash = None, None, f"{type(exc).__name__}: {exc}"
    return {
        "argv": list(argv), "code": code, "report": report, "crash": crash,
        "start": start, "wall_s": time.monotonic() - start,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import spanlab
    from spanlab import cli

    if Path(spanlab.__file__).resolve().parent != SRC / "spanlab":
        print(f"spanlab imported from {spanlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workloads.write_inputs(args.workload, args.seed, Path.cwd())
    result = {"ready": time.monotonic()}
    requests = [argv for argv, _ in workloads.plan(args.workload, args.seed)]
    # The program runs a suite's requests at once, on a pool of as many
    # threads, so a session issuing suites times the unit on as many.
    suites = any(argv[0] == "suite" for argv in requests)
    threads = len(workloads.suite_requests(args.seed)) if suites else 1
    per_point = SUITE_UNITS_PER_POINT if suites else UNITS_PER_POINT
    result["units"] = [calibrate.units_s(per_point, threads)]
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ops = []
        # A sampler thread would contend with a suite's own pool, so suites
        # are calibrated between requests only.
        sampler = contextlib.nullcontext() if suites else calibrate.Sampler(SAMPLE_EVERY_S)
        with sampler:
            for i, argv in enumerate(requests):
                if tracer:
                    tracer.request = i
                ops.append(issue(cli, argv))
                if suites:
                    result["units"].append(calibrate.units_s(per_point, threads))
        if not suites:
            result["samples"] = sampler.samples
        # The layer figures cover the workload's own requests only.
        result.update(ops=ops, solo=[], trace=tracer.snapshot() if tracer else None)
        if tracer and args.workload == "suite":
            for j, argv in enumerate(workloads.suite_requests(args.seed)):
                tracer.request = f"solo{j}"
                result["solo"].append(issue(cli, argv))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
