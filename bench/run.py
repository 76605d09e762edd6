"""spanlab benchmark: time to verdict, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh interpreters (``session.py``), one after another:
a warm-up, a few set-up-only starts, then whole rounds of the workload's
requests, at least two, for as long as another round is likely to end
within S seconds.
Every report is checked against the expectations in ``workloads.py``, and
each request's report, with ``timing`` removed, must be byte-identical in
every round.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

``wall_s`` and ``setup_s`` are given at the reference speed of
``calibrate.py``: each interpreter times a fixed unit of work right after
set-up and while or between its requests, and each measured time is
scaled by the unit's reference time over its mean time around it.  Round k
of every run gets PYTHONHASHSEED=k.  The raw times are printed too.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2
SETUP_ONLY_STARTS = 6
DEADLINE_S = 170
# A request is scaled by the units sampled over at least this long around it.
MIN_WINDOW_S = 2.0
EXIT_CODES = {"verified": 0, "refuted": 1, "inconclusive": 2, "error": 3}

# Per-layer metrics: (metric, traced name, what is read).  "calls" counts
# calls (generator objects for generators), "items" counts yielded items,
# "self_s" is self time.
LAYER_METRICS = [
    ("shapes.SigmaShape.leq.calls", "shapes.SigmaShape.leq", "calls"),
    ("shapes.sigma_shape.calls", "shapes.sigma_shape", "calls"),
    ("fincat.FinSetCategory.limit_of_diagram.calls", "fincat.FinSetCategory.limit_of_diagram", "calls"),
    ("fincat.FinSetCategory.limit_of_diagram.self_s", "fincat.FinSetCategory.limit_of_diagram", "self_s"),
    ("fincat.FinSetCategory.factor_through_limit.calls", "fincat.FinSetCategory.factor_through_limit", "calls"),
    ("fincat.FinSetCategory.factor_through_limit.self_s", "fincat.FinSetCategory.factor_through_limit", "self_s"),
    ("fincat.FinCategory.limit_of_diagram.calls", "fincat.FinCategory.limit_of_diagram", "calls"),
    ("fincat.FinCategory.limit_of_diagram.self_s", "fincat.FinCategory.limit_of_diagram", "self_s"),
    ("fincat.FinSetCategory.pullback.calls", "fincat.FinSetCategory.pullback", "calls"),
    ("fincat.FinSetCategory.pullback.self_s", "fincat.FinSetCategory.pullback", "self_s"),
    ("fincat.FinSetCategory.compose.calls", "fincat.FinSetCategory.compose", "calls"),
    ("fincat.FinFunction.created", "fincat.FinFunction.__init__", "calls"),
    ("fincat.core.self_s", "fincat.core", "self_s"),
    ("fincat.slice_over_pair.self_s", "fincat.slice_over_pair", "self_s"),
    ("spans.enumerate_lambda_data.items", "spans.enumerate_lambda_data", "items"),
    ("spans.enumerate_lambda_data.self_s", "spans.enumerate_lambda_data", "self_s"),
    ("spans.sample_lambda_data.calls", "spans.sample_lambda_data", "calls"),
    ("spans.sample_lambda_data.self_s", "spans.sample_lambda_data", "self_s"),
    ("spans.kan_extend.calls", "spans.kan_extend", "calls"),
    ("spans.kan_extend.self_s", "spans.kan_extend", "self_s"),
    ("spans.is_cartesian.calls", "spans.is_cartesian", "calls"),
    ("spans.is_cartesian.self_s", "spans.is_cartesian", "self_s"),
    ("spans.natural_families.items", "spans.natural_families", "items"),
    ("spans.natural_families.self_s", "spans.natural_families", "self_s"),
    ("spans.extend_natural_family.calls", "spans.extend_natural_family", "calls"),
    ("spans.extend_natural_family.self_s", "spans.extend_natural_family", "self_s"),
    ("spans.span_level.self_s", "spans.span_level", "self_s"),
    ("spans.compose_spans.calls", "spans.compose_spans", "calls"),
    ("spans.compose_spans.self_s", "spans.compose_spans", "self_s"),
    ("groupoid.equivalent.calls", "groupoid.equivalent", "calls"),
    ("groupoid.equivalent.self_s", "groupoid.equivalent", "self_s"),
    ("groupoid.groupoids_equivalent.calls", "groupoid.groupoids_equivalent", "calls"),
    ("groupoid.groupoids_equivalent.self_s", "groupoid.groupoids_equivalent", "self_s"),
    ("groupoid.groups_isomorphic.calls", "groupoid.groups_isomorphic", "calls"),
    ("groupoid.groups_isomorphic.self_s", "groupoid.groups_isomorphic", "self_s"),
    ("groupoid.iso_comma.self_s", "groupoid.iso_comma", "self_s"),
    ("groupoid.FinGroupoid.components.self_s", "groupoid.FinGroupoid.components", "self_s"),
    ("duality.build_adjunction.calls", "duality.build_adjunction", "calls"),
    ("duality.build_adjunction.self_s", "duality.build_adjunction", "self_s"),
    ("duality.triangle_check.calls", "duality.triangle_check", "calls"),
    ("duality.triangle_check.self_s", "duality.triangle_check", "self_s"),
    ("duality.object_duality_check.self_s", "duality.object_duality_check", "self_s"),
    ("locsys.all_locsys_spans.self_s", "locsys.all_locsys_spans", "self_s"),
    ("locsys.compose_locsys.calls", "locsys.compose_locsys", "calls"),
    ("locsys.compose_locsys.self_s", "locsys.compose_locsys", "self_s"),
    ("locsys.locsys_span_isos.calls", "locsys.locsys_span_isos", "calls"),
    ("locsys.locsys_span_isos.self_s", "locsys.locsys_span_isos", "self_s"),
    ("locsys.locsys_level.self_s", "locsys.locsys_level", "self_s"),
    ("lagrangian.rref.calls", "lagrangian.rref", "calls"),
    ("lagrangian.rref.self_s", "lagrangian.rref", "self_s"),
    ("lagrangian.apply_form.calls", "lagrangian.apply_form", "calls"),
    ("lagrangian.apply_form.self_s", "lagrangian.apply_form", "self_s"),
    ("lagrangian.compose_lagrangian.calls", "lagrangian.compose_lagrangian", "calls"),
    ("lagrangian.compose_lagrangian.self_s", "lagrangian.compose_lagrangian", "self_s"),
    ("lagrangian.is_lagrangian.calls", "lagrangian.is_lagrangian", "calls"),
    ("lagrangian.is_lagrangian.self_s", "lagrangian.is_lagrangian", "self_s"),
    ("lagrangian.random_correspondence.calls", "lagrangian.random_correspondence", "calls"),
    ("lagrangian.random_correspondence.self_s", "lagrangian.random_correspondence", "self_s"),
    ("cli.run_request.self_s", "cli.run_request", "self_s"),
    ("cli.serialize_s", tracer.SERIALIZE, "self_s"),
]
SUITE_RATIOS = ("cli.suite.wall_over_sequential", "cli.suite.timing_inflation")

# Work counts that reports carry, recorded per request in the trace file.
REPORT_COUNTS = ("data_checked", "spans_checked", "objects", "morphisms", "triples_checked", "trials")


class BenchError(Exception):
    """The benchmark could not run the program to the end."""


# ---------------------------------------------------------------------------
# sessions


def _session_env(hash_seed: int) -> dict:
    """The caller's environment without settings that would change what the
    program does or which spanlab it imports, and with a fixed hash seed:
    set and dict orders move some checks' work (the invertible check's time
    by about a tenth), so round k of every run gets the same orders."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPANLAB_") and k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def start_session(workdir: Path, args, deadline: float, setup_only=False, hash_seed=0) -> dict:
    """Run session.py to its end; return its result with the interpreter's
    raw set-up time and peak resident set (of it and any process it
    started)."""
    out = workdir / "session.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another session")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, env=_session_env(hash_seed), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"session exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_raw_s"] = result["ready"] - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return result


def scale_to_reference(r) -> None:
    """Add a session's set-up time and, for a round, its wall time, raw and
    at the reference speed of calibrate.py.  Set-up is scaled by the units
    right after it.  A round's wall is the sum over its requests, each from
    issue to its report parsed, scaled by the units sampled while it ran
    (over at least MIN_WINDOW_S) or, for suites, by the units before and
    after it."""
    units = r["units"]
    r["setup_s"] = calibrate.at_reference_speed(r["setup_raw_s"], units[0])
    if "ops" not in r:
        return
    r["wall_raw_s"] = sum(op["wall_s"] for op in r["ops"])
    if "samples" in r:
        samples = r["samples"]
        scaled = [
            calibrate.at_reference_speed(
                op["wall_s"],
                calibrate.sampled_around(samples, op["start"], op["start"] + op["wall_s"], MIN_WINDOW_S)
                if samples else units[0],
            )
            for op in r["ops"]
        ]
    else:
        scaled = [calibrate.at_reference_speed(op["wall_s"], units[i], units[i + 1]) for i, op in enumerate(r["ops"])]
    r["wall_s"] = sum(scaled)


# ---------------------------------------------------------------------------
# checks


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def lookup(report, path):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def report_problems(expect: workloads.Expect, report: dict) -> list[str]:
    out = []
    if report.get("verdict") != expect.verdict:
        out.append(f"verdict {report.get('verdict')!r}, expected {expect.verdict!r}")
    for path, want in expect.fields.items():
        try:
            got = lookup(report, path)
        except KeyError:
            out.append(f"{path} missing, expected {want!r}")
            continue
        if got != want:
            out.append(f"{path} = {got!r}, expected {want!r}")
    if expect.inner:
        inner = report.get("reports")
        if not isinstance(inner, list) or len(inner) != len(expect.inner):
            return out + [f"suite holds {len(inner) if isinstance(inner, list) else inner!r} reports, expected {len(expect.inner)}"]
        for k, (rep, exp) in enumerate(zip(inner, expect.inner)):
            out += [f"inner report {k}: {p}" for p in report_problems(exp, rep)]
        worst = max(EXIT_CODES.get(rep.get("verdict"), 3) for rep in inner)
        if report.get("worst_exit") != worst:
            out.append(f"worst_exit {report.get('worst_exit')!r}, inner maximum {worst}")
    return out


def op_problems(expect: workloads.Expect, op: dict) -> list[str]:
    """Why one operation failed; empty when it succeeded."""
    if op["crash"]:
        return [f"crashed: {op['crash']}"]
    out = []
    if op["code"] != expect.exit:
        out.append(f"exit code {op['code']}, expected {expect.exit}")
    return out + report_problems(expect, op["report"])


# ---------------------------------------------------------------------------
# the run


def layer_metrics(rounds, notes) -> dict:
    """Per-layer metrics of the traced rounds: counts from the first round
    (they must repeat exactly), self times as the median over rounds."""
    traces = [r["trace"] for r in rounds]
    self_s = []
    for trace in traces:
        totals = {}
        for row in trace["rows"]:
            totals[row["name"]] = totals.get(row["name"], 0.0) + row["self_s"]
        self_s.append(totals)
    items = {}
    for row in traces[0]["rows"]:
        items[row["name"]] = items.get(row["name"], 0) + row["items"]
    if any(t["calls"] != traces[0]["calls"] for t in traces[1:]):
        notes.append("call counts differ between rounds; the first round's are reported")
    metrics = {}
    for metric, name, what in LAYER_METRICS:
        if what == "calls":
            value, unit = traces[0]["calls"][name], "count"
        elif what == "items":
            value, unit = items.get(name, 0), "count"
        else:
            value, unit = statistics.median(t.get(name, 0.0) for t in self_s), "s"
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def suite_ratios(rounds) -> dict:
    """Suite wall over the same inner requests run alone one after another,
    and the inner reports' summed timing in the suite over the same sum
    when each runs alone.  Zero when the workload issues no suite request."""
    walls, inflation = [], []
    for r in rounds:
        suite = [op for op in r["ops"] if op["argv"][0] == "suite" and op["report"]]
        if not suite or not r["solo"]:
            continue
        walls.append(sum(op["wall_s"] for op in suite) / sum(op["wall_s"] for op in r["solo"]))
        inner = sum(rep["timing"] for op in suite for rep in op["report"]["reports"])
        alone = sum(op["report"]["timing"] for op in r["solo"] if op["report"])
        inflation.append(inner / alone)
    values = (statistics.median(walls) if walls else 0, statistics.median(inflation) if inflation else 0)
    return {name: {"value": v, "unit": "ratio"} for name, v in zip(SUITE_RATIOS, values)}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    plan = workloads.plan(args.workload, args.seed)
    suite_plan = plan[0][1].inner  # checks the inner requests run alone (traced suite only)
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start_session(workdir, args, deadline, setup_only=True)  # warm-up: bytecode and file caches
        starts = [start_session(workdir, args, deadline, setup_only=True) for _ in range(SETUP_ONLY_STARTS)]
        rounds, longest = [], 0.0
        began = time.monotonic()
        # Whole rounds only, and none that would likely end past --seconds.
        while len(rounds) < MIN_ROUNDS or time.monotonic() - began + longest <= args.seconds:
            started = time.monotonic()
            rounds.append(start_session(workdir, args, deadline, hash_seed=len(rounds) + 1))
            longest = max(longest, time.monotonic() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for r in starts + rounds:
        scale_to_reference(r)

    correct, attempted, failed = True, 0, 0
    failures, notes = [], []
    for k, r in enumerate(rounds):
        checked = [(op, e) for op, (_, e) in zip(r["ops"], plan)] + list(zip(r["solo"], suite_plan))
        for op, expect in checked:
            attempted += 1
            problems = op_problems(expect, op)
            if not problems:
                continue
            failed += 1
            if expect.known_fault is None:
                correct = False
            if k == 0:
                tag = f"known fault ({expect.known_fault})" if expect.known_fault else "UNEXPECTED"
                failures.append(f"{tag}: {' '.join(op['argv'])}: {'; '.join(problems)}")
    canonical = [
        [json.dumps(strip_timing(op["report"]), sort_keys=True) if op["report"] else op["crash"] for op in r["ops"]]
        for r in rounds
    ]
    for i, (argv, _) in enumerate(plan):
        if any(c[i] != canonical[0][i] for c in canonical[1:]):
            correct = False
            failures.append(f"UNEXPECTED: report differs between rounds: {' '.join(argv)}")

    walls = [r["wall_s"] for r in rounds]
    if args.trace:
        metrics = layer_metrics(rounds, notes)
        metrics.update(suite_ratios(rounds))
        write_trace(args, rounds)
        notes.append(f"traced wall_s {statistics.median(walls):.4f} s")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in starts + rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MiB"},
        }
    for line in failures + notes:
        print(line)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    raw_walls = [r["wall_raw_s"] for r in rounds]
    raw_setup = statistics.median(r["setup_raw_s"] for r in starts + rounds)
    print(f"  round wall_s: {', '.join(f'{w:.3f}' for w in walls)} (raw {', '.join(f'{w:.3f}' for w in raw_walls)})")
    print(f"  setup_s raw median: {raw_setup:.4f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace(args, rounds) -> None:
    """Write every round's folded spans and per-request work counts."""
    doc = {"workload": args.workload, "seed": args.seed, "rounds": []}
    for r in rounds:
        requests = []
        for op in r["ops"] + r["solo"]:
            rep = op["report"] or {}
            counts = {k: v for part in (rep, rep.get("details") or {}) for k, v in part.items() if k in REPORT_COUNTS}
            requests.append({"argv": op["argv"], "wall_s": op["wall_s"], "counts": counts})
        doc["rounds"].append({"requests": requests, "calls": r["trace"]["calls"], "spans": r["trace"]["rows"]})
    path = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "spanlab" / "cli.py").is_file():
        print(f"no spanlab sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
