"""Random requests over the CLI's subcommand grammar, small enough to run in
seconds: every one must print one JSON report with an exit code in
{0, 1, 2, 3}, no program fault, and no verified verdict that checked
nothing."""
import contextlib
import io
import json
import os
import re
import tempfile
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spanlab.cli import main

# An enumeration ceiling well under the default keeps every request under
# about a second; a request over it reports inconclusive, which is allowed.
CEILING = "500"
# The witness that run_request gives an exception other than SpanlabError.
FAULT = re.compile(r"[A-Z]\w*(Error|Exception): ")
# Work counts that a verified report must not give as zero.
WORK = ("objects", "data_checked", "spans_checked", "trials")

ints = lambda lo, hi: st.integers(lo, hi).map(str)
bases = ints(-1, 2).map(lambda n: f"finset:{n}")
bounds = st.one_of(st.just([]), ints(-2, 2).map(lambda b: ["--bound", b]))
arities = st.lists(ints(-2, 2), min_size=1, max_size=2)
coeffs = st.one_of(
    st.sampled_from(["bz2", "bz3", "arrow"]),
    ints(-1, 2).map(lambda n: f"discrete:{n}"),
    ints(-1, 3).map(lambda n: f"cyclic:{n}"),
)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


shapes_argv = st.tuples(st.sampled_from(["sigma", "lambda", "wedge"]), arities).map(
    lambda t: ["shapes", t[0], *t[1]]
)
level_argv = st.tuples(bases, arities, bounds, st.booleans()).map(
    lambda t: ["level", "--base", t[0], "--arities", *t[1], *t[2], *(["--json"] if t[3] else [])]
)
check_argv = st.tuples(
    st.sampled_from(["segal", "complete", "mapping", "invertible"]),
    bases,
    st.lists(ints(-2, 2), max_size=2),
    bounds,
    _flag("--samples", ints(-1, 2)),
    _flag("-X", ints(-1, 3)),
    _flag("-Y", ints(-1, 3)),
).map(lambda t: ["check", t[0], "--base", t[1], "--arities", *t[2], *t[3], *t[4], *t[5], *t[6]])
certify_argv = st.tuples(
    st.sampled_from(["adjoint", "dual"]),
    bases,
    bounds,
    _flag("--trials", ints(-1, 2)),
    _flag("-X", ints(-1, 3)),
).map(lambda t: ["certify", t[0], "--base", t[1], *t[2], *t[3], *t[4]])
locsys_argv = st.tuples(
    coeffs,
    st.sampled_from(["axioms", "battery", "equivalence", "fiber"]),
    _flag("--bound", ints(-1, 1)),
    _flag("-X", ints(-1, 2)),
    _flag("-Y", ints(-1, 2)),
    st.lists(ints(-1, 2), max_size=2),
).map(lambda t: ["locsys", "check", "--coeff", t[0], "--kind", t[1], *t[2], *t[3], *t[4], "--xi", *t[5]])
lag_argv = st.tuples(st.sampled_from(["pairs", "zigzag"]), ints(-2, 6), ints(-1, 2)).map(
    lambda t: ["lag", "check", "--kind", t[0], "--dim", t[1], "--trials", t[2]]
)
requests = st.one_of(shapes_argv, level_argv, check_argv, certify_argv, locsys_argv, lag_argv)


def _issue(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return json.loads(out.getvalue()), code


def _faults(report):
    """What is wrong with one report or the reports of a suite, as a list
    of messages."""
    problems = []
    witness = report.get("witness")
    if report["verdict"] == "error" and isinstance(witness, dict):
        error = witness.get("error")
        if isinstance(error, str) and FAULT.match(error):
            problems.append(f"program fault: {error}")
    if report["verdict"] == "verified":
        counts = {**report.get("details", {}), **{k: report[k] for k in WORK if k in report}}
        problems += [f"verified with {k} = 0" for k in WORK if counts.get(k) == 0]
    for inner in report.get("reports", []):
        problems += _faults(inner)
    return problems


@given(argv=requests)
@example(argv=["shapes", "lambda", "2"])
@example(argv=["level", "--base", "finset:2", "--arities", "1", "--bound", "-1"])
@settings(max_examples=150, deadline=None)
def test_every_request_reports(argv):
    with mock.patch.dict(os.environ, {"SPANLAB_MAX_CELLS": CEILING}):
        report, code = _issue(argv)
    assert code in (0, 1, 2, 3)
    assert not _faults(report), (argv, report)


@given(batch=st.lists(requests, max_size=2))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_suite_reports(batch):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"SPANLAB_MAX_CELLS": CEILING}):
        config = os.path.join(tmp, "suite.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"requests": batch}, fh)
        report, code = _issue(["suite", "--config", config])
    assert code in (0, 1, 2, 3)
    assert not _faults(report), (batch, report)
