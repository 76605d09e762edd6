"""Random requests over the CLI's subcommand grammar, and random coefficient
and category files, small enough to run in seconds: every request must
print one JSON report with an exit code in {0, 1, 2, 3}, no program fault,
and no verified verdict that checked nothing."""
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
from spanlab.locsys import cyclic_internal, discrete_internal, walking_arrow_internal

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


def _arrow(a, b, f):
    """The category file of the walking arrow f: a -> b."""
    return {
        "objects": [a, b],
        "morphisms": [{"id": "ia", "src": a, "tgt": a}, {"id": "ib", "src": b, "tgt": b}, {"id": f, "src": a, "tgt": b}],
        "identities": {str(a): "ia", str(b): "ib"},
        "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"], [f, "ia", f], ["ib", f, f]],
    }


COEFFICIENT_FILES = [C.to_json() for C in (cyclic_internal(2), walking_arrow_internal(), discrete_internal(2))]
CATEGORY_FILES = [_arrow("a", "b", "f"), _arrow(0, 1, "f")]
# what a drawn place of a file is set to: integers in and out of range, and
# values of the wrong type
VALUES = st.one_of(st.integers(-2, 5), st.sampled_from([0.0, "a", True, None, [0]]))


def _places(node):
    """Every (list or dict, index or key) in a JSON document."""
    keys = range(len(node)) if isinstance(node, list) else node if isinstance(node, dict) else ()
    for k in keys:
        yield node, k
        yield from _places(node[k])


@st.composite
def mutated(draw, files):
    """One of files with one value replaced, or one list entry dropped or
    repeated."""
    data = json.loads(json.dumps(draw(st.sampled_from(files))))
    node, k = draw(st.sampled_from(list(_places(data))))
    how = draw(st.sampled_from(["replace", "drop", "repeat"]))
    if how == "replace":
        node[k] = draw(VALUES)
    elif how == "drop":
        del node[k]
    elif isinstance(node, list):
        node.insert(k, node[k])
    return data


coefficient_files = st.tuples(
    mutated(COEFFICIENT_FILES), st.sampled_from(["axioms", "battery", "equivalence", "fiber"])
).map(lambda t: (t[0], ["locsys", "check", "--coeff", "{file}", "--kind", t[1], "--bound", "1"]))
category_files = st.tuples(
    mutated(CATEGORY_FILES),
    st.sampled_from([["check", "complete"], ["check", "invertible"], ["check", "segal", "--arities", "2"],
                     ["level", "--arities", "1"], ["certify", "adjoint", "--trials", "2"]]),
).map(lambda t: (t[0], [*t[1], "--base", "{file}"]))

# files that raised an exception other than SpanlabError or were verified:
# among them category files with a repeated object label, or with a JSON
# list for a composite or an identity
_C = COEFFICIENT_FILES[0]
_locsys = lambda kind: ["locsys", "check", "--coeff", "{file}", "--kind", kind]
SEEDS = [
    ({**_C, "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, -2]]}, _locsys("battery")),
    ({**_C, "comp": [[0, 0, 0], [0, 1, 5], [1, 0, 1], [1, 1, 0]]}, _locsys("axioms")),
    ({**_C, "inv": [0]}, _locsys("axioms")),
    ({**_C, "inv": [0, 7]}, _locsys("battery")),
    ({**_C, "inv": [0, -1]}, _locsys("axioms")),
    ({**_C, "src": ["a"]}, _locsys("axioms")),
    ({**_C, "id": [0.0]}, _locsys("battery")),
    ({**_C, "comp": [*_C["comp"], [5, 5, 0]]}, _locsys("axioms")),
    ({**CATEGORY_FILES[0], "objects": ["a", "a", "b"]}, ["check", "complete", "--base", "{file}"]),
    (
        {**CATEGORY_FILES[0], "compose": [
            ["ia", "ia", "ia"], ["ib", "ib", "ib"], ["f", "ia", [0]], ["ib", "f", "f"]
        ]},
        ["check", "segal", "--arities", "2", "--base", "{file}"],
    ),
    (
        {**CATEGORY_FILES[0], "identities": {"a": [0], "b": "ib"}},
        ["level", "--arities", "1", "--base", "{file}"],
    ),
]


@given(case=st.one_of(coefficient_files, category_files))
@settings(max_examples=150, deadline=None)
def test_every_input_file_reports(case):
    data, argv = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"SPANLAB_MAX_CELLS": CEILING}):
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        report, code = _issue([a.replace("{file}", path) for a in argv])
    assert code in (0, 1, 2, 3)
    assert not _faults(report), (data, argv, report)


for _case in SEEDS:
    test_every_input_file_reports = example(case=_case)(test_every_input_file_reports)


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
