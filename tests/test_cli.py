"""The command-line surface: reports, exit codes, suites, determinism."""
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spanlab import cli, duality, fincat
from spanlab.cli import main, run_request
from spanlab.verdict import Verdict


def run(argv):
    return run_request(list(argv))


class TestBasics:
    def test_shapes_sigma_two(self):
        report, code = run(["shapes", "sigma", "2"])
        assert code == 0
        assert report["verdict"] == "verified"
        assert report["witness"]["object_count"] == 6

    def test_shapes_lambda_two(self):
        """The Lambda poset of [2] in the layout of shapes sigma: vertices
        (0,0), (1,1), (2,2) and edges (0,1), (1,2), each edge covering its
        two ends."""
        report, code = run(["shapes", "lambda", "2"])
        assert code == 0
        assert report["verdict"] == "verified"
        witness = report["witness"]
        assert witness["object_count"] == 5
        assert witness["arities"] == [2]
        assert witness["objects"] == [[[0, 0]], [[0, 1]], [[1, 1]], [[1, 2]], [[2, 2]]]
        assert sorted(witness["cover_relations"]) == [[1, 0], [1, 2], [3, 2], [3, 4]]
        sigma = run(["shapes", "sigma", "2"])[0]["witness"]
        assert sigma.keys() == witness.keys()

    def test_wedge(self):
        report, code = run(["shapes", "wedge", "3"])
        assert code == 0
        assert report["verdict"] == "verified"

    def test_level_counts(self):
        report, code = run(["level", "--base", "finset:1", "--arities", "1"])
        assert code == 0
        assert report["objects"] == 5

    def test_check_complete(self):
        report, code = run(["check", "complete", "--base", "finset:1"])
        assert code == 0
        assert report["verdict"] == "verified"

    def test_check_segal_small(self):
        report, code = run(["check", "segal", "--base", "finset:1", "--arities", "2"])
        assert code == 0
        assert report["details"]["mode"] == "exhaustive"

    @pytest.mark.parametrize(
        "extra",
        [["--base", "finset:3", "--samples", "0"], ["--base", "finset:2", "--bound", "-1"]],
        ids=["no-samples", "no-objects"],
    )
    def test_check_segal_no_data_inconclusive(self, extra):
        """A run that checks no data, sampled or exhaustive, verifies
        nothing."""
        report, code = run(["check", "segal", "--arities", "2", *extra])
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["details"]["data_checked"] == 0

    @pytest.mark.parametrize(
        "base, bound, enumerated",
        [("finset:2", "5", 2), ("finset:2", "1", 1), ("table", "5", None)],
        ids=["above-base", "below-base", "table-base"],
    )
    def test_check_segal_reports_the_enumerated_bound(self, tmp_path, base, bound, enumerated):
        """finset:N enumerates no object above N, and a table base
        enumerates all its objects whatever the bound."""
        if base == "table":
            base = str(tmp_path / "point.json")
            point = {"objects": ["*"], "morphisms": [{"id": "1", "src": "*", "tgt": "*"}],
                     "identities": {"*": "1"}, "compose": [["1", "1", "1"]]}
            (tmp_path / "point.json").write_text(json.dumps(point))
        report, code = run(["check", "segal", "--base", base, "--arities", "2", "--bound", bound])
        assert code == 0
        assert report["details"]["bound"] == enumerated

    def test_check_complete_integer_labels(self, tmp_path):
        """Category JSON labelled by integers: the divisor lattice of 12."""
        divisors = [1, 2, 3, 4, 6, 12]
        arrows = [(a, b) for a in divisors for b in divisors if b % a == 0]
        lattice = {
            "objects": divisors,
            "morphisms": [{"id": f"{a}|{b}", "src": a, "tgt": b} for a, b in arrows],
            "identities": {str(d): f"{d}|{d}" for d in divisors},
            "compose": [
                [f"{b}|{c}", f"{a}|{b}", f"{a}|{c}"]
                for a, b in arrows
                for b2, c in arrows
                if b2 == b
            ],
        }
        f = tmp_path / "lattice12.json"
        f.write_text(json.dumps(lattice))
        report, code = run(["check", "complete", "--base", str(f)])
        assert code == 0
        assert report["verdict"] == "verified"
        assert report["details"] == {"objects": 6, "invertible_spans": 6}

    def test_locsys_axioms(self):
        report, code = run(["locsys", "check", "--coeff", "bz2", "--kind", "axioms"])
        assert code == 0

    def test_lag_zigzag(self):
        report, code = run(["lag", "check", "--kind", "zigzag", "--dim", "2"])
        assert code == 0

    def test_certify_adjoint_span_file(self, tmp_path):
        span = {"left": 2, "apex": 3, "right": 2, "lleg": [0, 1, 1], "rleg": [0, 1, 1]}
        f = tmp_path / "span.json"
        f.write_text(json.dumps(span))
        report, code = run(["certify", "adjoint", "--base", "finset:3", "--span", str(f)])
        assert code == 0
        assert "witness_data" in report

    @pytest.mark.parametrize(
        "base, span",
        [
            ("finset:3", {"left": -1, "apex": 0, "right": 2, "lleg": [], "rleg": []}),
            ("finset:3", {"left": 2, "apex": 1, "right": 2, "lleg": [True], "rleg": [0]}),
            ("finset:3", {"left": 2, "apex": 1, "right": 2, "lleg": [0], "rleg": [0.0]}),
            ("finset:3", {"left": 2, "apex": 3, "right": 2, "lleg": [0, 1], "rleg": [0, 1, 1]}),
            ("finset:3", {"left": 2, "apex": 3, "right": 2, "lleg": [0, 1, 2], "rleg": [0, 1, 1]}),
            ("finset:3", {"left": 2, "apex": 1, "right": 2, "lleg": [0]}),
            ("finset:3", [2, 1, 2]),
            ("category", {"left": 2, "apex": 3, "right": 2, "lleg": [0, 1, 1], "rleg": [0, 1, 1]}),
        ],
        ids=["negative-size", "bool-value", "float-value", "bad-length", "out-of-range",
             "missing-leg", "not-an-object", "category-base"],
    )
    def test_certify_adjoint_bad_span_file(self, tmp_path, capsys, base, span):
        """A span file is checked where it is read: bad values, and a base
        that is not the finite sets, are usage errors with a report."""
        if base == "category":
            base = str(tmp_path / "point.json")
            point = {"objects": ["*"], "morphisms": [{"id": "1", "src": "*", "tgt": "*"}],
                     "identities": {"*": "1"}, "compose": [["1", "1", "1"]]}
            (tmp_path / "point.json").write_text(json.dumps(point))
        f = tmp_path / "span.json"
        f.write_text(json.dumps(span))
        code = main(["certify", "adjoint", "--base", base, "--span", str(f)])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "error"
        assert "span" in report["witness"]["error"]

    def test_certify_adjoint_checks_each_drawn_span_once(self, monkeypatch):
        """2,000 draws on finset:4, seed 0, hold 913 distinct spans: each is
        built and checked once, and trials still counts the draws.  Counted
        on one CPU, so that no span is checked in a worker, whose calls are
        not seen here."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rng, drawn = random.Random(0), set()
        for _ in range(2000):
            drawn.add(cli._random_span(fincat.finset(4), None, rng))
        calls, build = [], duality.build_adjunction
        monkeypatch.setattr(duality, "build_adjunction", lambda base, s: calls.append(s) or build(base, s))
        report, code = run(["certify", "adjoint", "--base", "finset:4", "--trials", "2000", "--seed", "0"])
        assert code == 0
        assert report["details"] == {"trials": 2000, "seed": 0}
        assert len(calls) == len(set(calls)) == len(drawn) == 913
        assert set(calls) == drawn

    def test_certify_adjoint_refutes_at_the_first_draw(self, monkeypatch):
        """A span drawn more than once and refuted is reported at the first
        trial that drew it."""
        rng, first, target = random.Random(0), {}, None
        for trial in range(200):
            s = cli._random_span(fincat.finset(4), None, rng)
            if s in first and target is None:
                target = s
            first.setdefault(s, trial)
        assert target is not None and first[target] > 0
        check = duality.triangle_check

        def refute_target(w):
            return Verdict.refuted(witness={"reason": "planted"}) if w.span == target else check(w)

        monkeypatch.setattr(duality, "triangle_check", refute_target)
        report, code = run(["certify", "adjoint", "--base", "finset:4", "--trials", "200", "--seed", "0"])
        assert code == 1
        assert report["witness"] == {"trial": first[target], "span": repr(target), "inner": {"reason": "planted"}}

    @pytest.mark.parametrize(
        "argv, code, sizes",
        [
            (["--base", "finset:1", "-X", "1", "-Y", "1", "--arities", "1"], 0, (5, 5)),
            (["--base", "finset:1", "-X", "1", "-Y", "1", "--arities", "2"], 0, (13, 13)),
            (["--base", "finset:1", "-X", "0", "-Y", "1", "--arities", "1"], 0, (1, 1)),
            (["--base", "finset:2", "-X", "1", "-Y", "1", "--arities", "1"], 2, None),
            (["--base", "finset:1", "-X", "1", "-Y", "1", "--arities", "1", "1"], 3, None),
        ],
        ids=["finset1-arity1", "finset1-arity2", "empty-foot", "ceiling", "two-arities"],
    )
    def test_check_mapping_arities(self, argv, code, sizes):
        """With an arity k the fiber is taken in the underlying (1, k)
        level, so both sides count k-fold spans over X x Y."""
        report, got = run(["check", "mapping", *argv])
        assert got == code
        assert report["verdict"] == {0: "verified", 2: "inconclusive", 3: "error"}[code]
        if sizes:
            details = report["details"]
            assert (details["fiber_objects"], details["slice_side_objects"]) == sizes


class TestReportSchema:
    def test_fields_present(self):
        report, _ = run(["shapes", "sigma", "1"])
        for field in ("schema", "version", "check", "request", "verdict", "witness",
                      "details", "bound", "seed", "timing"):
            assert field in report
        assert report["schema"] == "spanlab-report/1"

    def test_request_echoed(self):
        report, _ = run(["check", "complete", "--base", "finset:1", "--seed", "5"])
        assert report["request"]["base"] == "finset:1"
        assert report["request"]["seed"] == 5

    def test_json_serializable_sorted(self):
        report, _ = run(["level", "--base", "finset:1", "--arities", "1", "--json"])
        text = json.dumps(report, sort_keys=True, indent=2)
        assert json.loads(text) == report


class TestErrors:
    def test_malformed_base_exit_3(self):
        report, code = run(["check", "complete", "--base", "finset:x"])
        assert code == 3
        assert report["verdict"] == "error"

    def test_unknown_subcommand_exit_3(self):
        report, code = run(["frobnicate"])
        assert code == 3

    def test_missing_required_flag_exit_3(self):
        _, code = run(["check", "complete"])
        assert code == 3

    def test_unreadable_coefficient_file_exit_3(self, tmp_path):
        report, code = run(
            ["locsys", "check", "--coeff", str(tmp_path / "missing.json")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["shapes", "sigma", "x"],
            ["check", "segal", "--base", "finset:2", "--arities", "x"],
            ["locsys", "check", "--coeff", "discrete:x"],
            ["certify", "dual", "--base", "finset:2"],
            ["check", "mapping", "--base", "finset:2"],
            ["check", "segal", "--base", "finset:3", "--arities", "2", "--samples", "-1"],
            ["lag", "check", "--kind", "pairs", "--dim", "1", "--trials", "2"],
            ["lag", "check", "--kind", "pairs", "--trials", "-1"],
            ["certify", "adjoint", "--base", "finset:2", "--trials", "-1"],
            ["certify", "dual", "--base", "finset:2", "-X", "-1"],
            ["certify", "adjoint", "--base", "finset:2", "--bound", "-1", "--trials", "3"],
            ["check", "mapping", "--base", "finset:2", "-X", "-1", "-Y", "1"],
            ["lag", "check", "--kind", "zigzag", "--dim", "-2"],
            ["lag", "check", "--kind", "pairs", "--dim", "3", "--trials", "2"],
            ["lag", "check", "--kind", "zigzag", "--dim", "3"],
        ],
        ids=[
            "arity", "segal-arity", "coeff-size", "dual-no-X", "mapping-no-XY", "samples", "dim",
            "pairs-trials", "adjoint-trials", "dual-negative-X", "adjoint-no-objects",
            "mapping-negative-X", "zigzag-dim", "pairs-odd-dim", "zigzag-odd-dim",
        ],
    )
    def test_malformed_input_is_a_usage_error(self, argv):
        report, code = run(argv)
        assert code == 3
        assert report["verdict"] == "error"
        assert json.loads(json.dumps(report)) == report
        if "--dim" in argv:
            assert "--dim" in report["witness"]["error"]

    def test_unexpected_exception_is_an_error_report(self, monkeypatch, tmp_path):
        """A fault of the program is an exit-3 report naming the exception
        type, alone and inside a suite, never a traceback."""

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._RUNNERS, "shapes", boom)
        report, code = run(["shapes", "sigma", "2"])
        assert code == 3
        assert report["verdict"] == "error"
        assert report["witness"] == {"error": "RuntimeError: boom"}
        f = tmp_path / "suite.json"
        f.write_text(json.dumps([["shapes", "sigma", "2"], ["lag", "check", "--kind", "zigzag", "--dim", "2"]]))
        report, code = run(["suite", "--config", str(f)])
        assert code == 3
        assert report["verdict"] == "error"
        assert [r["verdict"] for r in report["reports"]] == ["error", "verified"]
        assert report["reports"][0]["witness"] == {"error": "RuntimeError: boom"}

    @pytest.mark.parametrize(
        "argv",
        [["check", "segal", "--arities", "2"], ["level", "--arities", "1"], ["check", "complete"]],
        ids=["segal", "level", "complete"],
    )
    def test_category_file_validated(self, tmp_path, argv):
        """The walking arrow without the composite (ib, f) is no category."""
        arrow = {
            "objects": ["a", "b"],
            "morphisms": [
                {"id": "ia", "src": "a", "tgt": "a"},
                {"id": "ib", "src": "b", "tgt": "b"},
                {"id": "f", "src": "a", "tgt": "b"},
            ],
            "identities": {"a": "ia", "b": "ib"},
            "compose": [["ia", "ia", "ia"], ["ib", "ib", "ib"], ["f", "ia", "f"]],
        }
        f = tmp_path / "arrow.json"
        f.write_text(json.dumps(arrow))
        report, code = run([*argv, "--base", str(f)])
        assert code == 3
        assert report["verdict"] == "error"
        assert "missing composite" in report["witness"]["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lag", "check", "--kind", "pairs", "--trials", "0"],
            ["certify", "adjoint", "--base", "finset:2", "--trials", "0"],
        ],
        ids=["pairs", "adjoint"],
    )
    def test_zero_trials_inconclusive(self, argv):
        report, code = run(argv)
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["details"]["trials"] == 0

    @pytest.mark.parametrize(
        "argv, details",
        [
            (["check", "invertible", "--base", "finset:2", "--bound", "-1"], {"spans_checked": 0}),
            (["check", "complete", "--base", "finset:2", "--bound", "-1"], {"objects": 0}),
            (["check", "mapping", "--base", "finset:3", "-X", "2", "-Y", "1", "--bound", "1"], {}),
            (["check", "mapping", "--base", "finset:2", "-X", "3", "-Y", "1"], {}),
            (["locsys", "check", "--coeff", "bz2", "--kind", "battery", "--bound", "-1"], {}),
            (["locsys", "check", "--coeff", "bz2", "--kind", "equivalence", "--bound", "-1"], {}),
        ],
        ids=["invertible-no-spans", "complete-no-objects", "mapping-feet-over-bound", "mapping-feet-over-base",
             "locsys-battery-no-spans", "locsys-equivalence-no-spans"],
    )
    def test_nothing_checked_inconclusive(self, argv, details):
        """Nothing within the bound or the feet: inconclusive, and the
        locsys checks name the bound in their reason."""
        report, code = run(argv)
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["details"] == details
        if argv[0] == "locsys":
            assert report["witness"] == {"reason": "no labeled spans within the bound -1"}

    def test_empty_level_inconclusive(self):
        """No object within --bound -1: a level with nothing in it is not
        verified."""
        report, code = run(["level", "--base", "finset:2", "--arities", "1", "--bound", "-1"])
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["witness"] == {"reason": "no diagrams within the bound"}
        assert (report["objects"], report["morphisms"]) == (0, 0)

    @pytest.mark.parametrize(
        "extra, code",
        [
            (["--coeff", "discrete:-1"], 3),
            (["--coeff", "cyclic:0"], 3),
            (["--coeff", "bz2", "--kind", "fiber", "-X", "2", "-Y", "1", "--xi", "0"], 3),
            (["--coeff", "bz2", "--kind", "fiber", "-X", "1", "--xi", "0", "0"], 3),
            (["--coeff", "bz2", "--kind", "fiber", "--xi", "5"], 3),
            (["--coeff", "bz2", "--kind", "fiber", "-X", "-1"], 3),
            (["--coeff", "bz2", "--kind", "fiber", "-X", "3", "-Y", "1", "--bound", "1"], 2),
        ],
        ids=["discrete-negative", "cyclic-zero", "xi-short", "xi-long", "xi-label", "X-negative", "feet-over-bound"],
    )
    def test_locsys_input_checked(self, extra, code):
        report, got = run(["locsys", "check", *extra])
        assert got == code
        assert report["verdict"] == ("inconclusive" if code == 2 else "error")

    def test_refuting_check_exit_1(self, tmp_path):
        # an internal category with a missing composite
        bad = {
            "C0": 1, "C1": 2, "src": [0, 0], "tgt": [0, 0], "id": [0],
            "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1]],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        report, code = run(["locsys", "check", "--coeff", str(f), "--kind", "axioms"])
        assert code == 1
        assert report["verdict"] == "refuted"

    @pytest.mark.parametrize("kind", ["axioms", "battery"])
    @pytest.mark.parametrize(
        "change, code",
        [
            ({"comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, -2]]}, 1),
            ({"comp": [[0, 0, 0], [0, 1, 5], [1, 0, 1], [1, 1, 0]]}, 1),
            ({"inv": [0]}, 1),
            ({"inv": [0, 7]}, 1),
            ({"inv": [0, -1]}, 1),
            ({"src": ["a"]}, 3),
            ({"id": [0.0]}, 3),
            ({"comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [5, 5, 0]]}, 1),
            ({"comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]}, 3),
        ],
        ids=["comp-negative", "comp-large", "inv-short", "inv-large", "inv-negative", "src-string",
             "id-float", "comp-spurious-pair", "comp-repeated-pair"],
    )
    def test_malformed_coefficient_file(self, tmp_path, change, code, kind):
        """Each of these once raised an exception other than SpanlabError,
        or was verified; each is now refuted or a usage error."""
        bz2 = {"C0": 1, "C1": 2, "src": [0, 0], "tgt": [0, 0], "id": [0],
               "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], "inv": [0, 1]}
        f = tmp_path / "coeff.json"
        f.write_text(json.dumps({**bz2, **change}))
        report, got = run(["locsys", "check", "--coeff", str(f), "--kind", kind])
        assert got == code
        assert report["verdict"] == ("refuted" if code == 1 else "error")
        assert "Error" not in json.dumps(report["witness"])

    @pytest.mark.parametrize(
        "argv", [["check", "complete"], ["check", "segal", "--arities", "2"]], ids=["complete", "segal"]
    )
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"objects": ["*", "*"]}, "repeated object label '*'"),
            ({"morphisms": [{"id": "1", "src": "*", "tgt": "*"}] * 2}, "repeated morphism id '1'"),
        ],
        ids=["object", "morphism"],
    )
    def test_repeated_label_in_category_file(self, tmp_path, argv, change, message):
        """A repeated label is a usage error, not a second object or an
        overwritten morphism."""
        point = {"objects": ["*"], "morphisms": [{"id": "1", "src": "*", "tgt": "*"}],
                 "identities": {"*": "1"}, "compose": [["1", "1", "1"]]}
        f = tmp_path / "point.json"
        f.write_text(json.dumps({**point, **change}))
        report, code = run([*argv, "--base", str(f)])
        assert code == 3
        assert message in report["witness"]["error"]


    @pytest.mark.parametrize(
        "argv",
        [["check", "complete"], ["check", "segal", "--arities", "2"], ["check", "invertible"],
         ["level", "--arities", "1"]],
        ids=["complete", "segal", "invertible", "level"],
    )
    @pytest.mark.parametrize(
        "change",
        [{"compose": [["1", "1", [0]]]}, {"identities": {"*": [0]}}],
        ids=["composite", "identity"],
    )
    def test_list_label_in_category_file(self, tmp_path, argv, change):
        """A composite or an identity given as a JSON list is a usage error
        that names the list, not an unhashable-type fault."""
        point = {"objects": ["*"], "morphisms": [{"id": "1", "src": "*", "tgt": "*"}],
                 "identities": {"*": "1"}, "compose": [["1", "1", "1"]]}
        f = tmp_path / "point.json"
        f.write_text(json.dumps({**point, **change}))
        report, code = run([*argv, "--base", str(f)])
        assert code == 3
        message = "malformed category JSON: [0] cannot label an object or a morphism"
        assert report["witness"]["error"] == message


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_request_gets_its_own_defaults(self):
        """The shared parser gives every request a fresh namespace: a seed
        given to one request is not the next request's default."""
        argv = ["check", "segal", "--base", "finset:1", "--arities", "2"]
        first, _ = run([*argv, "--seed", "5"])
        second, code = run(argv)
        assert (first["seed"], second["seed"], code) == (5, 0, 0)
        assert second["request"] == {**first["request"], "seed": 0}

    @pytest.mark.parametrize(
        "bad", [["check", "frobnicate"], ["check", "segal", "--base", "finset:1", "--arities", "x"]],
        ids=["parse", "value"],
    )
    def test_usage_error_after_a_good_request(self, bad):
        """A usage error that follows a good request is still an exit-3
        error report."""
        _, code = run(["check", "segal", "--base", "finset:1", "--arities", "2"])
        assert code == 0
        report, code = run(bad)
        assert (code, report["verdict"]) == (3, "error")


class TestResourceCeiling:
    @pytest.mark.parametrize("value", ["-5", "abc"])
    def test_bad_ceiling_is_a_usage_error(self, value, monkeypatch):
        """A SPANLAB_MAX_CELLS that is negative or not an integer is a usage
        error that names the variable, not a verdict or a program fault."""
        monkeypatch.setenv("SPANLAB_MAX_CELLS", value)
        report, code = run(["check", "segal", "--base", "finset:2", "--arities", "2"])
        assert code == 3
        assert report["verdict"] == "error"
        assert report["witness"]["error"] == f"SPANLAB_MAX_CELLS must be an integer at least 0, got {value!r}"

    def test_zero_ceiling_samples(self, monkeypatch):
        """A ceiling of 0 is valid: no datum fits, so the check samples."""
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "0")
        report, code = run(["check", "segal", "--base", "finset:2", "--arities", "2"])
        assert code == 0
        assert report["details"]["mode"] == "sampled"
        assert report["details"]["data_checked"] == 24

    def test_tiny_ceiling_is_inconclusive(self, monkeypatch):
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "2")
        report, code = run(["level", "--base", "finset:1", "--arities", "1"])
        assert code == 2
        assert report["verdict"] == "inconclusive"

    def test_level_table_over_the_ceiling_is_inconclusive(self, monkeypatch):
        """The level's 43 data fit under the ceiling, but its composition
        table of 1,273 composable pairs does not."""
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "1000")
        argv = ["level", "--base", "finset:2", "--arities", "1"]
        report, code = run(argv)
        assert code == 0
        assert report["objects"] == 43
        report, code = run([*argv, "--json"])
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert "1273 pairs" in report["witness"]["reason"]
        assert "groupoid" not in report

    @pytest.mark.parametrize(
        "argv",
        [["shapes", "wedge", "400"], ["check", "segal", "--base", "finset:1", "--arities", "120"]],
        ids=["wedge", "segal"],
    )
    def test_shape_over_the_order_bound_is_inconclusive(self, argv):
        """A shape whose order would hold more than 10^6 pairs is refused
        before it is built."""
        start = time.monotonic()
        report, code = run(argv)
        assert time.monotonic() - start < 1
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert "pairs" in report["witness"]["reason"]


class TestSuite:
    def test_empty_suite(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"requests": []}))
        report, code = run(["suite", "--config", str(f)])
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["reports"] == []

    def test_aggregates_worst_exit(self, tmp_path):
        bad = {
            "C0": 1, "C1": 2, "src": [0, 0], "tgt": [0, 0], "id": [0],
            "comp": [[0, 0, 0], [0, 1, 1], [1, 0, 1]],
        }
        badfile = tmp_path / "bad.json"
        badfile.write_text(json.dumps(bad))
        config = {
            "requests": [
                ["shapes", "sigma", "2"],
                ["locsys", "check", "--coeff", str(badfile), "--kind", "axioms"],
            ]
        }
        f = tmp_path / "suite.json"
        f.write_text(json.dumps(config))
        report, code = run(["suite", "--config", str(f)])
        assert code == 1
        assert report["verdict"] == "refuted"
        assert len(report["reports"]) == 2
        assert report["reports"][0]["verdict"] == "verified"
        assert report["reports"][1]["verdict"] == "refuted"

    def test_runs_requests_in_order(self, tmp_path):
        """Requests run one after another: the reports come back in request
        order, and their timings add up to no more than the suite's wall."""
        zigzag = ["lag", "check", "--kind", "zigzag", "--dim", "12"]
        f = tmp_path / "suite.json"
        f.write_text(json.dumps([[*zigzag, "--seed", "1"], [*zigzag, "--seed", "2"]]))
        start = time.monotonic()
        report, code = run(["suite", "--config", str(f)])
        wall = time.monotonic() - start
        assert code == 0
        assert [r["seed"] for r in report["reports"]] == [1, 2]
        assert sum(r["timing"] for r in report["reports"]) <= wall

    def test_bare_list_config(self, tmp_path):
        f = tmp_path / "bare.json"
        f.write_text(json.dumps([["shapes", "sigma", "1"]]))
        report, code = run(["suite", "--config", str(f)])
        assert code == 0

    def test_nested_suite_rejected(self, tmp_path):
        """The inner suite is finite, so this ends even if nesting were
        allowed; it must be refused before any request runs."""
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps([["shapes", "sigma", "1"]]))
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps([["shapes", "sigma", "1"], ["suite", "--config", str(inner)]]))
        report, code = run(["suite", "--config", str(outer)])
        assert code == 3
        assert report["verdict"] == "error"
        assert "reports" not in report

    def test_malformed_config(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"requests": "not-a-list"}))
        _, code = run(["suite", "--config", str(f)])
        assert code == 3


class TestDeterminism:
    def test_reports_identical_modulo_timing(self):
        argv = ["check", "segal", "--base", "finset:1", "--arities", "2", "--seed", "3"]
        r1, c1 = run(argv)
        r2, c2 = run(argv)
        assert c1 == c2
        r1.pop("timing")
        r2.pop("timing")
        assert r1 == r2


class TestByteStability:
    def test_level_json_report_hash(self):
        """The full level tables, pinned byte for byte: hom order,
        composite order, identities and inverses all reach this report."""
        report, code = run(["level", "--base", "finset:2", "--arities", "1", "--json"])
        assert code == 0
        report.pop("timing")
        text = json.dumps(report, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2e8b857544f0214dfc4d124dd2638af5db2fc5551b1b9e419ad1d4e4ad1aa43a"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["check", "mapping", "--base", "finset:2", "-X", "2", "-Y", "2"],
                "eefeb4ec70de52d9bf7c15cca8d9422671cab9f80e7b57e86db6f845bb8a0234",
            ),
            (
                ["check", "mapping", "--base", "finset:3", "-X", "2", "-Y", "1"],
                "6e652bd75a706c335b2ce1c1ec6551a40d73c4a287aad6968cffad382d0bb592",
            ),
            (
                ["check", "complete", "--base", "finset:3"],
                "d076795262b0c921de01263e7d8f4b4ddf45c223b50459b5b51a0c3bc04f12da",
            ),
            (
                ["certify", "dual", "--base", "finset:4", "-X", "3"],
                "a1b5d7a1b936940d9568a464844cbae77f46b89e997cd473e047b1ef91bdf26c",
            ),
            (
                ["locsys", "check", "--coeff", "cyclic:4", "--kind", "battery"],
                "7af1361275ba012a6e120dc9e07249dbf6e70292bcface1b2d72a8fd2c33ec0b",
            ),
            (
                ["locsys", "check", "--coeff", "bz2", "--kind", "equivalence", "--bound", "2"],
                "495a9a994342fe3fe0bb6ab6e6e4527a0c7f51b995d0332a1234724aaceedb3f",
            ),
            (
                ["lag", "check", "--kind", "pairs", "--trials", "20", "--dim", "6", "--seed", "0"],
                "fff9a39603e7d3001096f18ff9ae250ae41474022f869c6232620086493bed1f",
            ),
            (
                ["lag", "check", "--kind", "zigzag", "--dim", "12"],
                "d6273f813e5e011d78957f6cce7c6c09ec280fbfe00cb736da417d9ef77473ba",
            ),
            (
                ["certify", "adjoint", "--base", "finset:4", "--trials", "200", "--seed", "0"],
                "063d55f106ddb5fbfdf070c65f3065da945551ada0a60eb505973d435d32a9f1",
            ),
            (
                ["check", "segal", "--base", "finset:2", "--arities", "2", "2", "--samples", "48", "--seed", "0"],
                "d445dd716b239d5998ebcb9818c6fbd18b27f913b6497dc0110e9e728ccfb402",
            ),
            (
                ["certify", "adjoint", "--base", "finset:4", "--trials", "300", "--seed", "1"],
                "a2d0fee290e9719703fb67fc68c7c86ee5395e2f1d0aa0c5e6c65fd193acf8dc",
            ),
            (
                ["check", "invertible", "--base", "finset:3"],
                "9c7aea9cf94d2f34fb906e85369cc343d1d218300838cd254e88a11b54eff125",
            ),
            (
                ["locsys", "check", "--coeff", "arrow", "--kind", "equivalence", "--bound", "2"],
                "baa4c8f5053b6734dfffd3503df8e348015946801c12d72996874f4d51f2db63",
            ),
            (
                ["locsys", "check", "--coeff", "cyclic:4", "--kind", "fiber", "-X", "2", "-Y", "1", "--bound", "2"],
                "20aab54da6b3c92eea468bf6d52e58187cf21764f2e77041732d7d714652b860",
            ),
            (
                ["locsys", "check", "--coeff", "arrow", "--kind", "battery"],
                "6d05c76d44c01e24744ea04133ee8a4ae31f8bd18d4ca020972c61a51f7dac59",
            ),
        ],
        ids=["mapping", "mapping-finset3", "complete", "dual", "battery", "equivalence", "pairs", "zigzag",
             "adjoint", "segal-sampled", "adjoint-seed1", "invertible", "equivalence-arrow", "fiber-cyclic4",
             "battery-arrow"],
    )
    def test_report_hash(self, argv, digest):
        """Reports of the functor, pairing, pullback, reversal, limit and
        factorization, and Lagrangian paths, pinned byte for byte."""
        report, code = run(argv)
        assert code == 0
        report.pop("timing")
        text = json.dumps(report, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestMain:
    def test_prints_report_and_writes_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["shapes", "sigma", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["verdict"] == "verified"
        assert json.loads(out.read_text())["verdict"] == "verified"

    @pytest.mark.parametrize("spelling", [["--out={}"], ["--ou", "{}"]], ids=["equals", "prefix"])
    def test_out_spellings(self, tmp_path, capsys, spelling):
        """Every spelling of --out that the parser accepts writes the file."""
        out = tmp_path / "report.json"
        code = main(["shapes", "sigma", "1", *(a.format(out) for a in spelling)])
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    def test_closed_pipe_ends_quietly(self):
        """A reader that closes stdout after 100 bytes of a 15 MB report
        gets no traceback on stderr, and the exit code is a verdict's."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["level", "--base", "finset:2", "--arities", "1", "--json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "spanlab.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
        assert b"Traceback" not in err
        assert code in (0, 1, 2, 3)

    def test_usage_error_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["shapes", "nosuchkind", "1", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["verdict"] == "error"
