"""Command-line surface: JSON ingestion, check dispatch, report emission.

Every invocation prints one JSON report and exits 0 (verified), 1
(refuted), 2 (inconclusive / resource ceiling), or 3 (schema or usage
error).  Reports embed the bound and seed used so truncation-sensitive
claims are never unqualified; reruns with equal request and seed reproduce
the report byte-for-byte apart from the timing field.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from collections import Counter

from . import __version__, duality, lagrangian, locsys, shapes, spans
from .fincat import FinCategory, FinFunction, FinSetCategory, finset
from .verdict import EXIT_CODES, ResourceError, SpanlabError, Verdict, _jsonable

SCHEMA = "spanlab-report/1"


def _parse_base(spec: str):
    if spec.startswith("finset:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise SpanlabError(f"bad base spec {spec!r}") from exc
        if n < 0:
            raise SpanlabError(f"bad base spec {spec!r}")
        return finset(n)
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpanlabError(f"cannot read base file {spec!r}: {exc}") from exc
    base = FinCategory.from_json(data)
    v = base.validate()
    if not v:
        raise SpanlabError(f"base file {spec!r} is not a category: {v.witness}")
    return base


def _to_int(text) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SpanlabError(f"expected an integer, got {text!r}") from exc


def _at_least(least, n, what) -> int:
    if n < least:
        raise SpanlabError(f"{what} must be at least {least}, got {n}")
    return n


def _parse_object(base, label):
    if label is None:
        raise SpanlabError("an object label (-X, -Y) is required")
    if isinstance(base, FinCategory):
        for x in base.objects:
            if str(x) == str(label):
                return x
        raise SpanlabError(f"no object labeled {label!r}")
    try:
        n = int(label)
    except ValueError as exc:
        raise SpanlabError(f"finite-set objects are integers, got {label!r}") from exc
    return _at_least(0, n, "a finite-set object")


def _parse_coefficients(spec: str) -> locsys.InternalCategory:
    if spec.startswith("discrete:"):
        return locsys.discrete_internal(_at_least(0, _to_int(spec.split(":", 1)[1]), "discrete size"))
    if spec.startswith("cyclic:"):
        return locsys.cyclic_internal(_at_least(1, _to_int(spec.split(":", 1)[1]), "cyclic order"))
    if spec == "bz2":
        return locsys.cyclic_internal(2)
    if spec == "bz3":
        return locsys.cyclic_internal(3)
    if spec == "arrow":
        return locsys.walking_arrow_internal()
    try:
        with open(spec, encoding="utf-8") as fh:
            return locsys.InternalCategory.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise SpanlabError(f"cannot read coefficients {spec!r}: {exc}") from exc


def _parse_span(path: str, base) -> spans.Span:
    """The span of finite sets in a JSON file with sizes left, apex, right
    and value lists lleg, rleg."""
    if not isinstance(base, FinSetCategory):
        raise SpanlabError("a --span file holds finite-set functions and needs a finset:N base")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        left, apex, right = data["left"], data["apex"], data["right"]
        lleg = FinFunction.checked(apex, left, data["lleg"])
        rleg = FinFunction.checked(apex, right, data["rleg"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, SpanlabError) as exc:
        raise SpanlabError(f"cannot read span file {path!r}: {exc}") from exc
    return spans.Span(left, lleg, apex, rleg, right)


def _random_span(base, bound, rng: random.Random) -> spans.Span:
    objs = list(base.objects_within(bound))
    if not objs:
        raise SpanlabError(f"no objects within --bound {bound} to sample spans from")
    while True:
        X = rng.choice(objs)
        Y = rng.choice(objs)
        A = rng.choice(objs)
        lleg = base.random_hom(A, X, rng)
        rleg = base.random_hom(A, Y, rng)
        if lleg is not None and rleg is not None:
            return spans.Span(X, lleg, A, rleg, Y)


def _int_list(values):
    return tuple(_to_int(v) for v in values)


def _foot_labels(flag, size, values, C: locsys.InternalCategory):
    """The labels of a foot of the given size: values, or all 0 when none
    are given, each an object of C."""
    _at_least(0, size, "a foot size")
    labels = _int_list(values) if values else (0,) * size
    if len(labels) != size or not all(0 <= v < C.C0 for v in labels):
        raise SpanlabError(f"{flag} must give {size} labels in range({C.C0}), got {list(labels)}")
    return labels


# ---------------------------------------------------------------------------
# dispatch


def _run_shapes(args) -> tuple[Verdict, dict]:
    arities = _int_list(args.arities)
    if args.kind == "wedge":
        if len(arities) != 1:
            raise SpanlabError("wedge takes a single arity")
        return shapes.lambda_wedge_check(arities[0]), {}
    if args.kind == "sigma":
        shape = shapes.sigma_shape(arities)
    else:
        if len(arities) != 1:
            raise SpanlabError("lambda takes a single arity")
        shape = shapes.lambda_shape(arities[0])
    payload = shape.to_json()
    payload["object_count"] = len(shape.objects)
    return Verdict.verified(witness=payload), {}


def _run_level(args) -> tuple[Verdict, dict]:
    base = _parse_base(args.base)
    lvl = spans.span_level(base, _int_list(args.arities), bound=args.bound)
    morphs = lvl.all_morphisms()
    extra = {"objects": len(lvl.objects), "morphisms": len(morphs)}
    if args.json:
        # the composition table pairs each f with every g out of its target
        out_degree = Counter(x for x, _, _ in morphs)
        pairs = sum(out_degree[y] for _, y, _ in morphs)
        ceiling = spans.enumeration_ceiling()
        if pairs > ceiling:
            raise ResourceError(f"the composition table of {pairs} pairs exceeds the ceiling {ceiling}")
        extra["groupoid"] = _jsonable(lvl.to_json())
    if not lvl.objects:
        return Verdict.inconclusive(witness={"reason": "no diagrams within the bound"}), extra
    return Verdict.verified(witness={"objects": extra["objects"], "morphisms": extra["morphisms"]}), extra


def _run_check(args) -> tuple[Verdict, dict]:
    base = _parse_base(args.base)
    if args.which == "segal":
        return (
            spans.segal_check(
                base,
                _int_list(args.arities),
                bound=args.bound,
                seed=args.seed,
                samples=_at_least(0, args.samples, "--samples"),
            ),
            {},
        )
    if args.which == "complete":
        return spans.completeness_check(base, bound=args.bound), {}
    if args.which == "invertible":
        return spans.invertible_span_check(base, bound=args.bound), {}
    if args.which == "mapping":
        X = _parse_object(base, args.X)
        Y = _parse_object(base, args.Y)
        return (
            spans.mapping_category_check(base, X, Y, arities=_int_list(args.arities), bound=args.bound),
            {},
        )
    raise SpanlabError(f"unknown check {args.which!r}")


def _run_certify(args) -> tuple[Verdict, dict]:
    base = _parse_base(args.base)
    if args.which == "dual":
        X = _parse_object(base, args.X)
        return duality.object_duality_check(base, X), {}
    if args.which == "adjoint":
        if args.span:
            w = duality.build_adjunction(base, _parse_span(args.span, base))
            return duality.triangle_check(w), {"witness_data": w.to_json()}
        # The check is a function of (base, span) alone, so each distinct
        # span is checked once.  Every trial is drawn first: first maps the
        # distinct spans, in draw order, to the first trial that drew each,
        # and they are checked in shares (fanout.first_failure), so the
        # first refuting span in draw order is reported, at that trial.
        from .fanout import first_failure, share_count

        rng, first = random.Random(args.seed), {}
        for trial in range(_at_least(0, args.trials, "--trials")):
            first.setdefault(_random_span(base, args.bound, rng), trial)

        def check(i, s):
            v = duality.triangle_check(duality.build_adjunction(base, s))
            return v or Verdict.refuted(witness={"trial": first[s], "span": repr(s), "inner": v.witness})

        failure = first_failure(lambda: first, check, shares=share_count(len(first)))
        if failure is not None:
            return failure, {}
        details = dict(trials=args.trials, seed=args.seed)
        if not args.trials:
            return Verdict.inconclusive(witness={"reason": "no spans were sampled"}, **details), {}
        return Verdict.verified(**details), {}
    raise SpanlabError(f"unknown certification {args.which!r}")


def _run_locsys(args) -> tuple[Verdict, dict]:
    C = _parse_coefficients(args.coeff)
    if args.kind == "axioms":
        return locsys.validate_internal(C), {}
    if args.kind == "battery":
        return locsys.locsys_battery_check(C, bound=args.bound), {}
    if args.kind == "equivalence":
        return locsys.locsys_equivalence_check(C, bound=args.bound), {}
    if args.kind == "fiber":
        xi = _foot_labels("--xi", args.X, args.xi, C)
        eta = _foot_labels("--eta", args.Y, args.eta, C)
        return (
            locsys.locsys_mapping_fiber_check(C, args.X, xi, args.Y, eta, bound=args.bound),
            {},
        )
    raise SpanlabError(f"unknown locsys check {args.kind!r}")


def _run_lag(args) -> tuple[Verdict, dict]:
    if args.dim % 2:
        raise SpanlabError(f"--dim must be even (a symplectic dimension), got {args.dim}")
    if args.kind == "pairs":
        if args.dim < 2:
            raise SpanlabError("--dim must be at least 2 for pairs")
        trials = _at_least(0, args.trials, "--trials")
        return lagrangian.random_pair_check(trials=trials, max_dim=args.dim, seed=args.seed), {}
    if args.kind == "zigzag":
        return lagrangian.duality_zigzag_check(_at_least(0, args.dim, "--dim")), {}
    raise SpanlabError(f"unknown lagrangian check {args.kind!r}")


_RUNNERS = {
    "shapes": _run_shapes,
    "level": _run_level,
    "check": _run_check,
    "certify": _run_certify,
    "locsys": _run_locsys,
    "lag": _run_lag,
}


# ---------------------------------------------------------------------------
# reports


def _report(check_name, request, verdict: Verdict, extra, elapsed) -> dict:
    body = verdict.to_json()
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "check": check_name,
        "request": request,
        "verdict": body["verdict"],
        "witness": body["witness"],
        "details": body["details"],
        "bound": request.get("bound"),
        "seed": request.get("seed"),
        "timing": elapsed,
    }
    report.update(extra)
    return report


def _request_echo(args) -> dict:
    skip = {"command", "out", "json"}
    return {
        k: (list(v) if isinstance(v, (list, tuple)) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The request parser, built once per process: parse_args reads it and
    gives each request a fresh namespace of its own defaults."""
    p = argparse.ArgumentParser(prog="spanlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("shapes", help="emit shape posets or run the wedge count check")
    sp.add_argument("kind", choices=["sigma", "lambda", "wedge"])
    sp.add_argument("arities", nargs="+")
    sp.add_argument("--out")

    lv = sub.add_parser("level", help="enumerate a level groupoid")
    lv.add_argument("--base", required=True)
    lv.add_argument("--arities", nargs="+", required=True)
    lv.add_argument("--bound", type=int, default=None)
    lv.add_argument("--json", action="store_true", help="embed the full groupoid tables")
    lv.add_argument("--out")

    ck = sub.add_parser("check", help="run a verification battery")
    ck.add_argument("which", choices=["segal", "complete", "mapping", "invertible"])
    ck.add_argument("--base", required=True)
    ck.add_argument("--arities", nargs="*", default=[])
    ck.add_argument("--bound", type=int, default=None)
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--samples", type=int, default=24)
    ck.add_argument("-X", default=None)
    ck.add_argument("-Y", default=None)
    ck.add_argument("--out")

    ce = sub.add_parser("certify", help="certify adjunction or duality data")
    ce.add_argument("which", choices=["adjoint", "dual"])
    ce.add_argument("--base", required=True)
    ce.add_argument("--bound", type=int, default=None)
    ce.add_argument("--seed", type=int, default=0)
    ce.add_argument("--trials", type=int, default=1)
    ce.add_argument("--span", default=None, help="JSON file with a finite-set span")
    ce.add_argument("-X", default=None)
    ce.add_argument("--out")

    lc = sub.add_parser("locsys", help="labeled-span checks")
    lc.add_argument("action", choices=["check"])
    lc.add_argument("--coeff", required=True)
    lc.add_argument("--kind", choices=["axioms", "battery", "equivalence", "fiber"], default="axioms")
    lc.add_argument("--bound", type=int, default=1)
    lc.add_argument("-X", type=int, default=1)
    lc.add_argument("-Y", type=int, default=1)
    lc.add_argument("--xi", nargs="*", default=None)
    lc.add_argument("--eta", nargs="*", default=None)
    lc.add_argument("--out")

    lg = sub.add_parser("lag", help="linear correspondence checks")
    lg.add_argument("action", choices=["check"])
    lg.add_argument("--kind", choices=["pairs", "zigzag"], default="pairs")
    lg.add_argument("--dim", type=int, default=12)
    lg.add_argument("--trials", type=int, default=100)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--out")

    su = sub.add_parser("suite", help="run a config file of requests")
    su.add_argument("--config", required=True)
    su.add_argument("--out")
    return p


def run_request(argv) -> tuple[dict, int]:
    """Run one CLI-style request, returning (report, exit code); never
    raises: an unexpected exception is an exit-3 error report."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return {"schema": SCHEMA, "verdict": "error", "witness": {"argv": list(argv)}}, 3
    if args.command == "suite":
        return _run_suite(args)
    start = time.monotonic()
    try:
        verdict, extra = _RUNNERS[args.command](args)
    except ResourceError as exc:
        verdict, extra = Verdict.inconclusive(witness={"reason": str(exc)}), {}
    except Exception as exc:
        # anything but a SpanlabError is a fault of the program; it is
        # still one report, named by its type, and never a traceback
        error = str(exc) if isinstance(exc, SpanlabError) else f"{type(exc).__name__}: {exc}"
        report = _report(
            args.command,
            _request_echo(args),
            Verdict("error", witness={"error": error}),
            {},
            time.monotonic() - start,
        )
        return report, 3
    report = _report(args.command, _request_echo(args), verdict, extra, time.monotonic() - start)
    return report, EXIT_CODES[verdict.status]


def _run_suite(args) -> tuple[dict, int]:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        requests = config["requests"] if isinstance(config, dict) else config
        if not isinstance(requests, list) or not all(
            isinstance(r, list) and all(isinstance(a, str) for a in r) for r in requests
        ):
            raise SpanlabError("config must be a list of argv lists")
        if any(r[:1] == ["suite"] for r in requests):
            raise SpanlabError("a suite cannot contain a suite request")
    except (OSError, json.JSONDecodeError, KeyError, SpanlabError) as exc:
        return {"schema": SCHEMA, "verdict": "error", "witness": {"error": str(exc)}}, 3
    if not requests:
        worst = EXIT_CODES["inconclusive"]
        return {
            "schema": SCHEMA,
            "version": __version__,
            "verdict": "inconclusive",
            "witness": {"reason": "the suite holds no requests"},
            "reports": [],
            "worst_exit": worst,
        }, worst
    results = [run_request(r) for r in requests]
    worst = max(code for _, code in results)
    verdict = next(k for k, v in EXIT_CODES.items() if v == worst)
    summary = {
        "schema": SCHEMA,
        "version": __version__,
        "verdict": verdict,
        "worst_exit": worst,
        "reports": [rep for rep, _ in results],
    }
    return summary, worst


def _out_path(argv):
    """The --out file in argv, or None, read by the request parser's rules
    (--out FILE, --out=FILE or a prefix such as --ou FILE).  It is read
    apart from the request, so that a usage-error report is written too."""
    p = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    p.add_argument("--out")
    try:
        return p.parse_known_args(argv)[0].out
    except argparse.ArgumentError:
        return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, code = run_request(argv)
    text = json.dumps(report, sort_keys=True, indent=2)
    out = _out_path(argv)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left early: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
