"""The benchmark's workloads: generated inputs, requests and expected results.

A workload is a fixed list of CLI requests issued one after another.  The
seed feeds every ``--seed`` and relabels and row-shuffles the lattice
inputs without changing their shape, so the work size does not depend on
it.  The requests that fail because of a known program fault take inputs
that do not depend on the seed, so they fail on every run.

Expected results come from ``oracles`` and from the paper's theorems (the
Segal condition, completeness, the mapping-fiber comparison, adjoints and
duals all hold, so every check is expected to verify); none is a stored
copy of the program's output.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles as o

WORKLOADS = ("segal", "groupoids", "composition", "suite")

# Input file names, relative to the run's working directory.
LATTICE_30 = "lattice30.json"
LATTICE_12 = "lattice12.json"
LATTICE_12_INT = "lattice12-int.json"
SUITE_CONFIG = "suite.json"


@dataclass
class Expect:
    """The expected outcome of one request.

    fields maps a dotted path into the report to its expected value;
    inner holds the expectations for a suite's reports, in order."""

    exit: int = 0
    verdict: str = "verified"
    fields: dict = field(default_factory=dict)
    inner: list = field(default_factory=list)
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# inputs


def divisor_lattice(n: int, rng: random.Random | None) -> dict:
    """The divisors of n as a category JSON (one morphism d -> e when d
    divides e).  With an rng, objects get fresh string labels and the
    morphism, identity and composition rows are shuffled; the object list
    keeps divisor order, so cone searches visit apexes in the same order
    on every seed.  Without one, objects are labelled by the integers
    themselves and rows keep their natural order."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    arrows = [(a, b) for a in divisors for b in divisors if b % a == 0]
    if rng is None:
        label = {d: d for d in divisors}
        mid = {ab: f"{ab[0]}|{ab[1]}" for ab in arrows}
    else:
        label = dict(zip(divisors, (f"o{k}" for k in rng.sample(range(1000, 10000), len(divisors)))))
        mid = dict(zip(arrows, (f"m{k}" for k in rng.sample(range(1000, 10000), len(arrows)))))
    morphisms = [{"id": mid[(a, b)], "src": label[a], "tgt": label[b]} for a, b in arrows]
    identities = [(str(label[d]), mid[(d, d)]) for d in divisors]
    compose = [
        [mid[(b, c)], mid[(a, b)], mid[(a, c)]]
        for a, b in arrows
        for b2, c in arrows
        if b2 == b
    ]
    if rng is not None:
        for rows in (morphisms, identities, compose):
            rng.shuffle(rows)
    return {
        "objects": [label[d] for d in divisors],
        "morphisms": morphisms,
        "identities": dict(identities),
        "compose": compose,
    }


def suite_requests(seed: int):
    """The suite's two inner requests, of similar length.  The Segal check
    is exhaustive (971 data are fewer than the program's sampling
    threshold), so the seed reaches its report but not its work: sampled
    data differ in size, and 128 of them took 1.0 s to 1.6 s by seed."""
    return [
        ["check", "segal", "--base", "finset:2", "--arities", "2", "--samples", "48", "--seed", str(seed)],
        ["lag", "check", "--kind", "zigzag", "--dim", "16"],
    ]


def inputs(workload: str, seed: int) -> dict:
    """File name -> JSON document for the workload's generated inputs."""
    rng = random.Random(seed)
    if workload == "segal":
        return {LATTICE_30: divisor_lattice(30, rng)}
    if workload == "groupoids":
        return {LATTICE_12: divisor_lattice(12, rng), LATTICE_12_INT: divisor_lattice(12, None)}
    if workload == "suite":
        return {SUITE_CONFIG: {"requests": suite_requests(seed)}}
    return {}


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    for name, doc in inputs(workload, seed).items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# requests and their expected results


def _segal(base, arities, expect_fields, extra=()):
    argv = ["check", "segal", "--base", base, "--arities", *map(str, arities), *extra]
    return argv, Expect(fields=expect_fields)


def _workload_segal(seed: int):
    s = str(seed)
    fin1 = ([0, 1], o.finset1_leq)
    reqs = [
        _segal("finset:2", (2,), {"details.mode": "exhaustive", "details.data_checked": o.lambda_data_count(2, 2)}),
        _segal("finset:1", (2, 1), {"details.mode": "exhaustive", "details.data_checked": o.poset_level_count((2, 1), *fin1)}),
        _segal("finset:1", (5,), {"details.mode": "exhaustive", "details.data_checked": o.poset_level_count((5,), *fin1)}),
        _segal(LATTICE_30, (2,), {"details.mode": "exhaustive", "details.data_checked": o.poset_level_count((2,), *o.divisor_poset(30))}),
        _segal("finset:2", (2, 2), {"details.mode": "sampled", "details.data_checked": 48, "details.seed": seed}, ("--samples", "48", "--seed", s)),
        _segal("finset:3", (3,), {"details.mode": "sampled", "details.data_checked": 48, "details.seed": seed}, ("--samples", "48", "--seed", s)),
    ]
    fault = (
        ["check", "segal", "--base", "finset:3", "--arities", "2", "--samples", "0"],
        Expect(
            exit=2,
            verdict="inconclusive",
            known_fault="zero sampled data is reported as verified, not inconclusive",
        ),
    )
    return reqs + [fault]


def _level(base, arities, objects, morphisms):
    argv = ["level", "--base", base, "--arities", *map(str, arities)]
    counts = {"objects": objects, "morphisms": morphisms}
    fields = {**counts, **{f"witness.{k}": v for k, v in counts.items()}}
    return argv, Expect(fields=fields)


def _workload_groupoids(seed: int):
    fin1 = ([0, 1], o.finset1_leq)
    lattice12 = o.poset_level_count((2,), *o.divisor_poset(12))
    reqs = [
        # finset:1 and the lattice are posets: only identity isomorphisms.
        _level("finset:1", (5,), o.poset_level_count((5,), *fin1), o.poset_level_count((5,), *fin1)),
        _level("finset:2", (1,), o.lambda_data_count(1, 2), o.level_morphism_count(1, 2)),
        _level(LATTICE_12, (2,), lattice12, lattice12),
    ]
    for x in range(3):
        for y in range(3):
            reqs.append((
                ["check", "mapping", "--base", "finset:2", "-X", str(x), "-Y", str(y)],
                Expect(fields={
                    "details.fiber_objects": o.mapping_fiber_objects(x, y, 2),
                    "details.slice_side_objects": o.slice_objects(x, y, 2),
                }),
            ))
    reqs.append((
        ["check", "complete", "--base", "finset:3"],
        Expect(fields={"details.objects": 4, "details.invertible_spans": o.invertible_span_count(3)}),
    ))
    homs, _ = o.cyclic_coefficients(4)
    reqs.append((
        ["locsys", "check", "--coeff", "cyclic:4", "--kind", "fiber", "-X", "2", "-Y", "1", "--bound", "2"],
        Expect(fields={
            "details.comma_size": o.comma_size(homs, (0, 0), (0,)),
            "details.fiber_objects": o.labeled_fiber_objects(homs, (0, 0), (0,), 2),
        }),
    ))
    for coeff, (homs, invertible) in (("bz2", o.cyclic_coefficients(2)), ("arrow", o.arrow_coefficients())):
        reqs.append((
            ["locsys", "check", "--coeff", coeff, "--kind", "equivalence", "--bound", "2"],
            Expect(fields={
                "details.spans_checked": o.labeled_span_count(homs, 2),
                "details.invertible": o.invertible_labeled_spans(invertible, 2),
            }),
        ))
    # Both sides at arity (1,): the fiber of the arity-(2,) level over feet
    # (1, 1), and the arity-(1,) level of the slice over 1 x 1 = the poset 0 < 1.
    slice_level = o.poset_level_count((1,), *fin1)
    reqs.append((
        ["check", "mapping", "--base", "finset:1", "-X", "1", "-Y", "1", "--arities", "1"],
        Expect(
            fields={"details.fiber_objects": slice_level, "details.slice_side_objects": slice_level},
            known_fault="the fiber is built from the arity-(1,) level whatever --arities says",
        ),
    ))
    reqs.append((
        ["check", "complete", "--base", LATTICE_12_INT],
        Expect(
            fields={"details.objects": 6, "details.invertible_spans": 6},
            known_fault="integer object labels miss the string-keyed identities table (KeyError)",
        ),
    ))
    return reqs


def _workload_composition(seed: int):
    s = str(seed)
    reqs = [
        (["check", "invertible", "--base", "finset:3"], Expect(fields={"details.spans_checked": o.span_count(3)})),
        (
            ["certify", "adjoint", "--base", "finset:4", "--trials", "2000", "--seed", s],
            Expect(fields={"details.trials": 2000, "details.seed": seed}),
        ),
    ]
    for x in range(5):
        # self-duality through the diagonal x -> x * x, which has x ** 2 points
        reqs.append((
            ["certify", "dual", "--base", "finset:4", "-X", str(x)],
            Expect(fields={
                "witness.object": x,
                "witness.zig_apex": x,
                "witness.zag_apex": x,
                "witness.ev": f"Span({x * x} <- {x} -> 1)",
                "witness.coev": f"Span(1 <- {x} -> {x * x})",
            }),
        ))
    for coeff, (homs, _) in (
        ("cyclic:3", o.cyclic_coefficients(3)),
        ("cyclic:4", o.cyclic_coefficients(4)),
        ("arrow", o.arrow_coefficients()),
    ):
        reqs.append((
            ["locsys", "check", "--coeff", coeff, "--kind", "battery"],
            Expect(fields={
                "details.spans": o.labeled_span_count(homs, 1),
                "details.triples_checked": o.composable_triples(homs, 1),
            }),
        ))
    reqs.append((
        ["lag", "check", "--kind", "pairs", "--trials", "20", "--dim", "6", "--seed", s],
        Expect(fields={"details.trials": 20, "details.max_dim": 6, "details.seed": seed}),
    ))
    for d in range(2, 13, 2):
        reqs.append((["lag", "check", "--kind", "zigzag", "--dim", str(d)], Expect(fields={"details.dim": d})))
    return reqs


def _workload_suite(seed: int):
    segal, zigzag = suite_requests(seed)
    inner = [
        Expect(fields={
            "check": "check",
            "request.which": "segal",
            "details.mode": "exhaustive",
            "details.data_checked": o.lambda_data_count(2, 2),
            "details.seed": seed,
        }),
        Expect(fields={"check": "lag", "request.kind": "zigzag", "details.dim": 16}),
    ]
    return [(["suite", "--config", SUITE_CONFIG], Expect(fields={"worst_exit": 0}, inner=inner))]


_BUILDERS = {
    "segal": _workload_segal,
    "groupoids": _workload_groupoids,
    "composition": _workload_composition,
    "suite": _workload_suite,
}


def plan(workload: str, seed: int):
    """The workload's requests as (argv, Expect) pairs, in issue order."""
    return _BUILDERS[workload](seed)
