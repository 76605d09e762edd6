"""The benchmark's own tests: each oracle against counts worked by hand, the
generated inputs against the properties the benchmark relies on, and the
calibration's scaling.

    python3 -m pytest bench
"""
import json
import random

import pytest

import calibrate
import oracles as o
import workloads
from tracer import _covered

FINSET1 = ([0, 1], o.finset1_leq)


def test_lambda_data_over_finsets():
    # arity 1 over finset:1: (X0, X1, A) with A = 0, or all three equal to 1
    assert o.lambda_data_count(1, 1) == 5
    # arity 2 over finset:1: middle vertex 0 gives 4, middle vertex 1 gives 3 * 3
    assert o.lambda_data_count(2, 1) == 13
    # arity 1 over finset:2: sum over X0 * X1 = p of 1 + p + p**2
    assert o.lambda_data_count(1, 2) == 5 * 1 + 1 * 3 + 2 * 7 + 1 * 21 == 43
    assert o.lambda_data_count(2, 2) == 971


def test_level_morphisms_by_orbit_stabilizer():
    # (X0, X1) -> X0! X1! sum_A A! (X0 X1)**A, over the nine size pairs
    assert o.level_morphism_count(1, 2) == 1 + 2 + 4 + 4 + 44 + 148 == 203
    assert o.level_morphism_count(2, 2) == 15537
    # finset:1 has no non-identity isomorphisms
    assert o.level_morphism_count(2, 1) == o.lambda_data_count(2, 1)


def test_monotone_maps_into_posets():
    # finset:1 is the poset 0 < 1, so both counts agree
    for n in range(1, 6):
        assert o.poset_level_count((n,), *FINSET1) == o.lambda_data_count(n, 1)
    # over 0 < 1 the zigzag counts are every other Fibonacci number
    assert [o.poset_level_count((n,), *FINSET1) for n in range(1, 6)] == [5, 13, 34, 89, 233]
    assert o.poset_level_count((2, 1), *FINSET1) == 518
    # divisors of 30 = (0 < 1)^3, so 13**3; divisors of 12 = (0 < 1 < 2) x (0 < 1):
    # the 3-chain gives 9 + 25 + 36 = 70
    assert o.poset_level_count((2,), *o.divisor_poset(30)) == 13 ** 3 == 2197
    assert o.poset_level_count((2,), *o.divisor_poset(12)) == 70 * 13 == 910


def test_plain_span_counts():
    assert o.span_count(1) == 4 + 1
    assert o.span_count(3) == 16 + 36 + 196 + 1296 == 1544
    assert o.invertible_span_count(3) == 1 + 1 + 4 + 36 == 42
    assert (o.mapping_fiber_objects(1, 2, 2), o.slice_objects(1, 2, 2)) == (14, 7)
    assert (o.mapping_fiber_objects(0, 2, 2), o.slice_objects(0, 2, 2)) == (2, 1)
    assert (o.mapping_fiber_objects(2, 2, 2), o.slice_objects(2, 2, 2)) == (84, 21)


def test_labeled_span_counts():
    homs, invertible = o.cyclic_coefficients(2)
    # one object: sum over X, Y, A <= 2 of (2 X Y)**A
    assert o.labeled_span_count(homs, 2) == 5 + 7 + 2 * 21 + 73 == 127
    assert o.invertible_labeled_spans(invertible, 2) == 1 + 2 + 4 * 4 == 19
    homs, invertible = o.arrow_coefficients()
    # feet (), (0), (1): W = [[1, 1, 1], [1, 2, 2], [1, 1, 2]]
    assert o.labeled_span_matrix(homs, 1) == [[1, 1, 1], [1, 2, 2], [1, 1, 2]]
    assert o.labeled_span_count(homs, 1) == 12
    assert o.composable_triples(homs, 1) == 49 + 86 + 65 == 200
    assert o.invertible_labeled_spans(invertible, 2) == 19
    homs, _ = o.cyclic_coefficients(3)
    # W = [[1, 1], [1, 4]], W^3 = [[7, 22], [22, 73]]
    assert (o.labeled_span_count(homs, 1), o.composable_triples(homs, 1)) == (7, 124)
    homs, _ = o.cyclic_coefficients(4)
    assert o.comma_size(homs, (0, 0), (0,)) == 8
    assert o.labeled_fiber_objects(homs, (0, 0), (0,), 2) == 1 + 8 + 64


def test_segal_gate_sides():
    """The exhaustive requests fit under the ceiling; the sampled ones do not."""
    fits = o.DEFAULT_CEILING
    assert o.sigma_cell_count((2,)) == 6 and o.sigma_cell_count((2, 1)) == 18
    assert 971 * 6 <= fits and 518 * 18 <= fits and 233 * o.sigma_cell_count((5,)) <= fits
    assert 2197 * 6 <= fits
    assert o.vertex_lower_bound((2, 2), 2) * o.sigma_cell_count((2, 2)) > fits
    assert o.lambda_data_count(3, 3) * o.sigma_cell_count((3,)) > fits
    assert o.lambda_data_count(2, 3) * o.sigma_cell_count((2,)) > fits


def _shape(doc):
    """A label-free fingerprint: object count, and the sorted (src, tgt)
    index pairs of morphisms and composites."""
    pos = {x: i for i, x in enumerate(doc["objects"])}
    ends = {m["id"]: (pos[m["src"]], pos[m["tgt"]]) for m in doc["morphisms"]}
    return (
        len(pos),
        sorted(ends.values()),
        sorted((ends[g], ends[f], ends[h]) for g, f, h in doc["compose"]),
        sorted(ends[m] for m in doc["identities"].values()),
    )


def test_lattice_inputs_keep_shape_across_seeds():
    base = workloads.divisor_lattice(30, random.Random(0))
    for seed in (1, 2, 3):
        doc = workloads.divisor_lattice(30, random.Random(seed))
        assert _shape(doc) == _shape(base)
        assert doc != base
    assert workloads.divisor_lattice(30, random.Random(5)) == workloads.divisor_lattice(30, random.Random(5))


def test_lattice_is_a_category():
    doc = workloads.divisor_lattice(12, None)
    ends = {m["id"]: (m["src"], m["tgt"]) for m in doc["morphisms"]}
    composites = {(g, f): h for g, f, h in doc["compose"]}
    for g, (gs, gt) in ends.items():
        for f, (fs, ft) in ends.items():
            if ft == gs:
                assert ends[composites[(g, f)]] == (fs, gt)
    assert all(ends[doc["identities"][str(x)]] == (x, x) for x in doc["objects"])


def test_seed_reaches_only_seeded_requests():
    for name in workloads.WORKLOADS:
        a, b = workloads.plan(name, 3), workloads.plan(name, 4)
        assert len(a) == len(b)
        for (argv_a, exp_a), (argv_b, exp_b) in zip(a, b):
            if exp_a.known_fault:
                assert argv_a == argv_b and exp_a == exp_b
        assert json.dumps(workloads.inputs(name, 3)) == json.dumps(workloads.inputs(name, 3))
    fault_input = workloads.LATTICE_12_INT
    assert workloads.inputs("groupoids", 3)[fault_input] == workloads.inputs("groupoids", 4)[fault_input]


def test_covered_counts_overlaps_once():
    assert _covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert _covered([(1.0, 3.0), (2.0, 5.0)], 2.5, 4.0) == 1.5
    assert _covered([], 0.0, 1.0) == 0.0


def test_reference_speed_scales_by_the_units_around():
    # measured while the units took twice their reference time: half of it
    ref = calibrate.REFERENCE_S
    assert calibrate.at_reference_speed(3.0, [2 * ref], [2 * ref, 2 * ref]) == pytest.approx(1.5)
    assert calibrate.at_reference_speed(3.0, [ref], [3 * ref]) == pytest.approx(1.5)


def test_units_are_timed_on_one_thread_or_several():
    assert len(calibrate.units_s(2)) == 2
    times = calibrate.units_s(1, threads=2)
    assert len(times) == 1 and times[0] > 0
