"""Adjunctions by reversal and self-duality of objects in the span
construction."""
import random

import pytest

from spanlab.duality import (
    AdjunctionWitness,
    _assoc,
    _pair,
    _pair_into_pullback,
    build_adjunction,
    object_duality_check,
    reverse_span,
    tensor_spans,
    triangle_check,
)
from spanlab.fincat import FinFunction, finset
from spanlab.spans import Span, all_spans, identity_span
from test_spans import divisor_lattice, span_isos


def random_span(base, rng):
    objs = base.objects_within(None)
    while True:
        A, X, Y = (rng.choice(objs) for _ in range(3))
        l = base.random_hom(A, X, rng)
        r = base.random_hom(A, Y, rng)
        if l is not None and r is not None:
            return Span(X, l, A, r, Y)


class TestReversal:
    def test_involution(self):
        base = finset(2)
        for s in all_spans(base):
            assert reverse_span(reverse_span(s)) == s

    def test_swaps_feet(self):
        s = Span(2, FinFunction(3, 2, (0, 1, 1)), 3, FinFunction(3, 1, (0, 0, 0)), 1)
        r = reverse_span(s)
        assert (r.left, r.right) == (1, 2)
        assert r.lleg == s.rleg and r.rleg == s.lleg


class TestBuildAdjunction:
    def test_identity_span(self):
        base = finset(2)
        w = build_adjunction(base, identity_span(base, 2))
        assert w.PB == 2 and w.PA == 2
        assert w.validate()
        assert triangle_check(w)

    def test_worked_example(self):
        base = finset(3)
        s = Span(2, FinFunction(3, 2, (0, 1, 1)), 3, FinFunction(3, 2, (0, 1, 1)), 2)
        w = build_adjunction(base, s)
        assert w.PB == 5  # matched pairs over the right foot
        assert base.compose(w.b1, w.unit_map) == base.identity(3)
        assert base.compose(w.b2, w.unit_map) == base.identity(3)
        assert triangle_check(w)

    def test_empty_apex(self):
        base = finset(2)
        s = Span(1, FinFunction(0, 1, ()), 0, FinFunction(0, 2, ()), 2)
        w = build_adjunction(base, s)
        assert w.PB == 0 and w.PA == 0
        assert triangle_check(w)


class TestTriangles:
    def test_random_battery(self):
        base = finset(3)
        rng = random.Random(7)
        for _ in range(10):
            s = random_span(base, rng)
            assert triangle_check(build_adjunction(base, s))

    def test_corrupted_unit_refuted(self):
        """Some section of the unit square other than the diagonal validates
        as a 2-cell yet breaks the triangle identities."""
        base = finset(3)
        s = Span(2, FinFunction(3, 2, (0, 1, 1)), 3, FinFunction(3, 2, (0, 1, 1)), 2)
        good = build_adjunction(base, s)
        found_corrupt = False
        for u in base.hom(s.apex, good.PB):
            if u == good.unit_map:
                continue
            w = AdjunctionWitness(
                base, s, good.PB, good.b1, good.b2, u,
                good.PA, good.a1, good.a2, good.counit_map,
            )
            if w.validate() and not triangle_check(w):
                found_corrupt = True
                break
        assert found_corrupt

    def test_corrupted_unit_from_twin_sections(self):
        """Explicit corruption: two distinct sections p != q of the left leg
        with equal right-leg composites feed a non-diagonal unit."""
        base = finset(3)
        s = Span(2, FinFunction(3, 2, (0, 1, 1)), 3, FinFunction(3, 2, (0, 1, 1)), 2)
        good = build_adjunction(base, s)
        p = FinFunction(3, 3, (0, 1, 1))
        q = FinFunction(3, 3, (0, 2, 2))
        assert base.compose(s.lleg, p) == s.lleg
        assert base.compose(s.lleg, q) == s.lleg
        assert base.compose(s.rleg, p) == base.compose(s.rleg, q)
        u = _pair_into_pullback(base, good.PB, good.b1, good.b2, p, q)
        w = AdjunctionWitness(
            base, s, good.PB, good.b1, good.b2, u,
            good.PA, good.a1, good.a2, good.counit_map,
        )
        assert w.validate()
        assert not triangle_check(w)

    def test_invariance_under_span_isomorphism(self):
        """Transport a span along a natural isomorphism: the rebuilt witness
        still satisfies the triangles."""
        base = finset(3)
        rng = random.Random(13)
        for _ in range(6):
            s = random_span(base, rng)
            gl = rng.choice(base.isos(s.left, s.left))
            h = rng.choice(base.isos(s.apex, s.apex))
            gr = rng.choice(base.isos(s.right, s.right))
            t = Span(
                s.left,
                base.compose(gl, base.compose(s.lleg, base.inverse(h))),
                s.apex,
                base.compose(gr, base.compose(s.rleg, base.inverse(h))),
                s.right,
            )
            assert span_isos(base, s, t)
            assert triangle_check(build_adjunction(base, t))


class TestObjectDuality:
    @pytest.mark.parametrize("X", [0, 1, 2])
    def test_small_objects_self_dual(self, X):
        v = object_duality_check(finset(4), X)
        assert v

    def test_witness_shape(self):
        v = object_duality_check(finset(4), 2)
        assert v.details.get("object", v.witness) is not None


def reassociation(base, x, y, z):
    """x*(y*z) -> (x*y)*z paired from the product projections: the oracle
    for the inverse of _assoc that object_duality_check takes."""
    YZ, r1, r2 = base.product(y, z)
    _, q1, q2 = base.product(x, YZ)
    return _pair(base, _pair(base, q1, base.compose(r1, q2)), base.compose(r2, q2))


class TestReassociation:
    @pytest.mark.parametrize(
        "base, triples",
        [
            (finset(4), [(x, x, x) for x in range(5)] + [(1, 2, 3), (2, 0, 3), (3, 2, 1)]),
            (divisor_lattice(12), [(x, x, x) for x in (1, 2, 3, 4, 6, 12)] + [(2, 3, 4), (4, 6, 1)]),
        ],
        ids=["finset4", "divisors12"],
    )
    def test_inverse_of_assoc_is_the_paired_reassociation(self, base, triples):
        for x, y, z in triples:
            assert base.inverse(_assoc(base, x, y, z)) == reassociation(base, x, y, z)


class TestTensor:
    def test_tensor_of_identities(self):
        base = finset(4)
        s = tensor_spans(base, identity_span(base, 2), identity_span(base, 2))
        assert s.left == s.right == 4
        assert base.is_iso(s.lleg) and base.is_iso(s.rleg)

    def test_tensor_feet_are_products(self):
        base = finset(4)
        s = Span(2, FinFunction(1, 2, (0,)), 1, FinFunction(1, 1, (0,)), 1)
        t = Span(1, FinFunction(2, 1, (0, 0)), 2, FinFunction(2, 2, (0, 1)), 2)
        st = tensor_spans(base, s, t)
        assert st.left == 2 and st.apex == 2 and st.right == 2
