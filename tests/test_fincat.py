"""Finite categories, the skeletal finite-set base, limits, slices, cores."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab.duality import _pair
from spanlab.fincat import (
    FinCategory,
    FinFunction,
    FinSetCategory,
    core,
    finset,
    slice_over_pair,
)
from spanlab.verdict import NoLimitError, SpanlabError


def walking_arrow() -> FinCategory:
    morphs = {"id0": (0, 0), "id1": (1, 1), "f": (0, 1)}
    comp = {
        ("id0", "id0"): "id0",
        ("id1", "id1"): "id1",
        ("f", "id0"): "f",
        ("id1", "f"): "f",
    }
    return FinCategory([0, 1], morphs, {0: "id0", 1: "id1"}, comp)


def finset_table(C: FinSetCategory) -> FinCategory:
    """The finite-set base up to max_size materialized as tables, for
    comparing table-category code against the finite-set one."""
    objects = C.objects_within()
    morphs = {}
    for x in objects:
        for y in objects:
            for m in C.hom(x, y):
                morphs[("f", x, y, m.values)] = (x, y)
    ident = {x: ("f", x, x, tuple(range(x))) for x in objects}
    comp = {}
    for gl, (gs, gt) in morphs.items():
        for fl, (fs, ft) in morphs.items():
            if ft == gs:
                h = C.compose(FinFunction(gs, gt, gl[3]), FinFunction(fs, ft, fl[3]))
                comp[(gl, fl)] = ("f", fs, gt, h.values)
    return FinCategory(objects, morphs, ident, comp)


class TestFinCategoryAxioms:
    def test_walking_arrow_validates(self):
        assert walking_arrow().validate()

    def test_materialized_finset_validates(self):
        assert finset_table(finset(2)).validate()

    def test_wrong_typed_composite_refuted(self):
        C = walking_arrow()
        C.composition[("id1", "f")] = "id0"  # wrong type: should be f: 0 -> 1
        v = C.validate()
        assert not v
        assert v.witness["reason"] in ("wrong-typed composite", "associativity", "left unit law")

    def test_composite_outside_the_morphisms_refuted(self):
        C = walking_arrow()
        C.composition[("id1", "f")] = "g"  # names no morphism
        v = C.validate()
        assert not v
        assert v.witness == {"pair": ("id1", "f"), "reason": "wrong-typed composite"}

    def test_json_roundtrip(self):
        C = walking_arrow()
        D = FinCategory.from_json(C.to_json())
        assert D.validate()
        assert set(D.all_morphisms()) == set(C.all_morphisms())

    def test_malformed_json_rejected(self):
        with pytest.raises(SpanlabError):
            FinCategory.from_json({"objects": []})


class TestFinFunction:
    def test_validation(self):
        with pytest.raises(SpanlabError):
            FinFunction.checked(2, 2, (0,))
        with pytest.raises(SpanlabError):
            FinFunction.checked(1, 2, (2,))

    @pytest.mark.parametrize(
        "source, target, values",
        [(1, 2, [True]), (1, 2, [0.0]), (2, 1, [0, 0.0]), (-1, 0, []), (0, -1, []), (True, 1, [0]),
         (1.0, 1, [0]), (1, 2, 0), (1, 2, "0"), (1, 2, None)],
        ids=["bool-value", "float-value", "float-late", "negative-source", "negative-target",
             "bool-size", "float-size", "int-values", "str-values", "no-values"],
    )
    def test_checked_rejects_outside_values(self, source, target, values):
        with pytest.raises(SpanlabError):
            FinFunction.checked(source, target, values)

    def test_checked_accepts_lists(self):
        f = FinFunction.checked(3, 2, [0, 1, 1])
        assert f == FinFunction(3, 2, (0, 1, 1))
        assert repr(f) == "FinFunction(source=3, target=2, values=(0, 1, 1))"
        assert FinFunction.checked(0, 0, []) == finset(0).identity(0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_producers_agree_with_checked_constructor(self, data):
        """Every function the finite-set category builds, on sizes 0-3,
        passes the checks its trusting constructor skips."""
        B = finset(3)
        x, y, z, w = (data.draw(st.integers(0, 3)) for _ in range(4))
        rng = random.Random(data.draw(st.integers(0, 99)))
        from_x, from_y = B.hom(x, z), B.hom(y, z)
        produced = from_x + B.isos(x, x) + [B.identity(x), B.random_hom(x, z, rng)]
        produced += [B.inverse(p) for p in B.isos(x, x)]
        produced += [B.compose(h, f) for f in from_x for h in B.hom(z, y)]
        produced += B.product(x, y)[1:]
        node_obj, arrows = {"a": x, "b": y, "c": z}, []
        if from_x and from_y:
            f, g = data.draw(st.sampled_from(from_x)), data.draw(st.sampled_from(from_y))
            produced += B.pullback(f, g)[1:]
            arrows = [("a", "c", f), ("b", "c", g)]
        L, legs = B.limit_of_diagram(node_obj, arrows)
        produced += legs.values()
        u = B.random_hom(w, L, rng)
        if u is not None:
            cone = {n: B.compose(legs[n], u) for n in node_obj}
            produced.append(B.factor_through_limit(L, legs, w, cone, node_obj))
            assert produced[-1] == u
        produced = [p for p in produced if p is not None]
        assert produced
        for p in produced:
            assert p == FinFunction.checked(p.source, p.target, p.values)
            assert type(p.values) is tuple

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_composition_associative_and_unital(self, data):
        B = finset(4)
        sizes = [data.draw(st.integers(0, 3)) for _ in range(4)]
        a, b, c, d = sizes
        if (a and not b) or (b and not c) or (c and not d):
            return
        f = FinFunction(a, b, tuple(data.draw(st.integers(0, b - 1)) for _ in range(a)))
        g = FinFunction(b, c, tuple(data.draw(st.integers(0, c - 1)) for _ in range(b)))
        h = FinFunction(c, d, tuple(data.draw(st.integers(0, d - 1)) for _ in range(c)))
        assert B.compose(h, B.compose(g, f)) == B.compose(B.compose(h, g), f)
        assert B.compose(f, B.identity(a)) == f
        assert B.compose(B.identity(b), f) == f


class TestPullbacks:
    def test_product_over_terminal(self):
        B = finset(3)
        f = B.hom(2, 1)[0]
        g = B.hom(3, 1)[0]
        P, _, _ = B.pullback(f, g)
        assert P == 6

    def test_pullback_along_injection(self):
        B = finset(3)
        f = B.identity(2)
        g = FinFunction(1, 2, (1,))
        P, p, q = B.pullback(f, g)
        assert P == 1
        assert p.values == (1,)

    def test_pullback_along_identity_is_domain(self):
        B = finset(3)
        f = FinFunction(3, 2, (0, 1, 1))
        P, p, q = B.pullback(f, B.identity(2))
        assert P == 3
        assert B.is_iso(p)

    def test_pullback_and_limit_agree_on_cospans(self):
        B = finset(2)
        for a in range(3):
            for b in range(3):
                for x in range(1, 3):
                    for f in B.hom(a, x):
                        for g in B.hom(b, x):
                            P, p, q = B.pullback(f, g)
                            L, legs = B.limit_of_diagram(
                                {"A": a, "B": b, "X": x},
                                [("A", "X", f), ("B", "X", g)],
                            )
                            assert (P, p, q) == (L, legs["A"], legs["B"])

    def test_pasting_of_pullback_squares(self):
        B = finset(3)
        rng = random.Random(11)
        done = 0
        while done < 200:
            X = rng.randint(1, 3)
            A, Bn, C = rng.randint(0, 3), rng.randint(1, 3), rng.randint(0, 3)
            a = B.random_hom(A, X, rng)
            b = B.random_hom(Bn, X, rng)
            c = B.random_hom(C, Bn, rng)
            if a is None or b is None or c is None:
                continue
            P1, p1, q1 = B.pullback(a, b)  # A x_X B
            P2, p2, q2 = B.pullback(q1, c)  # P1 x_B C
            # oracle: the outer pullback of a with b . c
            P3, r1, r2 = B.pullback(a, B.compose(b, c))
            h = B.factor_through_limit(
                P3,
                {"A": r1, "C": r2},
                P2,
                {"A": B.compose(p1, p2), "C": q2},
                {"A": A, "C": C},
            )
            assert B.is_iso(h)
            done += 1


class TestLimits:
    def test_empty_diagram_is_terminal(self):
        B = finset(3)
        L, legs = B.limit_of_diagram({}, [])
        assert L == 1 and legs == {}

    def test_single_object_diagram(self):
        B = finset(3)
        L, legs = B.limit_of_diagram({"A": 2}, [])
        assert L == 2 and B.is_iso(legs["A"])

    def test_wedge_of_two_spans(self):
        # 2 <- 1 -> 2 and 2 <- 3 -> 1 sharing the middle object 2
        B = finset(3)
        l1 = FinFunction(1, 2, (0,))
        r1 = FinFunction(1, 2, (1,))
        l2 = FinFunction(3, 2, (0, 1, 1))
        r2 = FinFunction(3, 1, (0, 0, 0))
        L, legs = B.limit_of_diagram(
            {"v0": 2, "e1": 1, "v1": 2, "e2": 3, "v2": 1},
            [
                ("e1", "v0", l1),
                ("e1", "v1", r1),
                ("e2", "v1", l2),
                ("e2", "v2", r2),
            ],
        )
        oracle = sum(
            1
            for i in range(1)
            for j in range(3)
            if r1.values[i] == l2.values[j]
        )
        assert L == oracle == 2

    def test_materialized_limit_by_cone_search(self):
        """Cone search in an explicit category agrees with the set-level
        canonical pullback."""
        M = finset_table(finset(2))
        f = ("f", 1, 2, (0,))
        g = ("f", 2, 2, (0, 1))
        L, legs = M.limit_of_diagram({"A": 1, "B": 2, "X": 2}, [("A", "X", f), ("B", "X", g)])
        P, _, _ = finset(2).pullback(FinFunction(1, 2, (0,)), FinFunction(2, 2, (0, 1)))
        assert L == P == 1

    def test_no_limit_error_when_apex_too_large(self):
        # the product of two 2-element sets needs 4 elements, outside bound 2
        M = finset_table(finset(2))
        with pytest.raises(NoLimitError):
            M.limit_of_diagram({"A": 2, "B": 2}, [])


class TestSlice:
    def test_slice_over_terminal_pair(self):
        S = slice_over_pair(finset(2), 1, 1)
        assert len(S.objects) == 3
        assert S.validate()

    def test_slice_over_two_element_product(self):
        S = slice_over_pair(finset(2), 1, 2)
        assert len(S.objects) == 7  # 1 + 2 + 4 maps A -> 2

    def test_slice_over_empty_left_foot(self):
        S = slice_over_pair(finset(2), 0, 1)
        assert len(S.objects) == 1

    def test_slice_over_terminal_matches_base_homs(self):
        B = finset(2)
        S = slice_over_pair(B, 1, 1)
        by_size = {A: (A, h) for (A, h) in S.objects}
        for A in range(3):
            for B2 in range(3):
                assert len(S.hom(by_size[A], by_size[B2])) == len(B.hom(A, B2))


class TestCore:
    def test_core_of_finset3(self):
        G = core(finset(3))
        assert len(G.objects) == 4
        assert len(G.aut(3)) == 6
        assert G.validate()

    def test_core_of_poset_is_discrete(self):
        G = core(walking_arrow())
        assert len(G.objects) == 2
        assert len(G.all_morphisms()) == 2  # identities only

    def test_core_idempotent_on_groupoids(self):
        G = core(finset(2))
        morphs = G.all_morphisms()
        H = core(
            FinCategory(
                G.objects,
                {m: (m[0], m[1]) for m in morphs},
                {x: G.identity(x) for x in G.objects},
                {(g, f): G.compose(g, f) for g in morphs for f in morphs if f[1] == g[0]},
            )
        )
        assert len(H.objects) == len(G.objects)
        assert len(list(H.all_morphisms())) == len(list(G.all_morphisms()))


class TestFinSetCategory:
    def test_hom_count(self):
        B = finset(3)
        assert len(B.hom(2, 3)) == 9
        assert len(B.hom(0, 3)) == 1
        assert len(B.hom(3, 0)) == 0

    def test_isos_are_permutations(self):
        B = finset(3)
        assert len(B.isos(3, 3)) == 6
        assert B.isos(2, 3) == []

    def test_pair_into_product(self):
        B = finset(3)
        f = FinFunction(2, 2, (0, 1))
        g = FinFunction(2, 2, (1, 0))
        h = _pair(B, f, g)
        P, p1, p2 = B.product(2, 2)
        assert B.compose(p1, h) == f and B.compose(p2, h) == g
