"""Finite categories, the skeletal finite-set base, limits, slices, cores."""
import functools
import gc
import itertools
import os
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import fincat as fincat_module
from spanlab.duality import _pair, build_adjunction, triangle_check
from spanlab.fincat import (
    FinCategory,
    FinFunction,
    FinSetCategory,
    SliceCategory,
    _root_first_order,
    core,
    finset,
    slice_over_pair,
)
from spanlab.spans import Span, segal_check
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


def slice_table(C, P, bound=None) -> FinCategory:
    """The slice C/P materialized as tables over C.objects_within(bound):
    every morphism and every composable pair, with limits by cone search.
    The differential oracle of SliceCategory."""
    objs = [(A, h) for A in C.objects_within(bound) for h in C.hom(A, P)]
    morphs = {}
    for a in objs:
        for b in objs:
            for u in C.hom(a[0], b[0]):
                if C.compose(b[1], u) == a[1]:
                    morphs[(a, b, u)] = (a, b)
    ident = {a: (a, a, C.identity(a[0])) for a in objs}
    comp = {}
    for gl, (gs, gt) in morphs.items():
        for fl, (fs, ft) in morphs.items():
            if ft == gs:
                comp[(gl, fl)] = (fs, gt, C.compose(gl[2], fl[2]))
    return FinCategory(objs, morphs, ident, comp)


def as_table(S) -> FinCategory:
    """A lazy base tabulated through its own hom, identity and compose, so
    that FinCategory.validate checks its laws."""
    objs = S.objects_within()
    homs = {(x, y): S.hom(x, y) for x in objs for y in objs}
    comp = {
        (g, f): S.compose(g, f)
        for (y, _), gs in homs.items()
        for (_, y2), fs in homs.items()
        if y == y2
        for g in gs
        for f in fs
    }
    return FinCategory(objs, {m: xy for xy, ms in homs.items() for m in ms}, {x: S.identity(x) for x in objs}, comp)


def poset_category(objs, leq):
    """The poset with the given order pairs as a table category; the
    morphism a -> b is labelled (a, b)."""
    return FinCategory(
        objs,
        {m: m for m in leq},
        {a: (a, a) for a in objs},
        {((b, c), (a, b)): (a, c) for a, b in leq for b2, c in leq if b == b2},
    )


def divisor_lattice(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return poset_category(divisors, [(a, b) for a in divisors for b in divisors if b % a == 0])


def no_pullback_poset():
    """The poset p, q <= x, y: the cospan p -> x <- q has no pullback."""
    objs = ["p", "q", "x", "y"]
    return poset_category(objs, [(a, a) for a in objs] + [(a, b) for a in "pq" for b in "xy"])


def cone_extensions(C, apex, nodes, node_obj, arrows, i, legs):
    """The cones over a table base that extend legs, given on nodes[:i],
    over the rest of nodes, by backtracking: after each leg every arrow
    with both ends placed is tested.  The oracle of FinCategory.cones."""
    if i == len(nodes):
        yield dict(legs)
        return
    n = nodes[i]
    for leg in C.hom(apex, node_obj[n]):
        legs[n] = leg
        if all(C.composition[(m, legs[a])] == legs[b] for a, b, m in arrows if a in legs and b in legs):
            yield from cone_extensions(C, apex, nodes, node_obj, arrows, i + 1, legs)
    legs.pop(n, None)


def cone_search_limit(C, node_obj, arrows):
    """The first cone, over every apex in object order and the backtracking
    cones of each, through which every cone factors exactly once: the
    oracle of FinCategory.limit_of_diagram."""
    nodes = sorted(node_obj)
    cones = [(x, legs) for x in C.objects for legs in cone_extensions(C, x, nodes, node_obj, arrows, 0, {})]
    for apex, legs in cones:
        if all(
            sum(all(C.compose(legs[n], h) == other[n] for n in node_obj) for h in C.hom(x, apex)) == 1
            for x, other in cones
        ):
            return apex, legs
    raise NoLimitError(f"no universal cone over {nodes}")


def product_limit(node_obj, arrows):
    """The canonical limit by brute force: every tuple of the product over
    the sorted nodes, in lexicographic order, kept when every arrow holds
    on it.  The differential oracle of FinSetCategory.limit_of_diagram."""
    nodes = sorted(node_obj)
    at = {n: i for i, n in enumerate(nodes)}
    tuples = [
        t
        for t in itertools.product(*(range(node_obj[n]) for n in nodes))
        if all(m.values[t[at[a]]] == t[at[b]] for a, b, m in arrows)
    ]
    legs = {n: FinFunction(len(tuples), node_obj[n], tuple(t[at[n]] for t in tuples)) for n in nodes}
    return len(tuples), legs


def sorted_order_limit(node_obj, arrows):
    """The limit search FinSetCategory used before its root-first order:
    backtracking over the nodes in sorted order, a node forced only by an
    arrow from a node before it.  It never tests a self-loop, so it is an
    oracle for diagrams without them."""
    nodes = sorted(node_obj)
    if not nodes:
        return 1, {}
    into = {n: [] for n in nodes}
    outof = {n: [] for n in nodes}
    for a, b, m in arrows:
        into[b].append((a, m))
        outof[a].append((b, m))
    tuples = []

    def backtrack(i, vals):
        if i == len(nodes):
            tuples.append(tuple(vals[n] for n in nodes))
            return
        n = nodes[i]
        forced = {m.values[vals[a]] for a, m in into[n] if a in vals}
        if len(forced) > 1:
            return
        for v in forced if forced else range(node_obj[n]):
            if v < node_obj[n] and not any(b in vals and m.values[v] != vals[b] for b, m in outof[n]):
                vals[n] = v
                backtrack(i + 1, vals)
                del vals[n]

    backtrack(0, {})
    legs = {
        n: FinFunction(len(tuples), node_obj[n], tuple(t[i] for t in tuples))
        for i, n in enumerate(nodes)
    }
    return len(tuples), legs


def limit_oracle(node_obj, arrows):
    """FinSetCategory.limit_of_diagram as it was before its steps were
    made lean: rows grown through generators, all arrows of a step tested
    in one all(...) per row, and the finished rows always put back in
    sorted-node order and sorted."""
    nodes = sorted(node_obj)
    if any(node_obj[n] == 0 for n in nodes):
        return 0, {n: FinFunction(0, node_obj[n], ()) for n in nodes}
    order = _root_first_order(nodes, arrows)
    at = {n: i for i, n in enumerate(order)}
    tests = [[] for _ in order]
    for a, b, m in arrows:
        tests[max(at[a], at[b])].append((m.values, at[a], at[b]))
    rows = [()]
    for n, here in zip(order, tests):
        forcing = next((t for t in here if t[1] < t[2]), None)
        if forcing:
            here.remove(forcing)
            f, j, _ = forcing
            grown = (row + (f[row[j]],) for row in rows)
        else:
            grown = (row + (v,) for row in rows for v in range(node_obj[n]))
        if here:
            rows = [r for r in grown if all(g[r[j]] == r[k] for g, j, k in here)]
        else:
            rows = list(grown)
    tuples = sorted(tuple(row[at[n]] for n in nodes) for row in rows)
    apex = len(tuples)
    columns = list(zip(*tuples)) or [()] * len(nodes)
    legs = {n: FinFunction(apex, node_obj[n], col) for n, col in zip(nodes, columns)}
    return apex, legs


@dataclass(frozen=True, order=True)
class DataclassFinFunction:
    """FinFunction as the frozen dataclass it was before it became a
    slotted class: the oracle of its equality, hash, order, repr and
    is_bijection.  Its qualified name is FinFunction's, so that its repr
    reads the same."""

    __qualname__ = "FinFunction"

    source: int
    target: int
    values: tuple

    @property
    def is_bijection(self) -> bool:
        return self.source == self.target and len(set(self.values)) == self.source


def compose_oracle(g, f):
    """FinSetCategory.compose as it was: one lookup per point."""
    if f.target != g.source:
        raise SpanlabError("finite-set functions not composable")
    return FinFunction(f.source, g.target, tuple(g.values[v] for v in f.values))


def pullback_oracle(f, g):
    """FinSetCategory.pullback as it was: every pair (a, b) tested, in
    lexicographic order."""
    if f.target != g.target:
        raise SpanlabError("cospan legs must share a target")
    pairs = [(a, b) for a in range(f.source) for b in range(g.source) if f.values[a] == g.values[b]]
    apex = len(pairs)
    return apex, FinFunction(apex, f.source, tuple(a for a, _ in pairs)), FinFunction(apex, g.source, tuple(b for _, b in pairs))


def factor_oracle(lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
    """FinSetCategory.factor_through_limit as it was: the limit's rows and
    the cone's rows read point by point."""
    nodes = sorted(node_obj)
    index = {}
    for i in range(lim_apex):
        index[tuple(lim_legs[n].values[i] for n in nodes)] = i
    try:
        vals = tuple(index[tuple(cone_legs[n].values[j] for n in nodes)] for j in range(cone_apex))
    except KeyError as exc:
        raise NoLimitError("cone does not factor through the limit") from exc
    return FinFunction(cone_apex, lim_apex, vals)


def triple(f):
    return f.source, f.target, f.values


@st.composite
def finfunctions(draw, source=None, target=None):
    """A function with sizes 0-4, or the given ones, as its value triple;
    never a map of a nonempty set into the empty one."""
    if target is None:
        target = draw(st.integers(1 if source else 0, 4))
    if source is None:
        source = draw(st.integers(0, 4)) if target else 0
    return source, target, tuple(draw(st.integers(0, target - 1)) for _ in range(source))


class CountingValues(tuple):
    """Function values that count how often they are looked up."""

    lookups = 0

    def __getitem__(self, i):
        CountingValues.lookups += 1
        return tuple.__getitem__(self, i)


@st.composite
def finset_diagrams(draw):
    """Up to 6 nodes of sizes 0-3 under names whose sorted order is not
    the drawing order, and up to 8 arrows between any two of them: self-
    loops, parallel arrows and cycles included."""
    names = draw(st.lists(st.sampled_from(["z", "m1", "a", "t12", "vl", "b", "w"]), max_size=6, unique=True))
    node_obj = {n: draw(st.integers(0, 3)) for n in names}
    arrows = []
    if names:
        for _ in range(draw(st.integers(0, 8))):
            a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            if node_obj[a] and not node_obj[b]:
                continue  # no function into the empty set
            values = draw(st.tuples(*[st.integers(0, node_obj[b] - 1)] * node_obj[a]))
            arrows.append((a, b, FinFunction(node_obj[a], node_obj[b], values)))
    return node_obj, arrows


@st.composite
def small_finset_diagrams(draw):
    """Up to 4 nodes of sizes 0-3 and up to 5 drawn arrows, each with its
    reverse added at will, so that self-loops and 2-cycles are common.
    With two or more nodes an arrow from the last name in sorted order
    into the first may be added, which makes the root-first order differ
    from the sorted one whenever that node is a root."""
    names = draw(st.lists(st.sampled_from(["z", "m", "a", "t"]), max_size=4, unique=True))
    node_obj = {n: draw(st.integers(0, 3)) for n in names}
    pairs = []
    if names:
        for _ in range(draw(st.integers(0, 5))):
            a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            pairs += [(a, b), (b, a)] if draw(st.booleans()) else [(a, b)]
        if len(names) > 1 and draw(st.booleans()):
            pairs.append((max(names), min(names)))
    arrows = []
    for a, b in pairs:
        if node_obj[a] and not node_obj[b]:
            continue  # no function into the empty set
        values = draw(st.tuples(*[st.integers(0, node_obj[b] - 1)] * node_obj[a]))
        arrows.append((a, b, FinFunction(node_obj[a], node_obj[b], values)))
    return node_obj, arrows


def topology_instance(names, ends, rng):
    """A diagram of the given topology, node names and arrow ends (a, b),
    with node sizes 0-3 and arrow values drawn from rng, and the nodes
    inserted in a shuffled order.  A node that an arrow from a nonempty
    node reaches is made nonempty: no function maps into the empty set."""
    sizes = {n: rng.randrange(4) for n in names}
    while any(sizes[a] and not sizes[b] for a, b in ends):
        for a, b in ends:
            if sizes[a] and not sizes[b]:
                sizes[b] = 1
    order = rng.sample(names, len(names))
    node_obj = {n: sizes[n] for n in order}
    arrows = [
        (a, b, FinFunction(sizes[a], sizes[b], tuple(rng.randrange(sizes[b]) for _ in range(sizes[a]))))
        for a, b in ends
    ]
    return node_obj, arrows


def assert_matches_limit_oracle(node_obj, arrows):
    apex, legs = finset(3).limit_of_diagram(node_obj, arrows)
    oracle_apex, oracle_legs = limit_oracle(node_obj, arrows)
    assert apex == oracle_apex
    assert {n: triple(leg) for n, leg in legs.items()} == {n: triple(leg) for n, leg in oracle_legs.items()}
    assert all(type(leg.values) is tuple for leg in legs.values())


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

    def test_isos_searched_once_per_pair(self, monkeypatch):
        """isos(x, y) tests each morphism for an inverse on the first call
        for the pair only, and every call hands out a fresh list."""
        C, S = finset_table(finset(2)), finset(2)
        tested, is_iso = [], C.is_iso
        monkeypatch.setattr(C, "is_iso", lambda m: tested.append(m) or is_iso(m))
        for x, y in itertools.product(C.objects, repeat=2):
            first = C.isos(x, y)
            assert [m[3] for m in first] == [f.values for f in S.isos(x, y)]
            first.append("spoiled")
            assert C.isos(x, y) == first[:-1]
        assert sorted(tested) == sorted(C.all_morphisms())

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

    def test_has_no_instance_dict(self):
        f = FinFunction(2, 2, (1, 0))
        assert not hasattr(f, "__dict__")
        with pytest.raises(AttributeError):
            f.label = "swap"

    @given(st.lists(finfunctions(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dataclass_oracle(self, triples):
        """Equality, hash, the four comparisons, sorted order, repr and
        is_bijection are the frozen dataclass's, pair by pair; any other
        type is NotImplemented, so == is False and < raises TypeError."""
        fs = [FinFunction(*t) for t in triples]
        oracles = [DataclassFinFunction(*t) for t in triples]
        for f, o in zip(fs, oracles):
            assert (repr(f), hash(f), f.is_bijection) == (repr(o), hash(o), o.is_bijection)
            assert f == FinFunction(*triple(f)) and f != triple(f) and f != o
            for method in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(f, method)(triple(f)) is NotImplemented
            with pytest.raises(TypeError):
                f < triple(f)
            for g, p in zip(fs, oracles):
                assert (f == g, f != g, f < g, f <= g, f > g, f >= g) == (o == p, o != p, o < p, o <= p, o > p, o >= p)
        assert [triple(f) for f in sorted(fs)] == [triple(o) for o in sorted(oracles)]
        assert len(set(fs)) == len(set(oracles))

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

    def test_cone_search_leaves_no_reference_cycle(self):
        """A finished cone search frees its cones by reference counting
        alone."""
        C = finset_table(finset(2))
        gc.collect()
        assert len(list(C.cones(2, ["a", "b"], {"a": 2, "b": 2}, []))) == 16
        assert gc.collect() == 0


TABLE_BASES = {
    "walking-arrow": walking_arrow,
    "lattice12": lambda: divisor_lattice(12),
    "lattice30": lambda: divisor_lattice(30),
    "no-pullback": no_pullback_poset,
    "finset2-table": lambda: finset_table(finset(2)),
}


class TestConeRows:
    @pytest.mark.parametrize("make_base", TABLE_BASES.values(), ids=TABLE_BASES.keys())
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_backtracking_oracle(self, make_base, data):
        """FinCategory.cones, over any order of any subset of the nodes,
        and limit_of_diagram against the backtracking search: the same
        cones in the same order, and the same limit or NoLimitError.  The
        arrows may run between any nodes, self-loops and parallel arrows
        included, and some have an end at a node outside the diagram or
        outside the nodes the cones are taken over; those are never
        tested.  finset:2 as a table has parallel arrows."""
        C = make_base()
        names = data.draw(st.lists(st.sampled_from("dcba"), min_size=1, max_size=3, unique=True))
        node_obj = {n: data.draw(st.sampled_from(C.objects)) for n in names}
        arrows = []
        for _ in range(data.draw(st.integers(0, 4))):
            a, b = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names + ["z"]))
            homs = C.hom(node_obj[a], node_obj[b]) if b in node_obj else list(C.morphisms)
            if homs:
                arrows.append((a, b, data.draw(st.sampled_from(homs))))
        nodes = data.draw(st.permutations(names))[: data.draw(st.integers(0, len(names)))]
        for apex in C.objects:
            assert C.cones(apex, nodes, node_obj, arrows) == list(
                cone_extensions(C, apex, nodes, node_obj, arrows, 0, {})
            )
        try:
            expected = cone_search_limit(C, node_obj, arrows)
        except NoLimitError:
            with pytest.raises(NoLimitError):
                C.limit_of_diagram(node_obj, arrows)
        else:
            assert C.limit_of_diagram(node_obj, arrows) == expected

    def test_parallel_arrows_have_no_equalizer_in_the_walking_pair(self):
        """Two parallel arrows f, g: a -> b: a cone from a needs its leg to
        b to be both f and g, and nothing maps b to a, so there is no cone
        and no limit; with f twice the cones from a are (ia, f)."""
        C = FinCategory(
            ["a", "b"],
            {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b"), "g": ("a", "b")},
            {"a": "ia", "b": "ib"},
            {("ia", "ia"): "ia", ("ib", "ib"): "ib", ("f", "ia"): "f", ("g", "ia"): "g",
             ("ib", "f"): "f", ("ib", "g"): "g"},
        )
        assert C.validate()
        node_obj = {"A": "a", "B": "b"}
        for arrows, cones in (
            ([("A", "B", "f"), ("A", "B", "g")], []),
            ([("A", "B", "f"), ("A", "B", "f")], [{"A": "ia", "B": "f"}]),
        ):
            assert C.cones("a", ["A", "B"], node_obj, arrows) == cones
            assert C.cones("a", ["B", "A"], node_obj, arrows) == cones
            assert C.cones("b", ["A", "B"], node_obj, arrows) == []
        with pytest.raises(NoLimitError):
            C.limit_of_diagram(node_obj, [("A", "B", "f"), ("A", "B", "g")])
        assert C.limit_of_diagram(node_obj, [("A", "B", "f")]) == ("a", {"A": "ia", "B": "f"})

    def test_only_apexes_over_every_node_are_grown(self, monkeypatch):
        """Only an object with a morphism to every node's object is the
        apex of a cone.  In the divisor lattice of 30 the cospan 6 -> 30 <-
        10 has cones from the divisors of 2 alone, so two apexes of the
        eight grow rows, and the limit is their meet 2; the empty diagram
        grows all eight and has the terminal object 30."""
        C = divisor_lattice(30)
        apexes, rows = [], FinCategory._cone_rows
        monkeypatch.setattr(
            FinCategory, "_cone_rows", lambda self, x, steps: apexes.append(x) or rows(self, x, steps)
        )
        node_obj = {"a": 6, "b": 10, "x": 30}
        arrows = [("a", "x", (6, 30)), ("b", "x", (10, 30))]
        assert C.limit_of_diagram(node_obj, arrows) == cone_search_limit(C, node_obj, arrows) == (
            2, {"a": (2, 6), "b": (2, 10), "x": (2, 30)}
        )
        assert apexes == [1, 2]
        apexes.clear()
        assert C.limit_of_diagram({}, []) == (30, {})
        assert apexes == C.objects

    def test_plan_compiled_once_per_topology(self):
        """The cone plan is one entry per order of nodes and ends of the
        arrows, whatever the objects and the morphisms."""
        C = divisor_lattice(12)
        fincat_module._cone_plan.cache_clear()
        for x, y in itertools.product(C.objects, repeat=2):
            C.limit_of_diagram({"a": x, "b": y}, [])
            C.cones(x, ["b", "a"], {"a": x, "b": y}, [("a", "b", (x, x))] if x == y else [])
        assert fincat_module._cone_plan.cache_info().currsize == 3


class TestCanonicalLimits:
    """FinSetCategory.limit_of_diagram against the brute-force product
    oracle and the old sorted-order search."""

    @given(finset_diagrams())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_product_oracle(self, diagram):
        node_obj, arrows = diagram
        assert finset(3).limit_of_diagram(node_obj, arrows) == product_limit(node_obj, arrows)
        if all(a != b for a, b, _ in arrows):
            assert sorted_order_limit(node_obj, arrows) == product_limit(node_obj, arrows)

    @given(small_finset_diagrams())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_limit_oracle(self, diagram):
        """The lean steps give the apex and every leg's values of the
        generator-grown search, whether or not the root-first order is the
        sorted one."""
        assert_matches_limit_oracle(*diagram)

    @given(
        st.lists(st.sampled_from(["z", "m", "a", "t", "w"]), min_size=1, max_size=5, unique=True).flatmap(
            lambda names: st.tuples(
                st.just(names),
                st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=6),
                st.randoms(use_true_random=False),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_one_plan_serves_every_instance_of_a_topology(self, topology):
        """The plan compiled for a topology on its first call gives the
        oracle's limit on every later call, whatever the node sizes, the
        arrow values and the order the nodes were inserted in."""
        names, ends, rng = topology
        for _ in range(4):
            assert_matches_limit_oracle(*topology_instance(names, ends, rng))

    @pytest.mark.parametrize(
        "names, ends",
        [
            (["a", "b"], [("a", "b")]),
            (["a", "b"], [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")]),
            (["r", "x", "c1", "c2", "c3"], [("r", "x"), ("c1", "c2"), ("c2", "c3"), ("c3", "c1"), ("c2", "c2")]),
            (["z", "m1", "m2", "a"], [("z", "a"), ("m2", "m1"), ("m1", "a")]),
        ],
        ids=["arrow", "self-loops", "unreached-cycle", "unsorted-roots"],
    )
    def test_one_plan_serves_every_instance_of_fixed_topologies(self, names, ends):
        """Forty seeded instances of each topology against the oracle.  The
        instances of each take an empty node, a nonempty limit and at least
        two insertion orders of the same nodes."""
        instances = [topology_instance(names, ends, random.Random(seed)) for seed in range(40)]
        for node_obj, arrows in instances:
            assert_matches_limit_oracle(node_obj, arrows)
        assert any(0 in node_obj.values() for node_obj, _ in instances)
        assert any(finset(3).limit_of_diagram(*diagram)[0] for diagram in instances)
        assert len({tuple(node_obj) for node_obj, _ in instances}) > 1

    def test_plan_compiled_once_per_topology(self, monkeypatch):
        """segal_check(finset(2), (2,)) takes 1,127 limits over 3 topologies
        and leaves no more compiled plans than topologies.  The Cartesian
        certificate of each of the 971 data reuses the limit that Kan
        extension took for its one filled cell.  Counted on one CPU, so
        that no datum is checked in a worker, whose calls are not seen here."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        topologies, calls, limit = set(), [], FinSetCategory.limit_of_diagram

        def spy(self, node_obj, arrows):
            calls.append(1)
            topologies.add((frozenset(node_obj), tuple(sorted((a, b) for a, b, _ in arrows))))
            return limit(self, node_obj, arrows)

        monkeypatch.setattr(FinSetCategory, "limit_of_diagram", spy)
        fincat_module._limit_plan.cache_clear()
        assert segal_check(finset(2), (2,))
        assert (len(calls), len(topologies)) == (1127, 3)
        assert fincat_module._limit_plan.cache_info().currsize <= len(topologies)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_triangle_diagrams_match_the_oracle(self, data):
        """Every limit certify adjoint takes on a span of finset:3, the
        chain and collapse diagrams of duality._one_triangle among them."""
        B = finset(3)
        M, L, R = (data.draw(st.integers(1, 3)) for _ in range(3))
        rng = random.Random(data.draw(st.integers(0, 999)))
        s = Span(L, B.random_hom(M, L, rng), M, B.random_hom(M, R, rng), R)
        seen, limit = [], FinSetCategory.limit_of_diagram

        def spy(self, node_obj, arrows):
            seen.append(sorted(node_obj))
            assert limit(self, node_obj, arrows) == product_limit(node_obj, arrows)
            return limit(self, node_obj, arrows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FinSetCategory, "limit_of_diagram", spy)
            assert triangle_check(build_adjunction(B, s))
        assert ["m1", "m2", "m3", "vl", "vr"] in seen
        assert ["t12", "t23", "va", "vb", "w1", "w2", "w3"] in seen

    @pytest.mark.parametrize(
        "values, apex, fixed",
        [((1, 0), 0, ()), ((0, 0), 1, (0,)), ((0, 1), 2, (0, 1))],
        ids=["swap", "constant", "identity"],
    )
    def test_self_loop_keeps_the_fixed_points(self, values, apex, fixed):
        """The limit of one node with an endomap m is the set of points m
        fixes; the table base's cone search agrees."""
        L, legs = finset(2).limit_of_diagram({"A": 2}, [("A", "A", FinFunction(2, 2, values))])
        assert (L, legs["A"].values) == (apex, fixed)
        T, tlegs = finset_table(finset(2)).limit_of_diagram({"A": 2}, [("A", "A", ("f", 2, 2, values))])
        assert (T, tlegs["A"]) == (apex, ("f", apex, 2, fixed))

    def test_wide_diagram_is_pinned_by_lookups(self):
        """Eight 4-point nodes a0..a7, each mapped by the identity into z:
        in sorted order no arrow prunes before z, so the old search builds
        all 4^8 = 65,536 tuples; root-first, z follows a0 and prunes every
        later node, so the map lookups stay in the low hundreds."""
        ident = FinFunction(4, 4, CountingValues(range(4)))
        node_obj = {f"a{k}": 4 for k in range(8)} | {"z": 4}
        arrows = [(f"a{k}", "z", ident) for k in range(8)]
        CountingValues.lookups = 0
        L, legs = finset(4).limit_of_diagram(node_obj, arrows)
        assert L == 4 and all(leg.values == (0, 1, 2, 3) for leg in legs.values())
        assert CountingValues.lookups <= 200
        CountingValues.lookups = 0
        assert sorted_order_limit(node_obj, arrows)[0] == 4
        assert CountingValues.lookups >= 4**8


class TestSlice:
    def test_slice_over_terminal_pair(self):
        S = slice_over_pair(finset(2), 1, 1)
        assert len(S.objects_within()) == 3
        assert as_table(S).validate()

    def test_slice_over_two_element_product(self):
        S = slice_over_pair(finset(2), 1, 2)
        assert len(S.objects_within()) == 7  # 1 + 2 + 4 maps A -> 2

    def test_slice_over_empty_left_foot(self):
        S = slice_over_pair(finset(2), 0, 1)
        assert len(S.objects_within()) == 1

    def test_slice_over_terminal_matches_base_homs(self):
        B = finset(2)
        S = slice_over_pair(B, 1, 1)
        by_size = {A: (A, h) for (A, h) in S.objects_within()}
        for A in range(3):
            for B2 in range(3):
                assert len(S.hom(by_size[A], by_size[B2])) == len(B.hom(A, B2))

    def test_limits_beyond_the_bound(self):
        """Over 1 x 1 the pullback of 2 -> 1 <- 2 has 4 points, above the
        bound 2: the table has no such limit, the lazy slice computes it."""
        C = finset(2)
        S, table = slice_over_pair(C, 1, 1), slice_table(C, 1)
        two = (2, FinFunction(2, 1, (0, 0)))
        one = (1, FinFunction(1, 1, (0,)))
        f = (two, one, FinFunction(2, 1, (0, 0)))
        diagram = {"A": two, "B": two, "X": one}, [("A", "X", f), ("B", "X", f)]
        (apex, h), legs = S.limit_of_diagram(*diagram)
        assert apex == 4 and h.values == (0, 0, 0, 0)
        assert [leg[2].values for leg in (legs["A"], legs["B"])] == [(0, 0, 1, 1), (0, 1, 0, 1)]
        with pytest.raises(NoLimitError):
            table.limit_of_diagram(*diagram)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_table_oracle(self, data):
        """On finset:2 over every foot pair X, Y <= 2: objects, homs and
        isomorphisms, then composites and inverses, then limits and
        factorizations wherever the table has the limit."""
        X, Y = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        S, table = slice_over_pair(finset(2), X, Y), _slice_table(X, Y)
        objs = S.objects_within()
        assert objs == table.objects_within()
        for x in objs:
            for y in objs:
                assert S.hom(x, y) == table.hom(x, y)
                assert S.isos(x, y) == table.isos(x, y)
        x, y, z = (data.draw(st.sampled_from(objs)) for _ in range(3))
        for f in S.hom(x, y):
            assert S.inverse(f) == table.inverse(f)
            for g in S.hom(y, z):
                assert S.compose(g, f) == table.compose(g, f)
        names = data.draw(st.lists(st.sampled_from(["p", "b", "a"]), min_size=1, max_size=3, unique=True))
        node_obj = {n: data.draw(st.sampled_from(objs)) for n in names}
        arrows = []
        for _ in range(data.draw(st.integers(0, 3))):
            a, b = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
            if table.hom(node_obj[a], node_obj[b]):
                arrows.append((a, b, data.draw(st.sampled_from(table.hom(node_obj[a], node_obj[b])))))
        try:
            expected = table.limit_of_diagram(node_obj, arrows)
        except NoLimitError:
            return
        assert S.limit_of_diagram(node_obj, arrows) == expected
        apex = data.draw(st.sampled_from(objs))
        for cone in itertools.islice(table.cones(apex, sorted(node_obj), node_obj, arrows), 5):
            assert S.factor_through_limit(*expected, apex, cone, node_obj) == table.factor_through_limit(
                *expected, apex, cone, node_obj
            )

    def test_cones_match_the_table_where_limits_are_missing(self):
        """Over a table base the slice's cones come from the base's cone
        search, in the table's order, also where the base has no limit."""
        C = finset_table(finset(2))
        S, table = SliceCategory(C, 1), slice_table(C, 1)
        objs = S.objects_within()
        missing = 0
        for x, y in itertools.product(objs, repeat=2):
            node_obj = {"a": x, "b": y}
            try:
                S.limit_of_diagram(node_obj, [])
            except NoLimitError:
                missing += 1
            for apex in objs:
                assert list(S.cones(apex, ["a", "b"], node_obj, [])) == list(
                    table.cones(apex, ["a", "b"], node_obj, [])
                )
        assert missing == 1  # 2 x 2 has 4 points, above the bound


@functools.lru_cache(maxsize=None)
def _slice_table(X, Y):
    return slice_table(finset(2), finset(2).product(X, Y)[0])


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


class TestBaseSurface:
    def test_every_base_has_the_documented_surface(self):
        """Each method of the shared surface that the fincat module
        docstring lists exists on all three bases; a base without one would
        fail only when a check first calls it."""
        block = re.search(r"duck-typed surface:\n\n(.*?)\n\n", fincat_module.__doc__, re.S).group(1)
        names = re.findall(r"\w+", block)
        assert "commutes" in names and "limit_of_diagram" in names
        for base in (FinCategory, FinSetCategory, SliceCategory):
            assert [n for n in names if not callable(getattr(base, n, None))] == [], base.__name__

    @pytest.mark.parametrize(
        "base, within, beyond",
        [
            (finset(2), 2, 4),
            (walking_arrow(), None, None),
            (slice_over_pair(finset(4), 2, 1), 2, 4),
            (slice_over_pair(walking_arrow(), 1, 1), None, None),
        ],
        ids=["finset2", "walking-arrow", "slice2x1", "walking-arrow-slice"],
    )
    def test_is_initial_matches_the_definition(self, base, within, beyond):
        """is_initial against one morphism to each object, those beyond the
        bound included: over 2 x 1, (A, h) with A nonempty has 2 ** |A|
        morphisms to (4, the fold map)."""
        objects = base.objects_within(beyond)
        for x in base.objects_within(within):
            assert base.is_initial(x) == all(len(base.hom(x, y)) == 1 for y in objects), x


class TestFinSetCategory:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_the_oracles(self, data):
        """compose, pullback and factor_through_limit, on functions with
        sizes 0-4 and random finite-set diagrams, agree with the point-by-
        point versions they replaced, errors included: a cone that does
        not factor raises NoLimitError in both."""
        B = finset(4)
        f = FinFunction(*data.draw(finfunctions()))
        g = FinFunction(*data.draw(finfunctions(source=f.target)))
        assert triple(B.compose(g, f)) == triple(compose_oracle(g, f))
        h = FinFunction(*data.draw(finfunctions()))
        if h.source != f.target:
            for compose in (B.compose, compose_oracle):
                with pytest.raises(SpanlabError):
                    compose(h, f)
        k = FinFunction(*data.draw(finfunctions(target=f.target)))
        apex, p, q = B.pullback(f, k)
        oracle_apex, oracle_p, oracle_q = pullback_oracle(f, k)
        assert (apex, triple(p), triple(q)) == (oracle_apex, triple(oracle_p), triple(oracle_q))
        if h.target != f.target:
            for pullback in (B.pullback, pullback_oracle):
                with pytest.raises(SpanlabError):
                    pullback(f, h)
        node_obj, arrows = data.draw(finset_diagrams())
        L, legs = B.limit_of_diagram(node_obj, arrows)
        w = data.draw(st.integers(0, 4)) if all(node_obj.values()) else 0
        if (L or not w) and data.draw(st.booleans()):
            u = FinFunction(*data.draw(finfunctions(source=w, target=L)))
            cone = {n: B.compose(legs[n], u) for n in node_obj}
        else:  # a random cone, which may not factor
            cone = {n: FinFunction(*data.draw(finfunctions(source=w, target=x))) for n, x in node_obj.items()}
        try:
            expected = triple(factor_oracle(L, legs, w, cone, node_obj))
        except NoLimitError:
            with pytest.raises(NoLimitError):
                B.factor_through_limit(L, legs, w, cone, node_obj)
        else:
            assert triple(B.factor_through_limit(L, legs, w, cone, node_obj)) == expected

    @pytest.mark.parametrize("lim_apex", [0, 1, 2])
    @pytest.mark.parametrize("cone_apex", [0, 1, 3])
    def test_factoring_over_the_empty_diagram(self, lim_apex, cone_apex):
        """With no nodes every row is (), for the limit and the cone alike:
        the factorization is the oracle's, and an empty apex takes only
        the empty cone."""
        try:
            expected = triple(factor_oracle(lim_apex, {}, cone_apex, {}, {}))
        except NoLimitError:
            assert lim_apex == 0 < cone_apex
            with pytest.raises(NoLimitError):
                finset(2).factor_through_limit(lim_apex, {}, cone_apex, {}, {})
        else:
            assert triple(finset(2).factor_through_limit(lim_apex, {}, cone_apex, {}, {})) == expected
        L, legs = finset(2).limit_of_diagram({}, [])
        assert finset(2).factor_through_limit(L, legs, cone_apex, {}, {}) == FinFunction(cone_apex, 1, (0,) * cone_apex)

    def test_cone_outside_the_limit_does_not_factor(self):
        B = finset(2)
        node_obj = {"a": 2, "b": 2}
        L, legs = B.limit_of_diagram(node_obj, [("a", "b", B.identity(2))])
        cone = {"a": FinFunction(1, 2, (0,)), "b": FinFunction(1, 2, (1,))}
        for factor in (B.factor_through_limit, factor_oracle):
            with pytest.raises(NoLimitError):
                factor(L, legs, 1, cone, node_obj)

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
