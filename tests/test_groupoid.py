"""Finite groupoids: equivalences, keyed homs, iso-comma squares."""
import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab.fincat import Functor
from spanlab.groupoid import (
    FinGroupoid,
    discrete_groupoid,
    full_subgroupoid,
    groupoids_equivalent,
    groups_isomorphic,
    equivalent,
    iso_comma,
    product_groupoid,
)
from spanlab.fincat import core, finset
from spanlab.locsys import (
    cyclic_internal,
    locsys_battery_check,
    locsys_equivalence_check,
    locsys_mapping_fiber_check,
    walking_arrow_internal,
)
from spanlab.spans import completeness_check, mapping_category_check, span_level
from spanlab.verdict import ResourceError
from test_fincat import finset_table


def codiscrete_groupoid(labels):
    """Exactly one morphism between every ordered pair of objects."""
    return FinGroupoid(labels, lambda x, y: [()], lambda g, f: (), lambda m: (), lambda x: ())


def one_object_group(elements, mul, unit, inv):
    """Deloop a finite group given by tables: one object '*', one morphism
    per element."""
    elements = tuple(elements)
    return FinGroupoid(
        ["*"], lambda x, y: elements, lambda g, f: mul[(g, f)], inv.__getitem__, lambda x: unit
    )


def cyclic_group_groupoid(n):
    els = list(range(n))
    mul = {(g, f): (g + f) % n for g in els for f in els}
    return one_object_group(els, mul, 0, {g: (-g) % n for g in els})


def klein_four():
    els = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mul = {
        (g, f): ((g[0] + f[0]) % 2, (g[1] + f[1]) % 2) for g in els for f in els
    }
    return one_object_group(els, mul, (0, 0), {g: g for g in els})


class TestBuilders:
    def test_discrete_validates(self):
        G = discrete_groupoid(["a", "b", "c"])
        assert G.validate()
        assert len(G.components()) == 3

    def test_cyclic_validates(self):
        for n in (1, 2, 3, 4):
            G = cyclic_group_groupoid(n)
            assert G.validate()
            assert len(G.aut("*")) == n

    def test_klein_four_validates(self):
        assert klein_four().validate()

    def test_core_of_finset_validates(self):
        assert core(finset(3)).validate()


class TestEquivalent:
    def test_skeleton_inclusion_is_equivalence(self):
        """Including one object of a two-object contractible groupoid."""
        G = codiscrete_groupoid([0, 1])
        H = full_subgroupoid(G, lambda x: x == 0)
        F = Functor(
            H, G, {x: x for x in H.objects}.__getitem__, {m: m for m in H.all_morphisms()}.get
        )
        assert equivalent(F)

    def test_collapse_bz2_to_bz3_refuted(self):
        A = cyclic_group_groupoid(2)
        B = cyclic_group_groupoid(3)
        F = Functor(
            A, B, {"*": "*"}.__getitem__, {("*", "*", 0): ("*", "*", 0), ("*", "*", 1): ("*", "*", 0)}.get
        )
        v = equivalent(F)
        assert not v
        assert v.witness["reason"] in ("not faithful", "hom sizes differ")

    def test_collapse_two_points_refuted(self):
        A = discrete_groupoid([0, 1])
        B = discrete_groupoid([0])
        F = Functor(
            A, B, {0: 0, 1: 0}.__getitem__, {(0, 0, "id"): (0, 0, "id"), (1, 1, "id"): (0, 0, "id")}.get
        )
        v = equivalent(F)
        assert not v

    def test_missing_object_refuted(self):
        A = discrete_groupoid([0])
        B = discrete_groupoid([0, 1])
        F = Functor(A, B, {0: 0}.__getitem__, {(0, 0, "id"): (0, 0, "id")}.get)
        v = equivalent(F)
        assert not v
        assert v.witness["reason"] == "not in essential image"


def _point_into(G):
    x = G.objects[0]
    pt = discrete_groupoid(["pt"])
    return Functor(pt, G, {"pt": x}.__getitem__, {pt.identity("pt"): G.identity(x)}.get)


class TestIsoComma:
    def test_point_point_over_bz2(self):
        """Loop space of the delooping of Z/2 has two points."""
        G = cyclic_group_groupoid(2)
        C, _, _ = iso_comma(_point_into(G), _point_into(G))
        assert len(C.objects) == 2
        assert C.validate()
        # and it is discrete: two components, each with only its identity
        assert sorted(map(len, C.components())) == [1, 1]
        assert all(len(C.aut(x)) == 1 for x in C.objects)

    def test_along_identity_recovers_source(self):
        G = core(finset(2))
        idG = Functor(
            G, G, {x: x for x in G.objects}.__getitem__, {m: m for m in G.all_morphisms()}.get
        )
        C, pa, _ = iso_comma(idG, idG)
        assert groupoids_equivalent(C, G)

    def test_discrete_target_is_strict_pullback(self):
        K = discrete_groupoid([0, 1])
        A = discrete_groupoid(["a0", "a1"])
        B = discrete_groupoid(["b0"])
        FA = Functor(
            A,
            K,
            {"a0": 0, "a1": 1}.__getitem__,
            {("a0", "a0", "id"): (0, 0, "id"), ("a1", "a1", "id"): (1, 1, "id")}.get,
        )
        FB = Functor(B, K, {"b0": 0}.__getitem__, {("b0", "b0", "id"): (0, 0, "id")}.get)
        C, _, _ = iso_comma(FA, FB)
        # only (a0, b0) match over 0
        assert len(C.objects) == 1

    def test_projections_are_functorial(self):
        G = cyclic_group_groupoid(2)
        C, pa, pb = iso_comma(_point_into(G), _point_into(G))
        assert pa.validate()
        assert pb.validate()

    def test_unmapped_morphism_refuted(self):
        """A morphism on which on_mor returns None is unmapped."""
        G = cyclic_group_groupoid(2)
        F = Functor(G, G, lambda x: x, lambda m: m if m[2] == 0 else None)
        v = F.validate()
        assert not v
        assert v.witness == {"morphism": ("*", "*", 1), "reason": "unmapped"}


class TestProfiles:
    def test_core_finset3_profile(self):
        G = core(finset(3))
        assert sorted(map(len, G.components())) == [1, 1, 1, 1]
        assert sorted(len(G.aut(x)) for x in G.objects) == [1, 1, 2, 6]
        assert len(G.all_morphisms()) == 10

    def test_profile_of_cyclic(self):
        G = cyclic_group_groupoid(4)
        assert G.components() == [["*"]]
        assert len(G.aut("*")) == len(G.all_morphisms()) == 4

    def test_bz4_vs_klein_four(self):
        """One object with four automorphisms on both sides, yet
        inequivalent: the group-isomorphism matching tells them apart."""
        A = cyclic_group_groupoid(4)
        B = klein_four()
        assert len(A.aut("*")) == len(B.aut("*")) == 4
        v = groupoids_equivalent(A, B)
        assert not v


class TestGroupsIsomorphic:
    def test_cyclic_self(self):
        els = list(range(6))
        mul = {(g, f): (g + f) % 6 for g in els for f in els}
        assert groups_isomorphic(els, mul, 0, els, mul, 0)

    def test_z6_vs_s3(self):
        els = list(range(6))
        mul6 = {(g, f): (g + f) % 6 for g in els for f in els}
        perms = list(itertools.permutations(range(3)))
        muls3 = {
            (g, f): tuple(g[f[i]] for i in range(3)) for g in perms for f in perms
        }
        assert not groups_isomorphic(els, mul6, 0, perms, muls3, (0, 1, 2))

    def test_order_mismatch(self):
        els2 = [0, 1]
        mul2 = {(g, f): (g + f) % 2 for g in els2 for f in els2}
        els3 = [0, 1, 2]
        mul3 = {(g, f): (g + f) % 3 for g in els3 for f in els3}
        assert not groups_isomorphic(els2, mul2, 0, els3, mul3, 0)

    def test_search_leaves_no_reference_cycle(self):
        """A finished isomorphism search frees its tables by reference
        counting alone."""
        els = list(range(6))
        mul = {(g, f): (g + f) % 6 for g in els for f in els}
        gc.collect()
        assert groups_isomorphic(els, mul, 0, els, mul, 0)
        assert gc.collect() == 0

    def test_bound_enforced(self):
        els = list(range(30))
        mul = {(g, f): (g + f) % 30 for g in els for f in els}
        with pytest.raises(ResourceError):
            groups_isomorphic(els, mul, 0, els, mul, 0)

    def test_bound_hit_while_matching_components(self):
        """A bound hit is a resource limit (inconclusive), not an error."""
        with pytest.raises(ResourceError):
            groupoids_equivalent(cyclic_group_groupoid(30), cyclic_group_groupoid(30))


class TestGroupoidsEquivalent:
    def test_reflexive_and_symmetric(self):
        samples = [
            discrete_groupoid([0, 1]),
            cyclic_group_groupoid(3),
            core(finset(2)),
            klein_four(),
        ]
        for G in samples:
            assert groupoids_equivalent(G, G)
        for G in samples:
            for H in samples:
                assert bool(groupoids_equivalent(G, H)) == bool(
                    groupoids_equivalent(H, G)
                )

    def test_component_count_mismatch(self):
        v = groupoids_equivalent(discrete_groupoid([0]), discrete_groupoid([0, 1]))
        assert not v
        assert v.witness["reason"] == "component counts differ"

    def test_full_subgroupoid_skeleton(self):
        G = discrete_groupoid([0, 1, 2])
        H = full_subgroupoid(G, lambda x: x < 2)
        assert len(H.objects) == 2
        assert H.validate()


class TestLazySurface:
    def test_hom_memoised_and_found_for_equal_copies(self):
        calls = []

        def hom(x, y):
            calls.append((x, y))
            return [()] if x[0] % 2 == y[0] % 2 else []

        G = FinGroupoid([(0,), (1,), (2,)], hom, lambda g, f: (), lambda m: (), lambda x: ())
        assert len(G.all_morphisms()) == 5
        assert len(G.all_morphisms()) == 5
        assert G.hom(tuple([0]), tuple([2])) == (((0,), (2,), ()),)
        assert G.hom((0,), (5,)) == ()
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 9

    def test_components_in_order_of_first_object(self):
        G = FinGroupoid(
            [3, 1, 2, 0],
            lambda x, y: [None] if x % 2 == y % 2 else [],
            lambda g, f: None,
            lambda m: None,
            lambda x: None,
        )
        assert G.components() == [[1, 3], [0, 2]]

    def test_key_limits_hom_to_objects_sharing_it(self):
        calls = []

        def hom(x, y):
            calls.append((x, y))
            return [()] if x % 2 == y % 2 else []

        G = FinGroupoid(range(5), hom, lambda g, f: (), lambda m: (), lambda x: (), key=lambda x: x % 2)
        assert len(G.all_morphisms()) == 13
        assert sorted(calls) == sorted((x, y) for x in range(5) for y in range(5) if x % 2 == y % 2)
        assert G.components() == [[0, 2, 4], [1, 3]]

    def test_full_subgroupoid_keeps_the_key(self):
        """The subgroupoid calls G's hom function on its own objects only,
        and only on pairs that share a key."""
        pairs = []

        def hom(x, y):
            pairs.append((x, y))
            return [()]

        G = FinGroupoid(range(5), hom, lambda g, f: (), lambda m: (), lambda x: (), key=lambda x: x % 2)
        H = full_subgroupoid(G, lambda x: x < 4)
        assert len(H.all_morphisms()) == 8
        assert sorted(pairs) == [(0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)]

    def test_validate_catches_a_wrong_composite(self):
        G = FinGroupoid([0], lambda x, y: [0, 1], lambda g, f: 0, lambda m: m, lambda x: 0)
        v = G.validate()
        assert not v
        assert v.witness["reason"] in ("left unit law", "right unit law")


def _rewritten_builders():
    from spanlab.fincat import FinSetCategory, SliceCategory
    from spanlab.groupoid import product_groupoid
    from spanlab.locsys import (
        _strict_fiber_groupoid,
        _two_cell_groupoid,
        all_locsys_spans,
        cyclic_internal,
        locsys_invertible_predicate,
        locsys_level,
    )
    from spanlab.spans import invertible_span_groupoid, mapping_fiber, span_level

    bz2, b1 = cyclic_internal(2), FinSetCategory(1)
    bz2_group = cyclic_group_groupoid(2)
    labeled = all_locsys_spans(bz2, b1, 1)
    return {
        "discrete_groupoid": lambda: discrete_groupoid(["a", "b"]),
        "one_object_group": klein_four,
        "core": lambda: core(finset(2)),
        "core_of_table": lambda: core(finset_table(finset(1))),
        "full_subgroupoid": lambda: full_subgroupoid(core(finset(2)), lambda x: x > 0),
        "product_groupoid": lambda: product_groupoid(core(finset(2)), cyclic_group_groupoid(2)),
        "iso_comma": lambda: iso_comma(_point_into(bz2_group), _point_into(bz2_group))[0],
        "span_level": lambda: span_level(finset(2), (1,)),
        "mapping_fiber": lambda: mapping_fiber(finset(2), 1, 1),
        "invertible_span_groupoid": lambda: invertible_span_groupoid(finset(2)),
        "locsys_level_0": lambda: locsys_level(b1, bz2, 1),
        "locsys_level_1": lambda: _two_cell_groupoid(bz2, b1, labeled),
        "strict_fiber": lambda: _strict_fiber_groupoid(
            bz2, b1, [s for s in labeled if s.span.left == s.span.right == 1]
        ),
        "invertible_labeled_spans": lambda: _two_cell_groupoid(
            bz2, b1, [s for s in labeled if locsys_invertible_predicate(bz2, b1, s)]
        ),
        "sets_over": lambda: core(SliceCategory(FinSetCategory(2), 2), 2),
    }


@pytest.mark.parametrize("name", sorted(_rewritten_builders()))
def test_rewritten_builder_validates(name):
    G = _rewritten_builders()[name]()
    assert G.objects and G.validate()


# ---------------------------------------------------------------------------
# components and homs against the row walk


def old_row(G, i):
    """Object i's row as a full walk builds it: the nonempty homs to every
    object that shares its key, keyed by target position in object order,
    straight from the builder's hom function."""
    x, key = G.objects[i], G._key
    row = {}
    for j, y in enumerate(G.objects):
        if key is None or key(x) == key(y):
            ms = tuple((x, y, c) for c in G._hom(x, y))
            if ms:
                row[j] = ms
    return row


def components_oracle(G, rows):
    """Connected components by walking every hom row from each unplaced
    object, in the order of their first objects, each sorted by repr."""
    placed = [False] * len(G.objects)
    out = []
    for start in range(len(G.objects)):
        if placed[start]:
            continue
        placed[start] = True
        members, frontier = [start], [start]
        while frontier:
            for z in rows[frontier.pop()]:
                if not placed[z]:
                    placed[z] = True
                    members.append(z)
                    frontier.append(z)
        out.append(sorted((G.objects[i] for i in members), key=repr))
    return out


def permutation_group(n, gens):
    """The elements of the group of permutations of range(n) that gens
    generate, as tuples, sorted."""
    els, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in els:
                els.add(h)
                frontier.append(h)
    return sorted(els)


def action_union(actions, order, key=None):
    """The disjoint union of the action groupoids of permutation groups:
    actions lists (n, generators), and the objects (k, x), a point x of
    the k-th set, come in the given order.  A morphism (k, x) -> (k, y) is
    a g of the k-th group with g(x) = y, composed as permutations.  The
    key is None or an isomorphism invariant: "orbit" (the orbit's size),
    "stabiliser" (its order) or "block" (k)."""
    groups = [permutation_group(n, gens) for n, gens in actions]
    invariants = {
        "orbit": lambda o: len({g[o[1]] for g in groups[o[0]]}),
        "stabiliser": lambda o: sum(g[o[1]] == o[1] for g in groups[o[0]]),
        "block": lambda o: o[0],
    }
    return FinGroupoid(
        order,
        lambda o1, o2: [g for g in groups[o1[0]] if g[o1[1]] == o2[1]] if o1[0] == o2[0] else [],
        lambda g, f: tuple(g[i] for i in f),
        lambda g: tuple(sorted(range(len(g)), key=g.__getitem__)),
        lambda o: tuple(range(len(groups[o[0]][0]))),
        invariants.get(key),
    )


class Case:
    """A groupoid to build afresh on each call, with a readable repr for
    hypothesis' failure reports."""

    def __init__(self, label, build):
        self.label, self.build = label, build

    def __repr__(self):
        return self.label


@st.composite
def action_cases(draw, keys=(None, "orbit", "stabiliser", "block"), blocks=3, points=4):
    actions = []
    for _ in range(draw(st.integers(1, blocks))):
        n = draw(st.integers(1, points))
        gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=2))
        actions.append((n, gens))
    objects = [(k, x) for k, (n, _) in enumerate(actions) for x in range(n)]
    order = draw(st.permutations(objects))
    key = draw(st.sampled_from(keys))
    return Case(f"action_union({actions}, {order}, {key!r})", lambda: action_union(actions, order, key))


@st.composite
def subgroupoid_cases(draw):
    case = draw(action_cases())
    kept = draw(st.sets(st.sampled_from(case.build().objects)))
    return Case(f"full_subgroupoid({case}, {sorted(kept)})", lambda: full_subgroupoid(case.build(), kept.__contains__))


def functor_into(K, spec):
    """A functor into K: the inclusion of the full subgroupoid on a set of
    objects, a point, the identity, or the projection from the product
    with a discrete groupoid on range(n)."""
    kind, arg = spec
    if kind == "inclusion":
        S = full_subgroupoid(K, arg.__contains__)
        return Functor(S, K, lambda x: x, lambda m: m)
    if kind == "point":
        pt = discrete_groupoid(["*"])
        return Functor(pt, K, lambda _: arg, lambda m: K.identity(arg))
    if kind == "identity":
        return Functor(K, K, lambda x: x, lambda m: m)
    P = product_groupoid(K, discrete_groupoid(range(arg)))
    return Functor(P, K, lambda x: x[0], lambda m: m[2][0])


@st.composite
def iso_comma_cases(draw):
    case = draw(action_cases(blocks=2, points=3))
    objects = case.build().objects
    specs = [
        draw(
            st.one_of(
                st.tuples(st.just("inclusion"), st.frozensets(st.sampled_from(objects))),
                st.tuples(st.just("point"), st.sampled_from(objects)),
                st.tuples(st.just("identity"), st.none()),
                st.tuples(st.just("projection"), st.integers(1, 2)),
            )
        )
        for _ in range(2)
    ]

    def build():
        K = case.build()
        return iso_comma(functor_into(K, specs[0]), functor_into(K, specs[1]))[0]

    return Case(f"iso_comma over {case} of {specs}", build)


def _level_case(n, arities):
    from spanlab.spans import span_level

    return Case(f"span_level(finset({n}), {arities})", lambda: span_level(finset(n), arities))


LEVEL_CASES = [_level_case(n, arities) for n, arities in ((1, (1,)), (1, (2,)), (1, (1, 1)), (1, (3,)), (2, (1,)))]

groupoid_cases = st.one_of(action_cases(), subgroupoid_cases(), iso_comma_cases(), st.sampled_from(LEVEL_CASES))


@settings(max_examples=30, deadline=None)
@given(case=action_cases())
def test_action_unions_validate(case):
    assert case.build().validate()


@settings(max_examples=150, deadline=None)
@given(case=groupoid_cases)
def test_components_and_homs_match_the_row_walk(case):
    """components() gives the row walk's components, in its order, and
    hom(x, y) the full row's entry for every pair; a row completed after
    homs were asked in any order lists its targets in object order."""
    G = case.build()
    rows = [old_row(G, i) for i in range(len(G.objects))]
    morphisms = [m for row in rows for ms in row.values() for m in ms]
    assert G.components() == components_oracle(G, rows)
    for i, x in enumerate(G.objects):
        for j, y in enumerate(G.objects):
            assert G.hom(x, y) == rows[i].get(j, ())
        assert G.aut(x) == rows[i][i]
    assert G.all_morphisms() == morphisms
    H = case.build()
    for x in reversed(H.objects):
        for y in reversed(H.objects):
            H.hom(x, y)
    assert H.all_morphisms() == morphisms
    assert H.components() == G.components()


class TestPairByPair:
    @staticmethod
    def counted(G):
        """G with its builder's hom calls recorded in G.calls."""
        G.calls, hom = [], G._hom
        G._hom = lambda x, y: G.calls.append((x, y)) or hom(x, y)
        return G

    @settings(max_examples=60, deadline=None)
    @given(case=action_cases())
    def test_aut_asks_for_one_pair(self, case):
        G = self.counted(case.build())
        x = G.objects[-1]
        assert G.aut(x) == G.aut(x) != ()
        assert G.calls == [(x, x)]

    def test_completed_rows_answer_with_no_call(self):
        G = self.counted(action_union([(3, [(1, 0, 2)])], [(0, 0), (0, 1), (0, 2)]))
        assert len(G.all_morphisms()) == 6
        G.calls.clear()
        assert G.hom((0, 0), (0, 1)) == (((0, 0), (0, 1), (1, 0, 2)),)
        assert G.hom((0, 2), (0, 1)) == ()
        assert G.components() == [[(0, 0), (0, 1)], [(0, 2)]]
        assert G.calls == []

    def test_hom_across_keys_asks_for_none(self):
        G = self.counted(action_union([(2, [(1, 0)]), (1, [])], [(0, 0), (0, 1), (1, 0)], "orbit"))
        assert G.hom((0, 0), (1, 0)) == G.hom((1, 0), (0, 1)) == ()
        assert G.calls == []

    @settings(max_examples=60, deadline=None)
    @given(case=action_cases(keys=(None,)))
    def test_components_ask_at_most_n_times_c_homs(self, case):
        G = self.counted(case.build())
        n, c = len(G.objects), len(G.components())
        assert len(G.calls) <= n * c


# Each request builds its groupoids and drops them; the locsys checks also
# build their coefficients' table view.
CHECKS_THAT_BUILD_GROUPOIDS = {
    "span_level": lambda: span_level(finset(2), (1,), 2).components(),
    "mapping_category_check": lambda: mapping_category_check(finset(2), 1, 1, bound=2),
    "completeness_check": lambda: completeness_check(finset(3), 3),
    "locsys_battery_check": lambda: locsys_battery_check(cyclic_internal(3), 1),
    "locsys_equivalence_check": lambda: locsys_equivalence_check(walking_arrow_internal(), 2),
    "locsys_mapping_fiber_check": lambda: locsys_mapping_fiber_check(cyclic_internal(4), 2, (0, 0), 1, (0,), 2),
}


@pytest.mark.parametrize("check", list(CHECKS_THAT_BUILD_GROUPOIDS))
def test_groupoids_leave_no_reference_cycle(check):
    """A groupoid whose closures reach the groupoid itself, or a view that
    reaches back to its coefficients, outlives its request until the cycle
    collector runs; with the collector off, every object these requests
    build is freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        assert CHECKS_THAT_BUILD_GROUPOIDS[check]()
        assert gc.collect() == 0
    finally:
        gc.enable()
