"""Span diagrams: Kan extension, Cartesian certificates, levels, the Segal
comparison, invertibility, completeness, and mapping fibers."""
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import spans as spans_module
from spanlab.fincat import FinCategory, FinFunction, core, finset, slice_over_pair
from spanlab.groupoid import FinGroupoid, groupoids_equivalent, positions
from spanlab.shapes import SimplexMap, sigma_shape
from spanlab.spans import (
    Span,
    SpanDiagram,
    _has_inverse,
    all_spans,
    completeness_check,
    compose_spans,
    enumerate_lambda_data,
    identity_span,
    invertible_span_check,
    iso_to_identity_span,
    is_cartesian,
    kan_extend,
    mapping_category_check,
    mapping_fiber,
    natural_families,
    extend_natural_family,
    restrict_along,
    segal_check,
    span_level,
    underlying_2fold_level,
)
from spanlab.verdict import FootMismatchError, NoLimitError, ResourceError, SpanlabError


V = lambda i, j: ((i, j),)  # one-direction cell shorthand


def span_isos(base, s: Span, t: Span):
    """Isomorphisms of spans s -> t as (left, apex, right) component
    triples, found by search over every triple of isomorphisms."""
    out = []
    for gl in base.isos(s.left, t.left):
        for h in base.isos(s.apex, t.apex):
            if base.compose(t.lleg, h) != base.compose(gl, s.lleg):
                continue
            for gr in base.isos(s.right, t.right):
                if base.compose(t.rleg, h) == base.compose(gr, s.rleg):
                    out.append((gl, h, gr))
    return out


def two_span_lambda_data():
    """2 <- 1 -> 2 followed by 2 <- 3 -> 1 as free data on the length-one
    sub-poset of the two-interval shape."""
    obj = {V(0, 0): 2, V(1, 1): 2, V(2, 2): 1, V(0, 1): 1, V(1, 2): 3}
    mor = {
        (V(0, 1), V(0, 0)): FinFunction(1, 2, (0,)),
        (V(0, 1), V(1, 1)): FinFunction(1, 2, (1,)),
        (V(1, 2), V(1, 1)): FinFunction(3, 2, (0, 1, 1)),
        (V(1, 2), V(2, 2)): FinFunction(3, 1, (0, 0, 0)),
    }
    return obj, mor


class TestKanExtend:
    def test_one_interval_is_a_no_op(self):
        base = finset(2)
        s = Span(2, FinFunction(1, 2, (0,)), 1, FinFunction(1, 2, (1,)), 2)
        obj = {V(0, 0): s.left, V(0, 1): s.apex, V(1, 1): s.right}
        mor = {(V(0, 1), V(0, 0)): s.lleg, (V(0, 1), V(1, 1)): s.rleg}
        d = SpanDiagram(sigma_shape(1), base, obj, mor)
        ext = kan_extend(sigma_shape(1), base, d.obj, d.mor)
        assert ext.key == d.key
        read_off = Span(
            ext.obj[V(0, 0)],
            ext.mor[(V(0, 1), V(0, 0))],
            ext.obj[V(0, 1)],
            ext.mor[(V(0, 1), V(1, 1))],
            ext.obj[V(1, 1)],
        )
        assert read_off == s

    def test_two_interval_apex_is_the_pullback(self):
        base = finset(3)
        obj, mor = two_span_lambda_data()
        ext = kan_extend(sigma_shape(2), base, obj, mor)
        assert ext.obj[V(0, 2)] == 2  # 1 x_2 3 has two elements
        assert ext.validate()
        assert is_cartesian(ext)

    def test_product_shape_center(self):
        base = finset(1)
        shape = sigma_shape((1, 1))
        for lo, lm in itertools.islice(enumerate_lambda_data(shape, base), 40):
            ext = kan_extend(shape, base, lo, lm)
            assert ext.validate()
            assert is_cartesian(ext)

    def test_corrupted_apex_refuted(self):
        """Inflate the filled cell and map down by a surjection: the diagram
        still commutes but the comparison to the limit is not invertible."""
        base = finset(3)
        obj, mor = two_span_lambda_data()
        ext = kan_extend(sigma_shape(2), base, obj, mor)
        apex = V(0, 2)
        L = ext.obj[apex]
        surj = FinFunction(L + 1, L, tuple(min(i, L - 1) for i in range(L + 1)))
        obj2 = dict(ext.obj)
        mor2 = dict(ext.mor)
        obj2[apex] = L + 1
        for (a, b) in list(mor2):
            if a == apex:
                mor2[(a, b)] = base.compose(mor2[(a, b)], surj)
        bad = SpanDiagram(ext.shape, base, obj2, mor2)
        assert bad.validate()
        v = is_cartesian(bad)
        assert not v
        assert v.witness["cell"] == apex


class TestSpanComposition:
    def test_identity_up_to_iso(self):
        base = finset(2)
        s = Span(2, FinFunction(2, 2, (0, 1)), 2, FinFunction(2, 2, (1, 0)), 2)
        left = compose_spans(base, identity_span(base, 2), s)
        right = compose_spans(base, s, identity_span(base, 2))
        assert span_isos(base, left, s)
        assert span_isos(base, right, s)

    def test_worked_composite(self):
        base = finset(3)
        s = Span(2, FinFunction(3, 2, (0, 1, 1)), 3, FinFunction(3, 2, (0, 1, 1)), 2)
        t = Span(2, FinFunction(2, 2, (0, 1)), 2, FinFunction(2, 1, (0, 0)), 1)
        c = compose_spans(base, s, t)
        assert c.apex == 3
        assert (c.left, c.right) == (2, 1)

    def test_empty_composite(self):
        base = finset(2)
        s = Span(1, FinFunction(1, 1, (0,)), 1, FinFunction(1, 2, (0,)), 2)
        t = Span(2, FinFunction(1, 2, (1,)), 1, FinFunction(1, 1, (0,)), 1)
        c = compose_spans(base, s, t)
        assert c.apex == 0

    def test_foot_mismatch(self):
        base = finset(2)
        s = Span(1, FinFunction(1, 1, (0,)), 1, FinFunction(1, 2, (0,)), 2)
        with pytest.raises(FootMismatchError):
            compose_spans(base, s, s)

    def test_association_battery(self):
        """Both bracketings of a random composable triple are isomorphic."""
        base = finset(2)
        rng = random.Random(5)
        spans = all_spans(base)
        done = 0
        while done < 200:
            s = rng.choice(spans)
            cands_t = [t for t in spans if t.left == s.right]
            t = rng.choice(cands_t)
            cands_u = [u for u in spans if u.left == t.right]
            u = rng.choice(cands_u)
            lhs = compose_spans(base, compose_spans(base, s, t), u)
            rhs = compose_spans(base, s, compose_spans(base, t, u))
            assert span_isos(base, lhs, rhs)
            done += 1


class TestLevels:
    def test_level_one_interval_bound_one(self):
        level = span_level(finset(1), (1,))
        assert len(level.objects) == 5
        assert level.validate()
        assert all(len(level.aut(k)) == 1 for k in level.objects)

    def test_level_zero_is_the_core(self):
        base = finset(2)
        level = span_level(base, (0,))
        assert groupoids_equivalent(level, core(base))

    def test_lambda_data_count_oracle(self):
        """Free data on the two-interval shape are pairs of composable
        spans; the count factors through the middle foot."""
        base = finset(2)
        objs = base.objects_within(None)
        ending_at = {
            Y: sum(
                len(base.hom(A, X)) * len(base.hom(A, Y)) for A in objs for X in objs
            )
            for Y in objs
        }
        oracle = sum(ending_at[Y] * ending_at[Y] for Y in objs)
        data = list(enumerate_lambda_data(sigma_shape(2), base))
        assert len(data) == oracle == 971

    def test_all_two_interval_extensions_cartesian(self):
        base = finset(2)
        shape = sigma_shape(2)
        for lo, lm in enumerate_lambda_data(shape, base):
            assert is_cartesian(kan_extend(shape, base, lo, lm))

    def test_ceiling_raises(self):
        with pytest.raises(ResourceError):
            span_level(finset(1), (1,), ceiling=2)

    def test_level_over_a_base_without_products(self):
        """In the poset p, q <= x, y neither x and y nor p and q have a
        meet, so free data over those feet come from the cone search."""
        objs = ["p", "q", "x", "y"]
        leq = [(a, a) for a in objs] + [(a, b) for a in "pq" for b in "xy"]
        C = poset_category(objs, leq)
        assert C.validate()
        misses = []
        limit = C.limit_of_diagram

        def counting_limit(node_obj, arrows):
            try:
                return limit(node_obj, arrows)
            except NoLimitError:
                misses.append(sorted(node_obj.values()))
                raise

        C.limit_of_diagram = counting_limit
        level = span_level(C, (1,))
        # a span A -> X, A -> Y is a lower bound A of X and Y; only identities
        oracle = sum(sum(1 for a, b in leq if a == A) ** 2 for A in objs)
        assert len(level.objects) == len(list(level.all_morphisms())) == oracle == 20
        assert sorted(misses) == [["p", "q"], ["p", "q"], ["x", "y"], ["x", "y"]]


class TestSegal:
    def test_arity_one_trivial(self):
        v = segal_check(finset(2), (1,))
        assert v
        assert "identity" in v.details["note"]

    def test_small_exhaustive(self):
        v = segal_check(finset(1), (2,))
        assert v
        assert v.details["mode"] == "exhaustive"

    def test_sampled_mode_reported(self):
        v = segal_check(finset(2), (2, 2), samples=3, ceiling=100)
        assert v
        assert v.details["mode"] == "sampled"
        assert v.details["data_checked"] == 3

    def test_unique_extension_of_free_families(self):
        """A natural family on the free cells extends uniquely; the identity
        family extends to the identity."""
        base = finset(2)
        shape = sigma_shape(2)
        obj, mor = two_span_lambda_data()
        ext = kan_extend(shape, base, obj, mor)
        lam = shape.lambda_cells
        idfam = {c: base.identity(ext.obj[c]) for c in lam}
        full = extend_natural_family(ext, ext, idfam)
        assert full is not None
        assert all(full[c] == base.identity(ext.obj[c]) for c in shape.objects)


class TestInvertibility:
    def test_identity_span_invertible(self):
        base = finset(2)
        v = invertible_span_check(base)
        assert v
        assert v.details["spans_checked"] == len(all_spans(base))

    def test_small_base(self):
        assert invertible_span_check(finset(1))

    def test_no_spans_inconclusive(self):
        v = invertible_span_check(finset(2), bound=-1)
        assert v.status == "inconclusive"
        assert v.details["spans_checked"] == 0


def has_inverse_oracle(base, s: Span, bound) -> bool:
    """The inverse search that composes every candidate both ways: the slow
    oracle of spans._has_inverse."""
    for B in base.objects_within(bound):
        for l in base.hom(B, s.right):
            for r in base.hom(B, s.left):
                t = Span(s.right, l, B, r, s.left)
                if iso_to_identity_span(base, compose_spans(base, s, t)) and iso_to_identity_span(
                    base, compose_spans(base, t, s)
                ):
                    return True
    return False


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


def outcome(search, *args):
    """The result of a search, or the type of the exception it raised."""
    try:
        return search(*args)
    except NoLimitError as exc:
        return type(exc)


class TestInverseSearch:
    """The pruned inverse search against the search composing every
    candidate."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_every_finset_span(self, n):
        base = finset(n)
        for s in all_spans(base):
            for bound in (None, -1, *range(n + 1)):
                assert _has_inverse(base, s, bound) == has_inverse_oracle(base, s, bound), (s, bound)

    def test_every_span_of_the_divisor_lattice_of_12(self):
        base = divisor_lattice(12)
        assert base.validate()
        found = [_has_inverse(base, s, None) for s in all_spans(base)]
        assert found == [has_inverse_oracle(base, s, None) for s in all_spans(base)]
        assert sum(found) == 6  # the identity spans

    def test_raises_where_the_oracle_raises(self):
        """Over the poset p, q <= x, y the cospan p -> x <- q has no
        pullback: both searches raise NoLimitError on the same spans."""
        objs = ["p", "q", "x", "y"]
        base = poset_category(objs, [(a, a) for a in objs] + [(a, b) for a in "pq" for b in "xy"])
        assert base.validate()
        got = [outcome(_has_inverse, base, s, None) for s in all_spans(base)]
        assert got == [outcome(has_inverse_oracle, base, s, None) for s in all_spans(base)]
        assert NoLimitError in got and True in got and False in got

    @given(st.sampled_from(all_spans(finset(3))), st.one_of(st.none(), st.integers(-1, 3)))
    @settings(max_examples=60, deadline=None)
    def test_finset3_spans(self, s, bound):
        base = finset(3)
        assert _has_inverse(base, s, bound) == has_inverse_oracle(base, s, bound)


class TestCompleteness:
    def test_no_objects_inconclusive(self):
        v = completeness_check(finset(2), bound=-1)
        assert v.status == "inconclusive"
        assert v.details["objects"] == 0

    def test_finset_bases(self):
        for n in (1, 2):
            v = completeness_check(finset(n))
            assert v
            assert v.details["objects"] == n + 1

    def test_discrete_category_base(self):
        C = FinCategory(
            [0, 1],
            {"id0": (0, 0), "id1": (1, 1)},
            {0: "id0", 1: "id1"},
            {("id0", "id0"): "id0", ("id1", "id1"): "id1"},
        )
        v = completeness_check(C)
        assert v
        assert v.details["invertible_spans"] == 2


class TestMapping:
    def test_point_pair_over_finset2(self):
        fiber = mapping_fiber(finset(2), 1, 1)
        assert len(fiber.components()) == 3
        v = mapping_category_check(finset(2), 1, 1)
        assert v
        assert v.details["fiber_objects"] >= 3

    def test_empty_feet(self):
        v = mapping_category_check(finset(1), 0, 0)
        assert v
        assert v.details["slice_side_objects"] == 1


class TestTwoFold:
    def test_degenerate_second_direction_is_one_fold(self):
        base = finset(1)
        sub = underlying_2fold_level(base, (1, 0))
        level = span_level(base, (1,))
        assert groupoids_equivalent(sub, level)

    def test_degenerate_first_direction_is_objects(self):
        base = finset(1)
        sub = underlying_2fold_level(base, (0, 1))
        assert groupoids_equivalent(sub, core(base))

    def test_degeneracy_predicate_filters(self):
        base = finset(1)
        level = span_level(base, (1, 1))
        sub = underlying_2fold_level(base, (1, 1))
        assert 0 < len(sub.objects) < len(level.objects)


class TestRestriction:
    def test_restriction_functorial(self):
        """Pulling back along a composite of interval maps agrees with
        restricting in two steps."""
        base = finset(1)
        shape = sigma_shape(2)
        maps = [
            SimplexMap(n, m, vals)
            for (n, m) in [(1, 2), (0, 1), (1, 1)]
            for vals in itertools.product(range(m + 1), repeat=n + 1)
            if all(a <= b for a, b in zip(vals, vals[1:]))
        ]
        data = list(itertools.islice(enumerate_lambda_data(shape, base), 10))
        for lo, lm in data:
            d = kan_extend(shape, base, lo, lm)
            for phi in maps:
                if phi.target_size != 2:
                    continue
                mid = sigma_shape(phi.source_size)
                d1 = restrict_along(mid, phi, d)
                assert d1.validate()
                for psi in maps:
                    if psi.target_size != phi.source_size:
                        continue
                    small = sigma_shape(psi.source_size)
                    two_step = restrict_along(small, psi, d1)
                    one_step = restrict_along(small, phi.compose(psi), d)
                    assert two_step.key == one_step.key

    def test_outer_edge_of_worked_extension(self):
        base = finset(3)
        obj, mor = two_span_lambda_data()
        ext = kan_extend(sigma_shape(2), base, obj, mor)
        outer = restrict_along(sigma_shape(1), SimplexMap(1, 2, (0, 2)), ext)
        assert (outer.obj[V(0, 0)], outer.obj[V(0, 1)], outer.obj[V(1, 1)]) == (2, 2, 1)


# ---------------------------------------------------------------------------
# the level from canonical forms against the pairwise oracle


def pairwise_level(base, arities, bound=None):
    """The level groupoid as a search over every ordered pair of diagrams:
    each hom lists the natural Lambda families that natural_families finds,
    each extended to the full shape (the slow oracle of span_level)."""
    shape = sigma_shape(arities)
    diagrams = {}
    for lo, lm in enumerate_lambda_data(shape, base, bound):
        d = kan_extend(shape, base, lo, lm)
        diagrams[d.key] = d
    keys = sorted(diagrams)
    listed, at = [diagrams[k] for k in keys], positions(keys)

    def hom(k1, k2):
        d1, d2 = listed[at(k1)], listed[at(k2)]
        if any(d1.obj[c] != d2.obj[c] and not base.isos(d1.obj[c], d2.obj[c]) for c in d1.obj):
            return []
        fulls = (
            extend_natural_family(d1, d2, fam)
            for fam in natural_families(base, shape, shape.lambda_cells, d1, d2)
        )
        return [tuple(sorted(full.items())) for full in fulls if full is not None]

    return FinGroupoid(keys, hom, None, None, None)


def two_isomorphic_objects():
    """Objects a and b, isomorphic, each with automorphism group Z/2 (the
    morphism xyk: x -> y carries k mod 2), and one map from each into c."""
    morphs = {f"{x}{y}{k}": (x, y) for x in "ab" for y in "ab" for k in "01"}
    morphs.update({"ac": ("a", "c"), "bc": ("b", "c"), "cc": ("c", "c")})
    comp = {}
    for g, (gs, gt) in morphs.items():
        for f, (fs, ft) in morphs.items():
            if ft != gs:
                continue
            if gt == "c":
                comp[(g, f)] = "cc" if fs == "c" else fs + "c"
            else:
                comp[(g, f)] = f"{fs}{gt}{(int(g[2]) + int(f[2])) % 2}"
    return FinCategory(["a", "b", "c"], morphs, {"a": "aa0", "b": "bb0", "c": "cc"}, comp)


class TestCanonicalLevel:
    @pytest.mark.parametrize(
        "base, arities, sizes",
        [
            (lambda: finset(1), (1,), (5, 5, 5)),
            (lambda: finset(1), (2,), (13, 13, 13)),
            (lambda: finset(1), (2, 1), (518, 518, 518)),
            (lambda: finset(1), (1, 1), (48, 48, 48)),
            (lambda: finset(2), (1,), (43, 203, 22)),
            (lambda: divisor_lattice(12), (1,), (70, 70, 70)),
            (two_isomorphic_objects, (1,), (51, 2313, 5)),
            (lambda: slice_over_pair(finset(2), 1, 2), (1,), (205, 1023, 87)),
        ],
        ids=["finset1-1", "finset1-2", "finset1-2-1", "finset1-1-1", "finset2-1", "lattice12-1",
             "isomorphic-objects", "slice"],
    )
    def test_same_groupoid_as_the_pairwise_oracle(self, base, arities, sizes):
        """Same objects, morphisms in the same order, same components."""
        base = base()
        assert base.validate()
        level, oracle = span_level(base, arities), pairwise_level(base, arities)
        morphisms, components = level.all_morphisms(), level.components()
        assert level.objects == oracle.objects
        assert morphisms == oracle.all_morphisms()
        assert components == oracle.components()
        assert (len(level.objects), len(morphisms), len(components)) == sizes

    def test_finset2_arity2_counts(self):
        level, _ = _finset2_arity2()
        assert len(level.objects) == 971
        assert len(level.all_morphisms()) == 15537
        assert len(level.components()) == 219

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_finset2_arity2_homs_sampled(self, data):
        """Homs between members of one component, or of two, against the
        pairwise hom on the shared finset:2 level at arity 2."""
        level, oracle = _finset2_arity2()
        components = level.components()
        first = data.draw(st.sampled_from(components))
        second = data.draw(st.sampled_from([first, *components[:5]]))
        x, y = data.draw(st.sampled_from(first)), data.draw(st.sampled_from(second))
        assert level.hom(x, y) == oracle.hom(x, y)

    def test_hom_is_only_searched_inside_buckets(self, monkeypatch):
        """On a poset every bucket is one diagram: one hom call per object,
        and the identity family is never extended."""
        level = span_level(finset(1), (5,))
        calls, hom = [], level._hom
        level._hom = lambda x, y: calls.append((x, y)) or hom(x, y)
        extended, extend = [], spans_module.extend_natural_family
        monkeypatch.setattr(spans_module, "extend_natural_family", lambda *a: extended.append(a) or extend(*a))
        assert len(level.all_morphisms()) == len(level.objects) == 233
        assert calls == [(x, x) for x in level.objects]
        assert extended == []

    def test_failed_extension_raises(self, monkeypatch):
        """A transport that fails to extend is an error, never a dropped
        morphism."""
        monkeypatch.setattr(spans_module, "extend_natural_family", lambda d1, d2, fam: None)
        level = span_level(finset(2), (1,))
        with pytest.raises(SpanlabError, match="fails to extend"):
            level.all_morphisms()


@functools.lru_cache(maxsize=None)
def _finset2_arity2():
    """The finset:2 level at arity 2 and its pairwise oracle, built once."""
    return span_level(finset(2), (2,)), pairwise_level(finset(2), (2,))
