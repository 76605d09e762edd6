"""Span diagrams: Kan extension, Cartesian certificates, levels, the Segal
comparison, invertibility, completeness, and mapping fibers."""
import collections
import functools
import gc
import hashlib
import itertools
import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import groupoid as groupoid_module
from spanlab import segal as segal_module
from spanlab import spans as spans_module
from spanlab.cli import run_request
from spanlab.fincat import FinCategory, FinFunction, FinSetCategory, SliceCategory, core, finset, slice_over_pair
from spanlab.groupoid import FinGroupoid, groupoids_equivalent, positions
from spanlab.inverse import has_inverse, inverse_candidates
from spanlab.segal import check_families, check_one_datum, check_twist, draw_twist, edge_piece
from spanlab.shapes import SimplexMap, sigma_shape
from spanlab.spans import (
    Span,
    SpanDiagram,
    all_spans,
    completeness_check,
    compose_spans,
    count_lambda_data,
    enumerate_lambda_data,
    identity_span,
    invertible_span_check,
    iso_to_identity_span,
    is_cartesian,
    is_natural_family,
    kan_extend,
    mapping_category_check,
    mapping_fiber,
    natural_families,
    natural_family_generators,
    extend_natural_family,
    random_natural_family,
    restrict_along,
    sample_lambda_data,
    segal_check,
    span_level,
    underlying_2fold_level,
)
from spanlab.verdict import FootMismatchError, NoLimitError, ResourceError, SpanlabError, Verdict
from test_fincat import divisor_lattice, finset_table, no_pullback_poset, poset_category, slice_table


V = lambda i, j: ((i, j),)  # one-direction cell shorthand
FINSET2_TABLE = finset_table(finset(2))


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


def identity_lambda_data(shape, n):
    """Free data with n points at every Lambda cell and identity arrows."""
    lam = shape.lambda_cells
    ident = FinFunction(n, n, tuple(range(n)))
    return {c: n for c in lam}, {ab: ident for ab in shape.arrows_among(lam)}


def validate_oracle(d: SpanDiagram) -> Verdict:
    """SpanDiagram.validate's composition test as a scan over every object
    c with a (b, c) in order test (its endpoints hold by construction)."""
    order = d.shape.order
    for a, b in d.comparable_pairs():
        for c in d.shape.objects:
            if c != b and c != a and (b, c) in order:
                if d.base.compose(d.mor[(b, c)], d.mor[(a, b)]) != d.mor[(a, c)]:
                    return Verdict.refuted(witness={"triple": (a, b, c), "reason": "composition mismatch"})
    return Verdict.verified()


def random_natural_family_oracle(base, shape, cells, d, rng):
    """The family search that checks each candidate with is_natural_family
    over the partial family: the oracle of spans.random_natural_family."""
    order = sorted(cells, key=shape.fill_rank.__getitem__)
    for _ in range(12):
        fam = {}
        ok = True
        for c in order:
            cands = [
                g
                for g in base.isos(d.obj[c], d.obj[c])
                if is_natural_family(base, shape, list(fam) + [c], d, d, {**fam, c: g})
            ]
            if not cands:
                ok = False
                break
            fam[c] = rng.choice(cands)
        if ok:
            return fam
    return {c: base.identity(d.obj[c]) for c in cells}


def extend_natural_family_oracle(d1, d2, fam):
    """The extension that compares every square of the full family, those
    from a filled cell into its Lambda up-set included: the oracle of
    spans.extend_natural_family."""
    shape, base = d1.shape, d1.base
    lam = shape.lambda_set
    full = dict(fam)
    for c in shape.fill_order:
        if c in lam:
            continue
        try:
            node_obj, L, legs, u2 = spans_module._cell_comparison(d2, c)
            if not base.is_iso(u2):
                return None
            cone1 = {b: base.compose(full[b], d1.mor[(c, b)]) for b in node_obj}
            w = base.factor_through_limit(L, legs, d1.obj[c], cone1, node_obj)
        except NoLimitError:
            return None
        h = base.compose(base.inverse(u2), w)
        if not base.is_iso(h):
            return None
        full[c] = h
    if not is_natural_family(base, shape, shape.objects, d1, d2, full):
        return None
    return full


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

    def test_ceiling_raises(self, monkeypatch):
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "2")
        with pytest.raises(ResourceError):
            span_level(finset(1), (1,))

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

    def test_sampled_mode_reported(self, monkeypatch):
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "100")
        v = segal_check(finset(2), (2, 2), samples=3)
        assert v
        assert v.details["mode"] == "sampled"
        assert v.details["data_checked"] == 3

    def test_sampled_over_a_slice(self):
        """Over 2 x 2 the slice's 21 objects put the data over the cap, so
        the run samples, drawing homs with SliceCategory.random_hom."""
        v = segal_check(slice_over_pair(finset(2), 2, 2), (2,), bound=2)
        assert v and v.details["mode"] == "sampled" and v.details["data_checked"] == 24

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

    def test_sampled_data_stream_pinned(self, monkeypatch):
        """The free data a sampled run checks are pinned.  The twist battery
        draws from the sampler's Random, so this also pins its draws.
        Counted on one CPU, as test_compose_calls_pinned is."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "100")
        seen, check = [], segal_module.check_one_datum

        def record(shape, base, lo, lm, dirs):
            seen.append((sorted(lo.items()), sorted(lm.items())))
            return check(shape, base, lo, lm, dirs)

        monkeypatch.setattr(segal_module, "check_one_datum", record)
        assert segal_check(finset(2), (2, 2), samples=6, seed=3)
        assert len(seen) == 6
        digest = hashlib.sha256(repr(seen).encode()).hexdigest()
        assert digest == "3fa7b2662fc279ee3080ecec7067ca3d012ec383eae146f38be92bdeef6211dd"

    def test_each_cell_limit_taken_once_per_diagram(self, monkeypatch):
        """Kan extension takes the limit of the one filled cell; the
        Cartesian certificate reuses it, as its diagram is the one read off
        the extension, and the extensions of the free families reuse the
        certificate's.  A plain kan_extend leaves no comparison on the
        diagram."""
        base, shape = finset(2), sigma_shape(2)
        obj, mor = identity_lambda_data(shape, 2)
        calls, limit = [], base.limit_of_diagram
        monkeypatch.setattr(base, "limit_of_diagram", lambda *a: calls.append(a) or limit(*a))
        v, ext = check_one_datum(shape, base, obj, mor, [0])
        assert v
        assert len(list(natural_families(base, shape, ext, ext))) == 2
        assert len(calls) == 1
        assert kan_extend(shape, base, obj, mor).comparisons == {}

    def test_compose_calls_pinned(self, monkeypatch):
        """segal_check(finset(2), (2,)) composes 7,870 times.  Squares are
        compared on values by base.commutes and the free data are counted
        by a closed form.  The battery does not extend the identity family
        of its 971 Cartesian data, which took 6 composites each (the five
        cone legs of the one filled cell and u2^-1 . w), 5,826 in all, nor
        compare the squares its construction proves: 9 for each identity
        family and the 5 from the filled cell into its Lambda up-set for
        each family it extends.  Nor does extend_natural_family compare the
        4 squares among the Lambda cells, which the family search built
        natural.  It extends the 945 generators of a stabilizer chain, not
        the 1,130 families other than the identity, so it takes 6
        composites fewer for each of the 185 it skips (8,980 composites
        while every family was extended).  The twist battery's 24
        families, on edge pieces of shape (1,) with no filled cell, are
        not extended, which saves the two composites of each of their 2
        Lambda squares (96 in all).  With commutes building both
        composites of each square it compares, the run composes 30,602
        times: 55,362 while every family was extended.  The chain's
        searches, which reach each Lambda arrow as soon as its ends are
        placed, compare 11,333 squares where the full family search
        compared 23,191 (23,716 composites fewer).  The twists' family
        draws compare squares too, so this figure also depends on the
        pieces and families that each twist draws from its own Random.
        Counted on one CPU, so that no datum is checked in a worker, whose
        calls are not seen here."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, compose = [], FinSetCategory.compose
        monkeypatch.setattr(FinSetCategory, "compose", lambda B, g, f: calls.append(1) or compose(B, g, f))
        assert segal_check(finset(2), (2,))
        assert len(calls) == 7870
        calls.clear()
        monkeypatch.setattr(FinSetCategory, "commutes", lambda B, g, f, k, h: B.compose(g, f) == B.compose(k, h))
        assert segal_check(finset(2), (2,))
        assert len(calls) == 30602

    def test_extension_calls_pinned(self, monkeypatch):
        """segal_check(finset(2), (2,)) extends 945 families: the
        generators of each datum's stabilizer chain.  Extending every
        family other than the identity took 1,130.  Counted on one CPU,
        as test_compose_calls_pinned is."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, extend = [], spans_module.extend_natural_family
        monkeypatch.setattr(
            spans_module, "extend_natural_family", lambda d1, d2, fam: calls.append(1) or extend(d1, d2, fam)
        )
        assert segal_check(finset(2), (2,))
        assert len(calls) == 945

    def test_free_data_listed_once(self, monkeypatch):
        """finset:1 at (2, 1) has no partial count that reaches the cap, so
        its 518 data are counted by the lifted form, from the 5 data of
        shape (1,), and the data of shape (2, 1) are enumerated once in
        this process, by the exhaustive run that checks them."""
        calls, enumerate_data = [], spans_module.enumerate_lambda_data
        monkeypatch.setattr(
            spans_module, "enumerate_lambda_data", lambda *a: calls.append(a[0].arities) or enumerate_data(*a)
        )
        v = segal_check(finset(1), (2, 1))
        assert v.details["mode"] == "exhaustive" and v.details["data_checked"] == 518
        assert calls.count((2, 1)) == 1 and calls.count((1,)) == 1

    def test_sampled_stream_over_listed_data_pinned(self, monkeypatch):
        """Under a ceiling of 2,000 the 518 data of finset:1 at (2, 1) are
        over the cap of 112, so the count only decides the mode: the run
        samples, and the samples it checks, which follow the twist draws
        from the same Random, are those it drew when the data were listed
        to count them.  Counted on one CPU, as test_compose_calls_pinned
        is."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "2000")
        seen, check = [], segal_module.check_one_datum

        def record(shape, base, lo, lm, dirs):
            seen.append((sorted(lo.items()), sorted(lm.items())))
            return check(shape, base, lo, lm, dirs)

        monkeypatch.setattr(segal_module, "check_one_datum", record)
        v = segal_check(finset(1), (2, 1), samples=5, seed=2)
        assert v.details["mode"] == "sampled" and v.details["data_checked"] == 5
        digest = hashlib.sha256(repr(seen).encode()).hexdigest()
        assert digest == "b79d8828910e74c8a439b4388caa3d4b41d2f9da9d735417fd1cc68e532cb103"

    def test_posets_extend_only_twist_families(self, monkeypatch):
        """Over a poset every isomorphism is an identity, so the free data
        have only the identity family, which the battery does not extend.
        The only extensions are the twist battery's, one per draw, on edge
        pieces with a filled cell: in one direction the pieces, of shape
        (1,), have none, so their 24 families are drawn and not extended.
        Counted on one CPU, as test_compose_calls_pinned is."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, extend = [], spans_module.extend_natural_family
        draws, draw = [], spans_module.random_natural_family
        monkeypatch.setattr(
            spans_module,
            "extend_natural_family",
            lambda d1, d2, fam: calls.append(d1.shape.arities) or extend(d1, d2, fam),
        )
        monkeypatch.setattr(
            spans_module,
            "random_natural_family",
            lambda base, shape, d, rng: draws.append(shape.arities) or draw(base, shape, d, rng),
        )
        for base, arities in ((finset(1), (5,)), (divisor_lattice(30), (2,))):
            calls.clear()
            draws.clear()
            assert segal_check(base, arities).details["mode"] == "exhaustive"
            assert (calls, draws) == ([], [(1,)] * 24)
        calls.clear()
        draws.clear()
        assert segal_check(finset(1), (2, 2)).details["mode"] == "sampled"
        assert calls == draws and len(calls) == 24 and set(calls) == {(1, 2), (2, 1)}

    def test_edge_pieces_built_only_for_twists(self, monkeypatch):
        """In one direction every edge piece has only Lambda cells, so the
        battery builds none; segal_check(finset(2), (2,)) builds one for
        each of its 24 twist draws.  Counted on one CPU, as
        test_compose_calls_pinned is."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, piece = [], segal_module.edge_piece
        monkeypatch.setattr(segal_module, "edge_piece", lambda d, r, i: calls.append(1) or piece(d, r, i))
        assert segal_check(finset(2), (2,))
        assert len(calls) == 24

    @pytest.mark.parametrize("arities", [(2,), (2, 1), (2, 2)])
    def test_edge_pieces_with_filled_cells_are_checked(self, arities, monkeypatch):
        """A piece that is not Cartesian refutes the datum with its
        direction and edge.  At (2,) and (2, 1) the pieces, of shapes (1,)
        and (1, 1), have no filled cell and are not checked; at (2, 2) the
        first piece, of shape (1, 2), is."""
        base, shape = finset(1), sigma_shape(arities)
        cartesian = spans_module.is_cartesian

        def refute_pieces(d, limits=None):
            if d.shape is shape:
                return cartesian(d, limits)
            return Verdict.refuted(witness={"reason": "piece"})

        monkeypatch.setattr(spans_module, "is_cartesian", refute_pieces)
        dirs = [r for r, n in enumerate(arities) if n >= 2]
        v, _ = check_one_datum(shape, base, *identity_lambda_data(shape, 1), dirs)
        if arities == (2, 2):
            assert v.witness == {"direction": 0, "edge": 1, "inner": {"reason": "piece"}}
        else:
            assert v

    def test_identity_family_is_not_extended(self, monkeypatch):
        """With every extension failing, the witness is the first natural
        family other than the identity, which comes first but is not
        extended."""
        base, shape = finset(2), sigma_shape(2)
        obj, mor = identity_lambda_data(shape, 2)
        monkeypatch.setattr(spans_module, "extend_natural_family", lambda d1, d2, fam: None)
        v, _ = check_one_datum(shape, base, obj, mor, [0])
        swap = FinFunction(2, 2, (1, 0))
        assert v.witness == {
            "reason": "free-data automorphism fails to extend",
            "family": {c: swap for c in shape.lambda_cells},
        }

    def test_data_enumeration_leaves_no_reference_cycle(self):
        """A finished free-data enumeration frees its data by reference
        counting alone."""
        gc.collect()
        assert len(list(enumerate_lambda_data(sigma_shape(2), finset(1)))) == 13
        assert gc.collect() == 0

    def test_family_search_leaves_no_reference_cycle(self):
        """A finished natural-family search frees its families and
        diagrams by reference counting alone."""
        base, shape = finset(2), sigma_shape(2)
        obj, mor = identity_lambda_data(shape, 2)
        ext = kan_extend(shape, base, obj, mor)
        gc.collect()
        assert len(list(natural_families(base, shape, ext, ext))) == 2
        assert gc.collect() == 0

    def test_twist_refutes_a_non_functorial_piece(self):
        """Identity spans on two points, with every arrow between filled
        cells swapped: every natural family still extends (S2 is abelian),
        and piece.validate() refutes the composites."""
        base, shape = finset(2), sigma_shape((2, 2))
        datum = identity_lambda_data(shape, 2)
        ext = kan_extend(shape, base, *datum)
        lam, swap = shape.lambda_set, FinFunction(2, 2, (1, 0))
        mor = {ab: m if lam & set(ab) else swap for ab, m in ext.mor.items()}
        bad = SpanDiagram(shape, base, ext.obj, mor)
        for seed in range(4):
            v = check_twist(bad, *draw_twist(shape, base, *datum, [0, 1], random.Random(seed)))
            assert v.status == "refuted"
            assert v.witness["reason"] == "composition mismatch"
        assert check_twist(ext, *draw_twist(shape, base, *datum, [0, 1], random.Random(0)))

    @pytest.mark.parametrize("arities", [(2,), (2, 1), (2, 2), (3,)])
    def test_validate_names_the_first_triple_of_the_full_scan(self, arities):
        """validate walks each b's strict up-set, which lists the triples
        (a, b, c) of the scan over every object c with a (b, c) in order
        test, in the same order; the scan is the oracle."""
        base, shape = finset(2), sigma_shape(arities)
        ext = kan_extend(shape, base, *identity_lambda_data(shape, 2))
        rng, swap, seen = random.Random(0), FinFunction(2, 2, (1, 0)), set()
        for k in range(1, 30):
            mor = dict(ext.mor)
            for ab in rng.sample(sorted(mor), k % 4):
                mor[ab] = swap
            bad = SpanDiagram(shape, base, ext.obj, mor)
            v, oracle = bad.validate(), validate_oracle(bad)
            assert (v.status, v.witness) == (oracle.status, oracle.witness)
            seen.add(v.status)
        assert seen == {"verified", "refuted"}

    def test_twist_family_that_fails_to_extend(self, monkeypatch):
        """A twist family that fails to extend refutes in mode twist.  At
        (2, 2) the twist pieces, of shapes (1, 2) and (2, 1), have a filled
        cell, so they are extended."""
        extend = spans_module.extend_natural_family

        def extend_but_not_on_pieces(d1, d2, fam):
            return None if d1.shape.arities != (2, 2) else extend(d1, d2, fam)

        monkeypatch.setattr(spans_module, "extend_natural_family", extend_but_not_on_pieces)
        v = segal_check(finset(1), (2, 2))
        assert v.status == "refuted"
        assert v.details == {"mode": "twist"}
        assert v.witness == {"reason": "twist family fails to extend"}

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(2,), (3,), (2, 2)]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    )
    def test_random_family_matches_the_full_check(self, arities, data_seed, seed):
        """random_natural_family against the search that checks each
        candidate with is_natural_family over the partial family: the same
        family, and the Random left in the same state."""
        base, shape = finset(2), sigma_shape(arities)
        draw = random.Random(data_seed)
        ext = kan_extend(shape, base, *sample_lambda_data(shape, base, None, draw))
        r = draw.choice([r for r, n in enumerate(arities) if n >= 2])
        piece = edge_piece(ext, r, draw.randrange(1, arities[r] + 1))
        small = piece.shape
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        fam = random_natural_family(base, small, piece, rng)
        assert fam == random_natural_family_oracle(base, small, small.lambda_cells, piece, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(2,), (2, 1), (2, 2), (3, 1)]),
        st.sampled_from(["finset", "table"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    )
    def test_a_twist_draws_on_the_free_datum_as_on_its_piece(self, arities, which, data_seed, seed):
        """Draw lemma (draw_twist): the direction, edge and family drawn
        on a free datum's restriction to the edge's Lambda cells are
        those drawn on the edge piece of its Kan extension, and the Random
        is left in the same state.  The table base is finset:2 as tables,
        with its swaps; data whose limits leave it are drawn again."""
        base = finset(2) if which == "finset" else FINSET2_TABLE
        shape, dirs = sigma_shape(arities), [r for r, n in enumerate(arities) if n >= 2]
        for k in range(data_seed, data_seed + 500):
            try:
                datum = sample_lambda_data(shape, base, None, random.Random(k))
                ext = kan_extend(shape, base, *datum)
                break
            except NoLimitError:
                continue
        else:
            pytest.fail("no datum with limits in the table base")
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        r, i, fam = draw_twist(shape, base, *datum, dirs, rng)
        r2 = oracle_rng.choice(dirs)
        i2 = oracle_rng.randrange(1, arities[r2] + 1)
        piece = edge_piece(ext, r2, i2)
        assert (r, i, fam) == (r2, i2, random_natural_family(base, piece.shape, piece, oracle_rng))
        assert rng.getstate() == oracle_rng.getstate()


def with_one_arrow_replaced(d, kind, data):
    """d with one arrow of the given kind ("lambda" between Lambda cells,
    "filled-lambda" or "filled-filled") replaced by another morphism with
    the same ends, drawn by data; d itself when no such arrow has one.
    Homs of finite sets are counted and drawn from, not listed: a filled
    cell over finset:3 can be a set of 27 points."""
    lam, base = d.shape.lambda_set, d.base
    finite_sets = isinstance(base, FinSetCategory)
    kinds = {(True, True): "lambda", (False, True): "filled-lambda", (False, False): "filled-filled"}
    arrows = [
        ab
        for ab in sorted(d.mor)
        if kinds[(ab[0] in lam, ab[1] in lam)] == kind
        and (d.obj[ab[1]] ** d.obj[ab[0]] if finite_sets else len(base.hom(d.obj[ab[0]], d.obj[ab[1]]))) > 1
    ]
    if not arrows:
        return d
    a, b = data.draw(st.sampled_from(arrows))
    old = d.mor[(a, b)]
    if finite_sets:
        x, y = d.obj[a], d.obj[b]
        m = FinFunction(x, y, tuple(data.draw(st.integers(0, y - 1)) for _ in range(x)))
        if m == old:  # another value at one point
            i = data.draw(st.integers(0, x - 1))
            v = data.draw(st.sampled_from([v for v in range(y) if v != old.values[i]]))
            m = FinFunction(x, y, old.values[:i] + (v,) + old.values[i + 1 :])
    else:
        m = data.draw(st.sampled_from([m for m in base.hom(d.obj[a], d.obj[b]) if m != old]))
    return SpanDiagram(d.shape, base, d.obj, {**d.mor, (a, b): m})


class TestExtension:
    CASES = {
        "finset2-2": (lambda: finset(2), (2,)),
        "finset2-3": (lambda: finset(2), (3,)),
        "finset2-2-2": (lambda: finset(2), (2, 2)),
        "lattice12-2": (lambda: divisor_lattice(12), (2,)),
        "slice-2": (lambda: slice_over_pair(finset(2), 1, 1), (2,)),
    }

    @pytest.mark.parametrize("case", CASES)
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_full_check(self, case, data):
        """extend_natural_family, behind its precondition, against the
        oracle that compares every square: the same full family, or None
        from both.  The precondition is tested as span_level's _extend
        tests it: a family not natural on the Lambda cells is None without
        being extended.  The free datum is sampled and Kan-extended; either
        diagram, or both, may have one arrow of any kind replaced; the
        Lambda family is a natural one or any isomorphism at each cell."""
        make_base, arities = self.CASES[case]
        base, shape = make_base(), sigma_shape(arities)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        ext = kan_extend(shape, base, *sample_lambda_data(shape, base, None, rng))
        kind = data.draw(st.sampled_from(["none", "lambda", "filled-lambda", "filled-filled"]))
        bad = ext if kind == "none" else with_one_arrow_replaced(ext, kind, data)
        d1, d2 = data.draw(st.sampled_from([(ext, ext), (bad, bad), (ext, bad), (bad, ext)]))
        lam = shape.lambda_cells
        natural = list(itertools.islice(natural_families(base, shape, d1, d2), 64))
        if natural and data.draw(st.booleans()):
            fam = data.draw(st.sampled_from(natural))
        else:
            fam = {c: data.draw(st.sampled_from(base.isos(d1.obj[c], d2.obj[c]))) for c in lam}
        natural = is_natural_family(base, shape, lam, d1, d2, fam)
        full = extend_natural_family(d1, d2, fam) if natural else None
        assert full == extend_natural_family_oracle(d1, d2, fam)

    def test_squares_among_filled_cells_are_compared(self):
        """Identity data on three points at arity (3,), with the arrow from
        the filled cell (0,3) to the filled cell (0,2) replaced by a
        transposition.  The 3-cycle on every Lambda cell is natural there
        and extends by the same cycle at every filled cell, but it does not
        commute with the transposition, so it does not extend; the
        transposition itself does."""
        base, shape = finset(3), sigma_shape(3)
        ext = kan_extend(shape, base, *identity_lambda_data(shape, 3))
        swap, cycle = FinFunction(3, 3, (1, 0, 2)), FinFunction(3, 3, (1, 2, 0))
        bad = SpanDiagram(shape, base, ext.obj, {**ext.mor, (V(0, 3), V(0, 2)): swap})
        lam = shape.lambda_cells
        natural = list(natural_families(base, shape, bad, bad))
        rotate, transpose = ({c: g for c in lam} for g in (cycle, swap))
        assert rotate in natural and transpose in natural
        assert extend_natural_family(ext, ext, rotate) == {c: cycle for c in shape.objects}
        assert extend_natural_family(bad, bad, rotate) is None
        assert extend_natural_family_oracle(bad, bad, rotate) is None
        assert extend_natural_family(bad, bad, transpose) == {c: swap for c in shape.objects}


def natural_families_oracle(base, shape, d1, d2):
    """The backtracking search over the Lambda cells in fill order, which
    places every vertex before the first edge: the oracle of
    spans.natural_families."""
    order = sorted(shape.lambda_cells, key=shape.fill_rank.__getitem__)
    return spans_module._natural_extensions(base, shape, order, d1, d2, 0, {}, base.isos)


def check_families_oracle(base, shape, d):
    """Every natural family other than the identity extended, in the order
    of the fill-order search, until one fails: the oracle of
    segal.check_families' verdict."""
    for fam in natural_families_oracle(base, shape, d, d):
        if not spans_module._is_identity_family(base, d, fam) and extend_natural_family(d, d, fam) is None:
            return Verdict.refuted(witness={"reason": "free-data automorphism fails to extend", "family": fam})
    return Verdict.verified()


def assert_families_checked_as_the_full_loop(base, shape, d):
    """check_families gives the status of check_families_oracle, and a
    refutation names the first generator, in chain order, that fails to
    extend.  Returns the verdict."""
    v = check_families(base, shape, d)
    assert v.status == check_families_oracle(base, shape, d).status
    failing = [g for g in natural_family_generators(base, shape, d)[0] if extend_natural_family(d, d, g) is None]
    assert v.witness == (None if v else {"reason": "free-data automorphism fails to extend", "family": failing[0]})
    return v


def generated_group(base, cells, generators, identity):
    """The families that products of the generators reach from the
    identity, composed cell by cell, as tuples over cells: the group they
    generate, as every group here is finite."""
    key = lambda fam: tuple(fam[c] for c in cells)
    reached, frontier = {key(identity)}, [identity]
    while frontier:
        grown = []
        for f in frontier:
            for g in generators:
                h = {c: base.compose(g[c], f[c]) for c in cells}
                if key(h) not in reached:
                    reached.add(key(h))
                    grown.append(h)
        frontier = grown
    return reached


def empty_edge_data(shape, n):
    """Free data with n points at every vertex and empty edge apexes: every
    family of vertex automorphisms is natural."""
    obj = {c: 0 if shape.lambda_up[c] else n for c in shape.lambda_cells}
    return obj, {ab: FinFunction(0, n, ()) for ab in shape.arrows_among(shape.lambda_cells)}


class TestFamilyGenerators:
    CASES = {
        **{
            f"finset{n}-{'-'.join(map(str, arities))}": (functools.partial(finset, n), arities)
            for n in range(4)
            for arities in ((2,), (3,), (2, 2))
            if (n, arities) != (3, (2, 2))
        },
        "lattice12-2": (lambda: divisor_lattice(12), (2,)),
        "lattice30-2": (lambda: divisor_lattice(30), (2,)),
        "lattice12-2-2": (lambda: divisor_lattice(12), (2, 2)),
        "slice-2": (lambda: slice_over_pair(finset(2), 1, 1), (2,)),
        "slice-3": (lambda: slice_over_pair(finset(2), 1, 1), (3,)),
    }

    @pytest.mark.parametrize("case", CASES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_full_loop(self, case, data):
        """The generator battery against extending every family: the same
        verdict, the first failing generator as witness, and the product of
        the orbit sizes is the number of natural families, which the
        generators generate.  The
        free datum is sampled and Kan-extended, and may have one arrow of
        any kind replaced; a replaced arrow between filled cells keeps the
        diagram Cartesian and makes the families that do not commute with
        it fail to extend.  Only Cartesian diagrams are compared, as the
        battery checks families only on those."""
        make_base, arities = self.CASES[case]
        base, shape = make_base(), sigma_shape(arities)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        ext = kan_extend(shape, base, *sample_lambda_data(shape, base, None, rng))
        kind = data.draw(st.sampled_from(["none", "lambda", "filled-lambda", "filled-filled"]))
        d = ext if kind == "none" else with_one_arrow_replaced(ext, kind, data)
        if not is_cartesian(d):
            return
        lam = shape.lambda_cells
        families = list(natural_families(base, shape, d, d))
        generators, order = natural_family_generators(base, shape, d)
        assert order == len(families)
        identity = {c: base.identity(d.obj[c]) for c in lam}
        assert generated_group(base, lam, generators, identity) == {tuple(f[c] for c in lam) for f in families}
        assert_families_checked_as_the_full_loop(base, shape, d)

    @pytest.mark.parametrize("case", CASES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_families_match_the_fill_order_search(self, case, data):
        """natural_families, which searches along lambda_search_order,
        against the search in fill order: the same families, which sorted
        by the position of each component in base.isos, cells in fill
        order, come in the fill-order search's order.  The diagrams are
        drawn as in test_matches_the_full_loop, Cartesian or not, and
        compared with themselves or with each other."""
        make_base, arities = self.CASES[case]
        base, shape = make_base(), sigma_shape(arities)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        ext = kan_extend(shape, base, *sample_lambda_data(shape, base, None, rng))
        kind = data.draw(st.sampled_from(["none", "lambda", "filled-lambda", "filled-filled"]))
        bad = ext if kind == "none" else with_one_arrow_replaced(ext, kind, data)
        d1, d2 = data.draw(st.sampled_from([(ext, ext), (bad, bad), (ext, bad), (bad, ext)]))
        lam = sorted(shape.lambda_cells, key=shape.fill_rank.__getitem__)
        isos = {c: base.isos(d1.obj[c], d2.obj[c]) for c in lam}
        got = sorted(natural_families(base, shape, d1, d2), key=lambda fam: [isos[c].index(fam[c]) for c in lam])
        assert got == list(natural_families_oracle(base, shape, d1, d2))

    def test_identity_data_on_three_points_at_two_two(self):
        """Identity data on three points at arity (2, 2): the six constant
        families, in base.isos order, in well under a second.  The search in
        fill order, which assigns all nine vertices before the first edge,
        took about a minute."""
        base, shape = finset(3), sigma_shape((2, 2))
        ext = kan_extend(shape, base, *identity_lambda_data(shape, 3))
        start = time.perf_counter()
        families = list(natural_families(base, shape, ext, ext))
        assert time.perf_counter() - start < 1
        assert families == [{c: g for c in shape.lambda_cells} for g in base.isos(3, 3)]

    def test_refutes_as_the_full_loop(self):
        """Identity data on three points at arity (3,), with the arrow from
        the filled cell (0,3) to (0,2) replaced by a transposition: only
        the families that commute with it extend.  Every family is
        constant, so each of the five others is a generator, and the first
        to fail in chain order is the other transposition."""
        base, shape = finset(3), sigma_shape(3)
        ext = kan_extend(shape, base, *identity_lambda_data(shape, 3))
        bad = SpanDiagram(shape, base, ext.obj, {**ext.mor, (V(0, 3), V(0, 2)): FinFunction(3, 3, (1, 0, 2))})
        generators, order = natural_family_generators(base, shape, bad)
        assert order == 6 and len(generators) == 5
        v = assert_families_checked_as_the_full_loop(base, shape, bad)
        assert v.witness["family"] == {c: FinFunction(3, 3, (0, 2, 1)) for c in shape.lambda_cells}

    @pytest.mark.parametrize("arities, n", [((3,), 3), ((2, 2), 2)])
    def test_every_replaced_arrow_between_filled_cells(self, arities, n):
        """Identity data on n points, with any one arrow between filled
        cells replaced by any other map: the diagram stays Cartesian, the
        families are the n! constant ones, and those that fail to extend
        are the ones that do not commute with the map.  The battery gives
        the full loop's verdict on each, naming the first failing
        generator."""
        base, shape = finset(n), sigma_shape(arities)
        ext = kan_extend(shape, base, *identity_lambda_data(shape, n))
        lam = shape.lambda_set
        refuted = 0
        for a, b in sorted(ab for ab in ext.mor if not lam & set(ab)):
            for m in base.hom(n, n):
                if m == ext.mor[(a, b)]:
                    continue
                bad = SpanDiagram(shape, base, ext.obj, {**ext.mor, (a, b): m})
                assert is_cartesian(bad)
                assert natural_family_generators(base, shape, bad)[1] == math.factorial(n)
                refuted += not assert_families_checked_as_the_full_loop(base, shape, bad)
        assert refuted > 0

    def test_cells_with_one_automorphism_are_not_searched(self, monkeypatch):
        """Over a poset every object has one automorphism, so the chain
        starts no search and finds no generator."""
        searches = []
        monkeypatch.setattr(spans_module, "_natural_extensions", lambda *a: searches.append(a) or iter(()))
        base, shape = divisor_lattice(30), sigma_shape(2)
        for lo, lm in itertools.islice(enumerate_lambda_data(shape, base), 50):
            assert natural_family_generators(base, shape, kan_extend(shape, base, lo, lm)) == ([], 1)
        assert searches == []

    def test_names_the_first_failing_generator(self, monkeypatch):
        """Empty edges between three 2-point vertices: the 8 families are
        the vertex swaps in any combination, and the chain's generators
        swap one vertex each.  With extension failing on a family that is
        no generator and on every family after it, the witness is the
        first generator, in chain order, among them; the generators after
        it and the families that are none are not extended."""
        base, shape = finset(2), sigma_shape(2)
        obj, mor = empty_edge_data(shape, 2)
        ext = kan_extend(shape, base, obj, mor)
        families = list(natural_families(base, shape, ext, ext))
        generators, order = natural_family_generators(base, shape, ext)
        assert order == len(families) == 8 and len(generators) == 3
        # after the first family other than the identity, which extends
        first = next(k for k in range(2, len(families)) if families[k] not in generators)
        failing = families[first:]
        witness = next(g for g in generators if g in failing)
        extended, extend = [], spans_module.extend_natural_family
        monkeypatch.setattr(
            spans_module,
            "extend_natural_family",
            lambda d1, d2, fam: extended.append(fam) or (None if fam in failing else extend(d1, d2, fam)),
        )
        v, _ = check_one_datum(shape, base, obj, mor, [0])
        assert v.witness == {"reason": "free-data automorphism fails to extend", "family": witness}
        assert extended == generators[: generators.index(witness) + 1]


class TestCertificateReuse:
    CASES = {
        **{
            f"finset{n}-{'-'.join(map(str, arities))}": (functools.partial(finset, n), arities)
            for n in range(3)
            for arities in ((2,), (3,), (2, 2))
        },
        "lattice12-2": (lambda: divisor_lattice(12), (2,)),
        "slice-2": (lambda: slice_over_pair(finset(2), 1, 1), (2,)),
    }

    @pytest.mark.parametrize("case", CASES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_a_fresh_certificate(self, case, data):
        """is_cartesian with the presentations kan_extend handed out gives
        the verdict and certificate that a fresh copy of the diagram gets,
        which takes every limit itself.  On the extension it takes no
        limit; with one Lambda arrow replaced, the cells whose diagram
        changed take their own."""
        make_base, arities = self.CASES[case]
        base, shape = make_base(), sigma_shape(arities)
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        limits = {}
        ext = kan_extend(shape, base, *sample_lambda_data(shape, base, None, rng), limits)
        d = ext if data.draw(st.booleans()) else with_one_arrow_replaced(ext, "lambda", data)
        taken, limit = [], base.limit_of_diagram
        base.limit_of_diagram = lambda *a: taken.append(a) or limit(*a)
        v = is_cartesian(d, limits)
        del base.limit_of_diagram
        assert v == is_cartesian(SpanDiagram(shape, base, d.obj, d.mor))
        if d is ext:
            assert v and taken == []

    def test_a_changed_diagram_takes_its_own_limit(self):
        """Identity data on two points at arity (2,), with the Lambda arrow
        (0,1) -> (1,1) replaced by the swap: the filled cell's cone no
        longer commutes, so no cone factors.  The extension's presentation,
        of the identity diagram, would factor it by the identity; it is not
        used, and the certificate refutes as a fresh copy's does."""
        base, shape = finset(2), sigma_shape(2)
        limits = {}
        ext = kan_extend(shape, base, *identity_lambda_data(shape, 2), limits)
        bad = SpanDiagram(shape, base, ext.obj, {**ext.mor, (V(0, 1), V(1, 1)): FinFunction(2, 2, (1, 0))})
        v = is_cartesian(bad, limits)
        assert v == is_cartesian(SpanDiagram(shape, base, bad.obj, bad.mor))
        assert v.witness == {"cell": V(0, 2), "reason": "cone does not factor"}
        assert is_cartesian(ext, limits)


def enumerated_count(shape, base, bound, cap):
    """The free data counted by enumerating them up to the cap: the oracle
    of count_lambda_data."""
    return sum(1 for _ in itertools.islice(enumerate_lambda_data(shape, base, bound), cap))


def refuse_enumeration(*args):
    """A stand-in for enumerate_lambda_data that raises once iterated."""
    raise AssertionError("free data enumerated")
    yield


def recorded_enumeration(monkeypatch, limit=None):
    """The arities of every free datum enumerate_lambda_data yields from
    here on, one entry per datum; past limit data it raises instead."""
    listed, enumerate_data = [], spans_module.enumerate_lambda_data

    def listing(shape, *args):
        for datum in enumerate_data(shape, *args):
            if len(listed) == limit:
                raise AssertionError(f"more than {limit} free data enumerated")
            listed.append(shape.arities)
            yield datum

    monkeypatch.setattr(spans_module, "enumerate_lambda_data", listing)
    return listed


def divisors_of_30_without_1():
    """The divisor lattice of 30 without 1: no initial object, and 2 and 3
    have no meet, so that _lambda_extensions takes the cone branch."""
    divisors = [d for d in range(2, 31) if 30 % d == 0]
    return poset_category(divisors, [(a, b) for a in divisors for b in divisors if b % a == 0])


def divisors_of_30_from_the_top():
    """The divisor lattice of 30 with its objects listed from 30 down, so
    that the initial object 1 is listed last."""
    divisors = [d for d in range(30, 0, -1) if 30 % d == 0]
    return poset_category(divisors, [(a, b) for a in divisors for b in divisors if b % a == 0])


def subset_poset(members, bottom):
    """The family members of subsets of {0, 1, 2}, closed under
    intersection, ordered by inclusion and named by their elements; with
    bottom False the empty set is left out, so two disjoint members have
    no meet and the family may have no least element."""
    family = set(members)
    while True:
        meets = {a & b for a in family for b in family} - family
        if not meets:
            break
        family |= meets
    if not bottom and len(family) > 1:
        family.discard(frozenset())
    names = sorted("".join(map(str, sorted(m))) for m in family)
    return poset_category(names, [(a, b) for a in names for b in names if set(a) <= set(b)])


class TestFreeDataCount:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), st.sampled_from([None, *range(n)]))),
        st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2), (1, 1), (2, 2), (1, 1, 1)]),
        st.integers(1, 12000),
    )
    def test_matches_the_enumerated_count_on_finite_sets(self, size_bound, arities, ceiling):
        """On finset:0-3, at bounds below the size, with the cap that
        segal_check derives from a small SPANLAB_MAX_CELLS."""
        (n, bound), shape = size_bound, sigma_shape(arities)
        cap = ceiling // len(shape.objects) + 1
        assert count_lambda_data(shape, finset(n), bound, cap) == enumerated_count(shape, finset(n), bound, cap)

    @pytest.mark.parametrize("n, size", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 2)])
    def test_closed_form_on_finite_sets(self, n, size):
        """At arity (n,) over finset:size the count is the sum over vertex
        sizes x_0..x_n of prod_i sum_a (x_{i-1} x_i) ** a, an edge being a
        set A with a map to each of its vertices (1,387,616 at finset:3,
        10,563,294,349 at finset:4)."""
        sizes = range(size + 1)
        formula = sum(
            math.prod(sum((x * y) ** a for a in sizes) for x, y in zip(xs, xs[1:]))
            for xs in itertools.product(sizes, repeat=n + 1)
        )
        assert count_lambda_data(sigma_shape((n,)), finset(size), None, 10**12) == formula

    @pytest.mark.parametrize(
        "make_base, arities, count",
        [
            (lambda: finset(1), (2, 2), 24898),
            (lambda: finset(1), (1, 1, 1), 15936),
            (lambda: divisor_lattice(6), (2, 1), 268324),
        ],
        ids=["finset1-2-2", "finset1-1-1-1", "lattice6-2-1"],
    )
    def test_lifted_counts_pinned(self, make_base, arities, count):
        """Counts in several directions, each checked against a full
        enumeration of the data."""
        assert count_lambda_data(sigma_shape(arities), make_base(), None, 10**12) == count

    @pytest.mark.parametrize(
        "make_base, arities, bound, caps, count",
        [
            (lambda: divisor_lattice(30), (2,), None, (8000, 100, 7, 1), 2197),
            (lambda: divisor_lattice(30), (3,), None, (8000, 100, 7, 1), None),
            (lambda: divisor_lattice(12), (2, 1), None, (8000, 100, 7, 1), None),
            (lambda: divisor_lattice(6), (1, 1), None, (8000, 100, 7, 1), 2304),
            (lambda: poset_category([0, 1], [(0, 0), (1, 1)]), (2,), None, (8000, 100, 7, 1), 2),
            (lambda: poset_category([0, 1], [(0, 0), (1, 1)]), (2, 1), None, (8000, 100, 7, 1), 2),
            (lambda: slice_over_pair(finset(2), 1, 1), (2,), 2, (8000, 100, 7, 1), 971),
            (lambda: slice_over_pair(finset(2), 2, 1), (2,), 2, (8000, 100, 7, 1), 7271),
            (lambda: slice_over_pair(finset(2), 1, 1), (1, 1), 1, (8000, 100, 7, 1), None),
            (divisors_of_30_without_1, (2, 1), None, (100, 7, 1), None),
            (divisors_of_30_without_1, (2, 2), None, (100, 7, 1), None),
            (divisors_of_30_from_the_top, (2,), None, (8000, 100, 7, 1), 2197),
            (divisors_of_30_from_the_top, (2, 1), None, (8000, 100, 7, 1), None),
            (divisors_of_30_from_the_top, (2, 2), None, (100, 7, 1), None),
        ],
        ids=["lattice30-2", "lattice30-3", "lattice12-2-1", "lattice6-1-1", "no-products-2", "no-products-2-1",
             "slice1x1-2", "slice2x1-2", "slice1x1-1-1", "lattice30-without-1-2-1", "lattice30-without-1-2-2",
             "lattice30-from-the-top-2", "lattice30-from-the-top-2-1", "lattice30-from-the-top-2-2"],
    )
    def test_matches_the_enumerated_count_on_other_bases(self, make_base, arities, bound, caps, count):
        """Table bases, one with no product of its two objects, one with
        no initial object and a pair with no meet, so that
        _lambda_extensions takes the cone branch, and one whose initial
        object is listed last, so that row 0 of the count is not an initial
        object's; and slices, under caps above and below the count."""
        base, shape = make_base(), sigma_shape(arities)
        for cap in caps:
            assert count_lambda_data(shape, base, bound, cap) == enumerated_count(shape, base, bound, cap)
        if count is not None:
            assert count_lambda_data(shape, base, bound, 8000) == count

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.frozensets(st.integers(0, 2), min_size=1), min_size=1, max_size=6),
        st.booleans(),
        st.sampled_from([(2, 1), (1, 1)]),
        st.integers(1, 60),
    )
    def test_matches_the_enumerated_count_on_random_posets(self, members, bottom, arities, cap):
        """Families of subsets of a 3-set closed under intersection, with
        and without a bottom, under small caps: the cap exits, on row 0
        while the lower data are listed and on the later rows, and the
        lifted form are each reached."""
        base, shape = subset_poset(members, bottom), sigma_shape(arities)
        assert count_lambda_data(shape, base, None, cap) == enumerated_count(shape, base, None, cap)

    def test_sampled_runs_list_no_datum_of_their_shape(self, monkeypatch):
        """finset:2 at (2, 2) is over the cap of 1,389 once row 0 of its
        count, the empty lower datum's, one natural transformation to each
        lower datum, sums to 38, as 38 ** 2 >= 1,389: 38 lower data of
        shape (2,) are listed and none of shape (2, 2).  finset:3 at arity
        2, whose lower data are the objects, lists no datum at all."""
        listed = recorded_enumeration(monkeypatch)
        v = segal_check(finset(2), (2, 2), samples=3)
        assert v and v.details["mode"] == "sampled" and v.details["data_checked"] == 3
        assert listed == [(2,)] * 38
        monkeypatch.setattr(spans_module, "enumerate_lambda_data", refuse_enumeration)
        v = segal_check(finset(3), (2,), samples=0)
        assert v.status == "inconclusive" and v.details["mode"] == "sampled"

    def test_first_row_reaches_the_cap_after_its_square_root(self, monkeypatch):
        """check segal --base finset:4 --arities 2 2 under
        SPANLAB_MAX_CELLS=100000000 counts with the cap 2,777,778.  Row 0,
        the empty lower datum's, reaches it after 1,667 lower data of
        shape (2,), as 1,667 ** 2 >= 2,777,778.  An initial-object bound,
        5 ** 9 data, falls short of that cap; the count then listed every
        lower datum up to the cap, 2.78 million, taking 33 s and 2.7 GB."""
        listed = recorded_enumeration(monkeypatch, limit=1667)
        assert count_lambda_data(sigma_shape((2, 2)), finset(4), None, 2_777_778) == 2_777_778
        assert listed == [(2,)] * 1667

    def test_level_over_the_ceiling_refused_before_listing(self, monkeypatch):
        """finset:3 at arity 2 (1,387,616 data) is refused with nothing
        enumerated, and finset:1 at (2, 1) (518 data) under a ceiling of
        100 with no datum of its own shape enumerated: only the 5 lower
        data of shape (1,) that its count reads."""
        monkeypatch.setattr(spans_module, "enumerate_lambda_data", refuse_enumeration)
        with pytest.raises(ResourceError, match=r"^level enumeration for arities \(2,\) exceeds the ceiling 50000$"):
            span_level(finset(3), (2,))
        monkeypatch.undo()
        monkeypatch.setenv("SPANLAB_MAX_CELLS", "100")
        listed = recorded_enumeration(monkeypatch)
        with pytest.raises(ResourceError, match=r"^level enumeration for arities \(2, 1\) exceeds the ceiling 100$"):
            span_level(finset(1), (2, 1))
        assert listed == [(1,)] * 5

    def test_mapping_fiber_over_the_ceiling_lists_no_datum(self, monkeypatch):
        """check mapping --base finset:2 -X 1 -Y 2 --arities 2 needs the
        (1, 2) level, whose 37,521,787,379 data are over the ceiling: the
        report stays inconclusive, and no datum of shape (1, 2) is
        enumerated to find that out."""
        listed = recorded_enumeration(monkeypatch)
        report, code = run_request(["check", "mapping", "--base", "finset:2", "-X", "1", "-Y", "2", "--arities", "2"])
        assert code == 2 and report["verdict"] == "inconclusive" and report["details"] == {}
        assert report["witness"] == {"reason": "level enumeration for arities (1, 2) exceeds the ceiling 50000"}
        assert (1, 2) not in listed


def lambda_data_oracle(shape, base, bound=None):
    """The free data by the recursion that takes each Lambda cell's limit
    at the cell, again in every branch below the depth where its up-set
    was fixed: the oracle of enumerate_lambda_data, which takes it once."""
    order = sorted(shape.lambda_cells, key=shape.fill_rank.__getitem__)
    yield from _lambda_data_oracle(shape, base, order, base.objects_within(bound), 0, {}, {})


def _lambda_data_oracle(shape, base, order, objects, i, obj, mor):
    if i == len(order):
        yield dict(obj), dict(mor)
        return
    c = order[i]
    ups = shape.lambda_up[c]
    if not ups:
        for A in objects:
            obj[c] = A
            yield from _lambda_data_oracle(shape, base, order, objects, i + 1, obj, mor)
        obj.pop(c, None)
        return
    node_obj = {b: obj[b] for b in ups}
    arrows = [(a, b, mor[(a, b)]) for a, b in shape.arrows_among(ups)]
    try:
        L, legs = base.limit_of_diagram(node_obj, arrows)
        choices = lambda A: [{b: base.compose(legs[b], h) for b in ups} for h in base.hom(A, L)]
    except NoLimitError:
        choices = lambda A: base.cones(A, ups, node_obj, arrows)
    for A in objects:
        obj[c] = A
        for legs_c in choices(A):
            for b in ups:
                mor[(c, b)] = legs_c[b]
            yield from _lambda_data_oracle(shape, base, order, objects, i + 1, obj, mor)
    del obj[c]
    for b in ups:
        mor.pop((c, b), None)


def assert_enumerated_as_the_oracle(shape, base, bound=None, cap=None):
    """The same data in the same order, each dict's items in the same
    order too, up to the first cap of them; returns how many."""
    items = lambda data: [(list(obj.items()), list(mor.items())) for obj, mor in itertools.islice(data, cap)]
    data = items(enumerate_lambda_data(shape, base, bound))
    assert data == items(lambda_data_oracle(shape, base, bound))
    return len(data)


def kan_extend_oracle(shape, base, lam_obj, lam_mor):
    """Kan extension that factors each filled cell through the limit of
    every filled cell above it: the oracle of kan_extend, which factors
    only through the filled cells that cover it."""
    lam = shape.lambda_set
    obj, mor, limits = dict(lam_obj), dict(lam_mor), {}
    for c in shape.fill_order:
        if c in lam:
            continue
        ups = shape.lambda_up[c]
        node_obj = {b: obj[b] for b in ups}
        L, legs = base.limit_of_diagram(node_obj, [(a, b, mor[(a, b)]) for a, b in shape.arrows_among(ups)])
        obj[c], limits[c] = L, (node_obj, legs)
        mor.update(((c, b), legs[b]) for b in ups)
        for b in shape.strict_up[c]:
            if b not in lam:
                node_b, legs_b = limits[b]
                cone = {n: mor[(c, n)] for n in node_b}
                mor[(c, b)] = base.factor_through_limit(obj[b], legs_b, L, cone, node_b)
    return SpanDiagram(shape, base, obj, mor)


class TestEnumerationTree:
    @pytest.mark.parametrize(
        "n, arities, bound",
        [(n, arities, None) for n in (0, 1) for arities in [(1,), (2,), (3,), (2, 1), (1, 1)]]
        + [(1, (5,), None), (1, (0,), None), (1, (2, 0, 1), None)]
        + [(2, (1,), None), (2, (2,), None), (2, (3,), None), (2, (2, 1), 1), (2, (1, 1), 1)]
        + [(3, (1,), None), (3, (2,), 2), (3, (3,), 1), (3, (2, 1), 1), (3, (1, 1), 1)],
    )
    def test_matches_the_oracle_on_finite_sets(self, n, arities, bound):
        """finset:0-3, under a bound where all the data would be too many."""
        assert assert_enumerated_as_the_oracle(sigma_shape(arities), finset(n), bound) > 0

    @pytest.mark.parametrize(
        "make_base, arities, bound, count",
        [
            (lambda: divisor_lattice(6), (1, 1), None, 2304),
            (lambda: divisor_lattice(12), (2,), None, 910),
            (lambda: divisor_lattice(30), (2,), None, 2197),
            (no_pullback_poset, (2,), None, 116),
            (no_pullback_poset, (1, 1), None, None),
            (divisors_of_30_without_1, (2,), None, None),
            (divisors_of_30_from_the_top, (2,), None, 2197),
            (lambda: slice_over_pair(finset(2), 1, 1), (2,), 1, 13),
            (lambda: slice_over_pair(finset(2), 2, 1), (1, 1), 1, None),
            (lambda: finset(2), (2,), 0, 1),
            (lambda: finset(2), (2,), -1, 0),
            (lambda: finset(2), (1, 1), -1, 0),
            (lambda: divisor_lattice(30), (2,), -1, None),
        ],
        ids=["lattice6-1-1", "lattice12-2", "lattice30-2", "no-pullback-2", "no-pullback-1-1",
             "lattice30-without-1-2", "lattice30-from-the-top-2", "slice1x1-2-bound1", "slice2x1-1-1-bound1",
             "finset2-2-bound0", "finset2-2-bound-1", "finset2-1-1-bound-1", "lattice30-2-bound-1"],
    )
    def test_matches_the_oracle_on_other_bases(self, make_base, arities, bound, count):
        """Table bases, those with no limit over some Lambda cell among
        them, so that the cone branch is taken, and slices; bounds 0 and
        -1, which a table base ignores."""
        n = assert_enumerated_as_the_oracle(sigma_shape(arities), make_base(), bound)
        assert count is None or n == count

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(st.frozensets(st.integers(0, 2), min_size=1), min_size=1, max_size=6),
        st.booleans(),
        st.sampled_from([(2,), (1, 1), (2, 1), (3,)]),
    )
    def test_matches_the_oracle_on_random_posets(self, members, bottom, arities):
        """Families of subsets of a 3-set closed under intersection, with
        and without a bottom, so that some Lambda cells have no limit; the
        first 2,000 data, as a family of 8 members has too many."""
        assert_enumerated_as_the_oracle(sigma_shape(arities), subset_poset(members, bottom), None, 2000)

    @pytest.mark.parametrize(
        "make_base, arities, limits",
        [
            (lambda: divisor_lattice(30), (2,), 576),
            (lambda: finset(1), (2, 1), 883),
            (lambda: finset(1), (5,), 124),
            (lambda: finset(2), (2,), 36),
            (lambda: divisor_lattice(12), (2,), 252),
        ],
        ids=["lattice30-2", "finset1-2-1", "finset1-5", "finset2-2", "lattice12-2"],
    )
    def test_each_limit_taken_once_per_up_set(self, make_base, arities, limits):
        """The enumeration takes a Lambda cell's limit once for each
        assignment of its up-set: at lattice30 (2,) the edge (0, 1) once
        per pair of vertices and (1, 2) once per triple, 8 ** 2 + 8 ** 3 =
        576 limits, where taking it again at the cell in every branch took
        1,512.  Likewise 2,173 -> 883 at finset:1 (2, 1), 562 -> 124 at
        finset:1 (5,), 156 -> 36 at finset:2 (2,) and 636 -> 252 at
        lattice12 (2,)."""
        base = make_base()
        calls, limit = [], base.limit_of_diagram
        base.limit_of_diagram = lambda *a: calls.append(1) or limit(*a)
        list(enumerate_lambda_data(sigma_shape(arities), base))
        assert len(calls) == limits


class TestKanExtensionThroughCovers:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    @pytest.mark.parametrize("arities", [(5,), (2, 2), (3, 1), (2, 1, 1)])
    @pytest.mark.parametrize(
        "make_base, bound",
        [(lambda: finset(2), None), (lambda: divisor_lattice(30), None), (lambda: slice_over_pair(finset(2), 1, 2), 2)],
        ids=["finset2", "lattice30", "slice1x2"],
    )
    def test_matches_the_oracle(self, make_base, bound, arities, seed):
        """Random free data: the same objects and morphisms as factoring
        each filled cell through every filled cell above it."""
        base, shape = make_base(), sigma_shape(arities)
        lo, lm = sample_lambda_data(shape, base, bound, random.Random(seed))
        assert kan_extend(shape, base, lo, lm).key == kan_extend_oracle(shape, base, lo, lm).key

    def test_factorizations_pinned(self, monkeypatch):
        """span_level(finset(1), (5,)) factors 12 times per datum, once into
        each filled cover of a filled cell, 2,796 times for its 233 data;
        factoring through every filled cell above took 25 per datum,
        5,825 in all."""
        calls, factor = [], FinSetCategory.factor_through_limit
        monkeypatch.setattr(FinSetCategory, "factor_through_limit", lambda B, *a: calls.append(1) or factor(B, *a))
        assert len(span_level(finset(1), (5,)).objects) == 233
        assert len(calls) == 2796
        calls.clear()
        lo, lm = next(enumerate_lambda_data(sigma_shape(5), finset(1)))
        kan_extend_oracle(sigma_shape(5), finset(1), lo, lm)
        assert len(calls) == 25


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
    oracle of inverse.has_inverse."""
    for B in base.objects_within(bound):
        for l in base.hom(B, s.right):
            for r in base.hom(B, s.left):
                t = Span(s.right, l, B, r, s.left)
                if iso_to_identity_span(base, compose_spans(base, s, t)) and iso_to_identity_span(
                    base, compose_spans(base, t, s)
                ):
                    return True
    return False


def inverse_candidates_oracle(base, s: Span, bound):
    """The inverse search that takes one pullback per (B, l) for each span,
    with no apex pruning and nothing shared between spans: the oracle of
    inverse.inverse_candidates."""
    for B in base.objects_within(bound):
        rs = base.hom(B, s.left)
        if not rs:
            continue
        for l in base.hom(B, s.right):
            _, p, q = base.pullback(s.rleg, l)
            leg = base.compose(s.lleg, p)
            if not base.is_iso(leg):
                continue
            for r in rs:
                if base.compose(r, q) != leg:
                    continue
                t = Span(s.right, l, B, r, s.left)
                if iso_to_identity_span(base, compose_spans(base, t, s)):
                    yield t


def candidates_until_raise(search, *args):
    """The candidates a search yields, in order, and whether it then raised
    NoLimitError."""
    found = []
    try:
        for t in search(*args):
            found.append(t)
    except NoLimitError:
        return found, True
    return found, False


class TestCommutes:
    """base.commutes(g, f, k, h) against compose(g, f) == compose(k, h)."""

    BASES = {
        "finset3": lambda data: finset(3),
        "lattice12": lambda data: divisor_lattice(12),
        "slice": lambda data: slice_over_pair(finset(2), data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))),
    }

    @pytest.mark.parametrize("name", BASES)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_composites(self, name, data):
        """Squares f: a -> b, g: b -> d, h: a2 -> c, k: c -> d2 drawn at
        random, or made to commute: k, h = g, f, or k = g . f after the
        identity h.  a2 and d2 are often a and d; where they are not, the
        two sides differ although the square may commute in the base of a
        slice."""
        base = self.BASES[name](data)
        objects = base.objects_within()
        a, b, c, d = (data.draw(st.sampled_from(objects)) for _ in range(4))
        a2, d2 = (data.draw(st.sampled_from([x, *objects])) for x in (a, d))
        homs = [base.hom(b, d), base.hom(a, b), base.hom(c, d2), base.hom(a2, c)]
        if not all(homs):
            return
        g, f, k, h = (data.draw(st.sampled_from(hom)) for hom in homs)
        mode = data.draw(st.sampled_from(["random", "same", "through-identity"]))
        if mode == "same":
            k, h = g, f
        elif mode == "through-identity":
            k, h = base.compose(g, f), base.identity(a)
        assert base.commutes(g, f, k, h) == (base.compose(g, f) == base.compose(k, h))

    def test_slice_squares_differ_at_their_ends(self):
        """Over P = 2, the empty maps from the empty object to the two
        points are different slice morphisms with the same map in C, so
        squares through them commute in C but not in the slice."""
        S = slice_over_pair(finset(2), 1, 2)
        e = (0, FinFunction(0, 2, ()))
        g, k = S.hom(e, (1, FinFunction(1, 2, (0,)))) + S.hom(e, (1, FinFunction(1, 2, (1,))))
        i = S.identity(e)
        assert S.C.commutes(g[2], i[2], k[2], i[2])
        assert not S.commutes(g, i, k, i) and S.compose(g, i) != S.compose(k, i)
        assert S.commutes(g, i, g, i)

    def test_non_composable_square_raises(self):
        """On finset a non-composable pair raises, as compose does, on
        either side of the square and before any size is compared."""
        B = finset(3)
        f, g = FinFunction(1, 2, (0,)), FinFunction(2, 3, (0, 2))
        bad = FinFunction(3, 1, (0, 0, 0))
        for square in ((bad, f, g, f), (g, f, bad, f), (g, f, bad, FinFunction(2, 2, (0, 1)))):
            with pytest.raises(SpanlabError):
                B.commutes(*square)
            with pytest.raises(SpanlabError):
                B.compose(*square[:2]) == B.compose(*square[2:])


class TestFinSetMemo:
    """hom and isos of a finite-set base are built once per size pair."""

    def test_returned_lists_are_fresh(self):
        B = finset(3)
        for listing, args in ((B.hom, (2, 3)), (B.isos, (3, 3)), (B.hom, (0, 0))):
            first = listing(*args)
            expected = list(first)
            first.reverse()
            first.append(None)
            assert listing(*args) == expected
            assert listing(*args) is not listing(*args)

    def test_lists_keep_the_itertools_order(self):
        B = finset(3)
        for _ in range(2):  # built, then memoised
            for x in range(4):
                for y in range(4):
                    assert [m.values for m in B.hom(x, y)] == list(itertools.product(range(y), repeat=x))
                    expected = list(itertools.permutations(range(x))) if x == y else []
                    assert [m.values for m in B.isos(x, y)] == expected


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
                assert has_inverse(base, s, bound) == has_inverse_oracle(base, s, bound), (s, bound)

    def test_every_span_of_the_divisor_lattice_of_12(self):
        base = divisor_lattice(12)
        assert base.validate()
        found = [has_inverse(base, s, None) for s in all_spans(base)]
        assert found == [has_inverse_oracle(base, s, None) for s in all_spans(base)]
        assert sum(found) == 6  # the identity spans

    def test_raises_where_the_oracle_raises(self):
        """Over the poset p, q <= x, y the cospan p -> x <- q has no
        pullback: both searches raise NoLimitError on the same spans."""
        base = no_pullback_poset()
        assert base.validate()
        got = [outcome(has_inverse, base, s, None) for s in all_spans(base)]
        assert got == [outcome(has_inverse_oracle, base, s, None) for s in all_spans(base)]
        assert NoLimitError in got and True in got and False in got

    @given(st.sampled_from(all_spans(finset(3))), st.one_of(st.none(), st.integers(-1, 3)))
    @settings(max_examples=60, deadline=None)
    def test_finset3_spans(self, s, bound):
        base = finset(3)
        assert has_inverse(base, s, bound) == has_inverse_oracle(base, s, bound)


class TestInverseRows:
    """inverse_candidates with one rows dict shared by the searches of a
    check, against the search that takes its own pullbacks per span."""

    BASES = {
        **{f"finset{n}": (functools.partial(finset, n), (None, -1, *range(n + 1))) for n in range(4)},
        "lattice12": (lambda: divisor_lattice(12), (None,)),
        "no-pullback": (no_pullback_poset, (None,)),
        "indiscrete2": (lambda: poset_category("xy", [(a, b) for a in "xy" for b in "xy"]), (None,)),
    }

    @pytest.mark.parametrize("name", BASES)
    def test_shared_rows_give_the_oracle_candidates(self, name):
        """Over every span in all_spans order, at every bound: the same
        candidates in the same order, and NoLimitError on the same spans,
        after the same candidates.  In the indiscrete category on two
        objects a pullback apex can be isomorphic to the left foot without
        being equal to it."""
        make_base, bounds = self.BASES[name]
        base = make_base()
        spans = all_spans(base)
        for bound in bounds:
            rows = {}
            got = [candidates_until_raise(inverse_candidates, base, s, bound, rows) for s in spans]
            assert got == [candidates_until_raise(inverse_candidates_oracle, base, s, bound) for s in spans]

    def test_a_failed_key_raises_again_from_its_rows(self, monkeypatch):
        """Over the poset p, q <= x, y, each span whose rows stop at a
        missing pullback raises again when searched a second time with the
        same rows, from the marker row, without taking a pullback."""
        base = no_pullback_poset()
        rows, pullback, calls, failed = {}, base.pullback, [], 0
        monkeypatch.setattr(base, "pullback", lambda f, g: calls.append(1) or pullback(f, g))
        for s in all_spans(base):
            if candidates_until_raise(inverse_candidates, base, s, None, rows)[1]:
                failed += 1
                table, _ = rows[(s.apex, s.left, s.right)]
                assert isinstance(table[(s.left, s.rleg, s.right)][-1], NoLimitError)
                taken = len(calls)
                assert candidates_until_raise(inverse_candidates, base, s, None, rows) == ([], True)
                assert len(calls) == taken
        assert failed

    def test_rows_hold_one_block(self):
        """A shared rows dict keeps only the block (apex, left, right) of
        the last span searched, with its rows by key and its legs shared
        across them: over finset:3, in all_spans order, at most 375 rows,
        whose 750 legs are 36 objects, at a time."""
        base = finset(3)
        rows, most_rows, most_legs = {}, 0, 0
        for s in all_spans(base):
            has_inverse(base, s, None, rows)
            assert list(rows) == [(s.apex, s.left, s.right)]
            table, legs = rows[(s.apex, s.left, s.right)]
            assert all(key[1].source == s.apex and (key[0], key[2]) == (s.left, s.right) for key in table)
            most_rows = max(most_rows, sum(map(len, table.values())))
            most_legs = max(most_legs, len(legs))
            assert all(row[3] is legs[row[3]] and row[4] is legs[row[4]] for t in table.values() for row in t)
        assert (most_rows, most_legs) == (375, 36)

    def test_pullback_calls_pinned(self, monkeypatch):
        """invertible_span_check(finset(3)) takes 6,158 pullbacks: one per
        row of each key (s.left, s.rleg, s.right), and one per composite of
        a candidate.  Taking one per (span, B, l) took 50,218.  Counted on
        one CPU, as test_compose_calls_pinned is."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls, pullback = [], FinSetCategory.pullback
        monkeypatch.setattr(FinSetCategory, "pullback", lambda B, f, g: calls.append(1) or pullback(B, f, g))
        v = invertible_span_check(finset(3))
        assert v and v.details["spans_checked"] == 1544
        assert len(calls) == 6158


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
    def test_fiber_canonicalises_only_its_feet(self, monkeypatch):
        """On finset:3 the fiber over (2, 1) computes canonical forms only
        for the diagrams with feet (2, 1), each at most once, rather than
        for all 1,544 diagrams of the level: 14 of its 15, whose key
        groups are their apex sizes 1 to 3, as the one with an empty apex
        is alone in its key group and so its own bucket's representative.
        Over (1, 1) each of the 4 diagrams is alone in its key group, and
        no form is taken."""
        seen, form = [], spans_module._canonical_form
        monkeypatch.setattr(spans_module, "_canonical_form", lambda *a: seen.append(a[-1].key) or form(*a))
        assert mapping_category_check(finset(3), 1, 1)
        assert seen == []
        assert mapping_category_check(finset(3), 2, 1)
        feet = [(dict(k[1])[V(0, 0)], dict(k[1])[V(1, 1)]) for k in seen]
        assert set(feet) == {(2, 1)}
        assert len(seen) == len(set(seen)) == 14

    @staticmethod
    def _fiber_hom_calls(monkeypatch, X, Y):
        """The details of the mapping check on finset:3 over (X, Y), and the
        number of calls to the iso-comma's hom function it makes."""
        calls, iso_comma = [], groupoid_module.iso_comma

        def counted(F, G):
            gpd, proj_a, proj_b = iso_comma(F, G)
            hom = gpd._hom
            gpd._hom = lambda x, y: calls.append(1) or hom(x, y)
            return gpd, proj_a, proj_b

        monkeypatch.setattr(groupoid_module, "iso_comma", counted)
        v = mapping_category_check(finset(3), X, Y)
        assert v
        return v.details, len(calls)

    def test_fiber_asks_for_homs_inside_buckets_only(self, monkeypatch):
        """The iso-comma keys its objects by the level's key, and
        components() tests each object against the first object of each
        component found in its key group, so the fiber over (2, 2) on
        finset:3 takes 3,772 iso-comma hom calls. Walking every hom row
        inside the key groups took 69,904; a keyless walk asks for all
        340^2 = 115,600."""
        details, calls = self._fiber_hom_calls(monkeypatch, 2, 2)
        assert details["fiber_objects"] == 340
        assert calls == 3772

    def test_large_fiber_asks_one_hom_per_component(self, monkeypatch):
        """Over (3, 2) the fiber has 3,108 objects in 84 components, and
        takes 95,988 iso-comma hom calls, where walking every hom row
        inside the key groups took 6,910,416."""
        details, calls = self._fiber_hom_calls(monkeypatch, 3, 2)
        assert details == {"fiber_objects": 3108, "slice_side_objects": 259}
        assert calls == 95988

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
    each hom lists the natural Lambda families that the fill-order search
    (natural_families_oracle) finds, in its order, each extended to the
    full shape (the slow oracle of span_level)."""
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
            for fam in natural_families_oracle(base, shape, d1, d2)
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


def refuse_forms(*args):
    """A stand-in for spans._canonical_form that fails when called."""
    raise AssertionError("a canonical form was taken")


def level_taking_every_form(base, arities, bound=None):
    """span_level with every key group counted as shared, so that each
    diagram a hom asks for takes its canonical form: the level without its
    lone-key shortcut.  The shortcut is decided when the level is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans_module, "Counter", lambda keys: collections.defaultdict(lambda: 2))
        return span_level(base, arities, bound)


def level_searching_every_aut(base, arities, bound=None):
    """The objects, morphisms and components of span_level with its rigid
    shortcut off, so that natural_families finds every Aut(r).  The
    shortcut is taken when a hom asks for Aut(r), so all are listed here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spans_module, "_rigid", lambda base, d: False)
        level = span_level(base, arities, bound)
        return level.objects, level.all_morphisms(), level.components()


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
        """Same objects, morphisms in the same order, same components.  A
        lazy slice is validated through its oracle table."""
        base = base()
        assert (slice_table(base.C, base.P) if isinstance(base, SliceCategory) else base).validate()
        level, oracle = span_level(base, arities), pairwise_level(base, arities)
        morphisms, components = level.all_morphisms(), level.components()
        assert level.objects == oracle.objects
        assert morphisms == oracle.all_morphisms()
        assert components == oracle.components()
        assert (len(level.objects), len(morphisms), len(components)) == sizes

    def test_hom_lists_do_not_depend_on_the_representative(self):
        """Rows asked for in reverse object order make the last diagram of
        each bucket its representative; every hom list stays the oracle's."""
        level, oracle = span_level(finset(2), (1,)), pairwise_level(finset(2), (1,))
        rows = [(x, {y: level.hom(x, y) for y in level.objects}) for x in reversed(level.objects)]
        assert [(x, {y: oracle.hom(x, y) for y in oracle.objects}) for x in reversed(oracle.objects)] == rows

    def test_finset2_arity2_counts(self):
        level, _ = _finset2_arity2()
        assert len(level.objects) == 971
        assert len(level.all_morphisms()) == 15537
        assert len(level.components()) == 219

    def test_finset2_arity2_homs_within_components(self):
        """The hom between every two members of one component, in order,
        and from the first member of each component to those of the first
        five, against the pairwise hom on the shared finset:2 level at
        arity 2."""
        level, oracle = _finset2_arity2()
        components = level.components()
        for component in components:
            for x in component:
                for y in component:
                    assert level.hom(x, y) == oracle.hom(x, y)
            for other in components[:5]:
                assert level.hom(component[0], other[0]) == oracle.hom(component[0], other[0])

    def test_hom_is_only_searched_inside_buckets(self, monkeypatch):
        """On a poset every bucket is one diagram, alone in its key group:
        one hom call per object, no canonical form, and the identity family
        is never extended."""
        level = span_level(finset(1), (5,))
        calls, hom = [], level._hom
        level._hom = lambda x, y: calls.append((x, y)) or hom(x, y)
        extended, extend = [], spans_module.extend_natural_family
        monkeypatch.setattr(spans_module, "extend_natural_family", lambda *a: extended.append(a) or extend(*a))
        monkeypatch.setattr(spans_module, "_canonical_form", refuse_forms)
        assert len(level.all_morphisms()) == len(level.objects) == 233
        assert calls == [(x, x) for x in level.objects]
        assert extended == []

    @pytest.mark.parametrize(
        "make_base, arities, bound",
        [(lambda: finset(2), (1,), None), (lambda: finset(2), (2,), None), (lambda: finset(2), (1, 1), 1),
         (two_isomorphic_objects, (1,), None)],
        ids=["finset2-1", "finset2-2", "finset2-1-1-bound1", "isomorphic-objects-1"],
    )
    def test_lone_key_groups_as_with_every_form(self, make_base, arities, bound):
        """A diagram alone in its key group is its own bucket's
        representative, with no form taken: the same objects, morphisms in
        the same order and components as a level that takes the form of
        every diagram a hom asks for."""
        level = span_level(make_base(), arities, bound)
        oracle = level_taking_every_form(make_base(), arities, bound)
        assert level.objects == oracle.objects
        assert level.all_morphisms() == oracle.all_morphisms()
        assert level.components() == oracle.components()

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.frozensets(st.integers(0, 2), min_size=1), min_size=1, max_size=5),
        st.sampled_from([(1,), (2,), (1, 1)]),
    )
    def test_lone_key_groups_on_random_posets(self, members, arities):
        """On a poset every diagram is alone in its key group, so the level
        takes no form, and it is the level that takes every form.  The
        families of subsets of a 3-set closed under intersection keep the
        empty set, so that every filled cell has its limit; levels of more
        than 1,000 diagrams are skipped."""
        base = subset_poset(members, True)
        if count_lambda_data(sigma_shape(arities), base, None, 1001) > 1000:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spans_module, "_canonical_form", refuse_forms)
            level = span_level(base, arities)
            morphisms, components = level.all_morphisms(), level.components()
        oracle = level_taking_every_form(base, arities)
        assert level.objects == oracle.objects
        assert morphisms == oracle.all_morphisms()
        assert components == oracle.components()

    @pytest.mark.parametrize(
        "make_base, arities, searched",
        [(lambda: finset(1), (5,), 0), (lambda: finset(1), (2, 1), 0), (lambda: divisor_lattice(12), (2,), 0),
         (lambda: divisor_lattice(30), (1,), 0), (lambda: finset(2), (1,), 17), (lambda: finset(2), (2,), 206)],
        ids=["finset1-5", "finset1-2-1", "lattice12-2", "lattice30-1", "finset2-1", "finset2-2"],
    )
    def test_rigid_representatives_as_with_the_search(self, make_base, arities, searched, monkeypatch):
        """Aut(r) is the identity, with no natural_families search, where
        every Lambda object of r has one automorphism (spans._rigid): the
        same objects, morphisms in the same order and components as the
        level that searches every Aut(r).  On finset:2 only the buckets
        whose Lambda objects include 2, with its swap, are searched: 17 of
        22 at arity (1,) and 206 of 219 at (2,)."""
        calls, search = [], spans_module.natural_families
        monkeypatch.setattr(spans_module, "natural_families", lambda *a: calls.append(1) or search(*a))
        level = span_level(make_base(), arities)
        got = level.objects, level.all_morphisms(), level.components()
        assert len(calls) == searched
        assert got == level_searching_every_aut(make_base(), arities)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.frozensets(st.integers(0, 2), min_size=1), min_size=1, max_size=5),
        st.sampled_from([(1,), (2,), (1, 1)]),
    )
    def test_rigid_representatives_on_random_posets(self, members, arities):
        """Over the families of subsets of a 3-set closed under
        intersection, as in test_lone_key_groups_on_random_posets, every
        object has one automorphism: no Aut(r) is searched, and the level
        is the one that searches them all."""
        base = subset_poset(members, True)
        if count_lambda_data(sigma_shape(arities), base, None, 1001) > 1000:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spans_module, "natural_families", None)
            level = span_level(base, arities)
            got = level.objects, level.all_morphisms(), level.components()
        assert got == level_searching_every_aut(base, arities)

    @pytest.mark.parametrize(
        "level, buckets, skeletal",
        [
            (lambda: _finset2_arity2()[0], 219, True),
            (lambda: span_level(finset(3), (1,)), 90, True),
            (lambda: span_level(divisor_lattice(12), (2,)), 910, True),
            (lambda: span_level(slice_over_pair(finset(2), 1, 1), (1,)), 22, True),
            (lambda: span_level(two_isomorphic_objects(), (1,)), 5, False),
        ],
        ids=["finset2-2", "finset3-1", "lattice12-2", "slice1x1-1", "isomorphic-objects-1"],
    )
    def test_orbit_stabilizer_per_bucket(self, level, buckets, skeletal):
        """A bucket is one orbit of the relabelling of its Lambda objects:
        each cell c may move by any isomorphism out of obj c, onto any
        object of its isomorphism class, so |bucket| . |Aut(r)| is the
        product over the Lambda cells c of |class(obj c)| . |Aut(obj c)|,
        r the bucket's first diagram.  On a skeletal base every class is
        one object and this is the product of |obj c|! on finite sets, 1
        on a poset.  The base with two isomorphic objects is not skeletal,
        so the class sizes count there; each case asserts whether its base
        is skeletal.  A canonical form that split an orbit would break
        it."""
        level = level()
        base = level.diagrams[level.objects[0]].base
        reps = spans_module._iso_class_reps(base, base.objects_within())
        assert all(reps[x] == x for x in reps) == skeletal  # skeletal: one object per class
        class_size = collections.Counter(reps.values())
        members = {}
        for k in level.objects:
            d = level.diagrams[k]
            members.setdefault(spans_module._canonical_form(d.base, d.shape, reps, d)[0], []).append(k)
        assert len(members) == buckets
        for ks in members.values():
            r = level.diagrams[ks[0]]
            relabellings = math.prod(
                class_size[reps[r.obj[c]]] * len(base.isos(r.obj[c], r.obj[c]))
                for c in r.shape.lambda_cells
            )
            assert len(ks) * len(level.hom(ks[0], ks[0])) == relabellings

    @settings(max_examples=20, deadline=None)
    @given(st.permutations([1, 2, 3, 5, 6, 10, 15, 30]))
    def test_relabeled_lattice30_matches_the_pairwise_oracle(self, labels):
        """The divisor lattice of 30 with each divisor d relabeled to
        labels[i], i its place in the divisor list, so label order and
        divisibility no longer agree: at arity 1 its 125 diagrams, their
        morphisms in order and their components are the pairwise
        oracle's."""
        divisors = [1, 2, 3, 5, 6, 10, 15, 30]
        label = dict(zip(divisors, labels))
        base = poset_category(
            [label[d] for d in divisors],
            [(label[a], label[b]) for a in divisors for b in divisors if b % a == 0],
        )
        level, oracle = span_level(base, (1,)), pairwise_level(base, (1,))
        assert level.objects == oracle.objects
        assert level.all_morphisms() == oracle.all_morphisms()
        assert level.components() == oracle.components()
        assert len(level.objects) == 125

    @pytest.mark.parametrize(
        "base, X, Y, arities",
        [(finset(2), 1, 2, (1,)), (finset(1), 1, 1, (2,)), (finset(1), 1, 1, (1, 1))],
        ids=["finset2-1", "finset1-2", "finset1-1-1"],
    )
    def test_slice_level_matches_the_table_slice(self, base, X, Y, arities):
        """The level over the lazy slice and over its table: same objects,
        morphisms in the same order, same components."""
        lazy = span_level(slice_over_pair(base, X, Y), arities)
        table = span_level(slice_table(base, base.product(X, Y)[0]), arities)
        assert lazy.objects == table.objects
        assert lazy.all_morphisms() == table.all_morphisms()
        assert lazy.components() == table.components()

    def test_slice_without_a_limit_enumerates_by_cones(self, monkeypatch):
        """Over a category file with no product a x a, the slice over its
        terminal object c has no such limit either: the level enumerates
        through the cones fallback and matches the table slice."""
        C = two_isomorphic_objects()
        calls, cones = [], SliceCategory.cones
        monkeypatch.setattr(SliceCategory, "cones", lambda S, *a: calls.append(a) or cones(S, *a))
        lazy = span_level(slice_over_pair(C, "c", "c"), (1,))
        table = span_level(slice_table(C, "c"), (1,))
        assert calls
        assert lazy.objects == table.objects
        assert lazy.all_morphisms() == table.all_morphisms()
        assert (len(lazy.objects), len(lazy.all_morphisms()), len(lazy.components())) == (51, 2313, 5)

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
