"""Labeled spans: internal coefficient categories, composition, levels,
classification of invertibles and mapping fibers."""
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab import locsys as locsys_module
from spanlab.fincat import FinFunction, FinSetCategory
from spanlab.locsys import (
    InternalCategory,
    LocalSystemSpan,
    _apex_labels,
    _strict_fiber_groupoid,
    _two_cell_groupoid,
    all_locsys_spans,
    comma_set,
    compose_labeled_bij,
    compose_locsys,
    cyclic_internal,
    discrete_internal,
    identity_labeled_bij,
    identity_locsys,
    invert_labeled_bij,
    labeled_bijections,
    locsys_battery_check,
    locsys_equivalence_check,
    locsys_invertible_predicate,
    locsys_invertible_search,
    locsys_iso_to_identity,
    locsys_level,
    locsys_mapping_fiber_check,
    locsys_span_isos,
    validate_internal,
    walking_arrow_internal,
)
from spanlab.spans import Span, span_level
from spanlab.groupoid import groupoids_equivalent
from spanlab.verdict import FootMismatchError, SpanlabError


BZ2 = cyclic_internal(2)
BZ3 = cyclic_internal(3)
ARROW = walking_arrow_internal()
POINT = discrete_internal(1)
# objects 0, 1; morphisms id0, id1, s: 0 -> 1, r: 1 -> 0 and e = s . r,
# with r . s = id0, so r is a one-sided inverse of s only
ID0, ID1, S_, R_, E_ = range(5)
SPLIT = InternalCategory(
    2, 5, [0, 1, 0, 1, 1], [0, 1, 1, 0, 1], [ID0, ID1],
    {
        (ID0, ID0): ID0, (ID1, ID1): ID1,
        (S_, ID0): S_, (ID1, S_): S_, (R_, ID1): R_, (ID0, R_): R_, (E_, ID1): E_, (ID1, E_): E_,
        (R_, S_): ID0, (S_, R_): E_, (E_, E_): E_, (E_, S_): S_, (R_, E_): R_,
    },
)


def point_span(base, label, C=BZ2, xi=(0,), eta=(0,)):
    return LocalSystemSpan(
        Span(1, base.identity(1), 1, base.identity(1), 1), xi, eta, (label,)
    )


class TestInternalCategories:
    @pytest.mark.parametrize(
        "C", [POINT, discrete_internal(3), BZ2, BZ3, ARROW, cyclic_internal(5)]
    )
    def test_stock_coefficients_validate(self, C):
        assert validate_internal(C)

    def test_non_associative_table_refuted(self):
        # one object, three endomorphisms with a unital but non-associative
        # multiplication
        comp = {
            (0, 0): 0, (0, 1): 1, (0, 2): 2,
            (1, 0): 1, (2, 0): 2,
            (1, 1): 2, (1, 2): 1, (2, 1): 2, (2, 2): 0,
        }
        C = InternalCategory(1, 3, [0, 0, 0], [0, 0, 0], [0], comp)
        v = validate_internal(C)
        assert not v
        assert v.witness["reason"] == "associativity"

    def test_missing_composite_refuted(self):
        C = InternalCategory(1, 2, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1})
        v = validate_internal(C)
        assert not v
        assert v.witness["reason"] == "missing composite"

    def test_bad_inverse_table_refuted(self):
        C = InternalCategory(
            1, 2, [0, 0], [0, 0], [0],
            {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            inv=[0, 0],
        )
        v = validate_internal(C)
        assert not v
        assert v.witness["reason"] == "inverse law"

    def test_invertibility_in_walking_arrow(self):
        cat = ARROW.cat
        assert cat.is_iso(0) and cat.is_iso(1)
        assert not cat.is_iso(2)
        assert cat.inverse(2) is None

    def test_json_roundtrip(self):
        for C in (BZ3, ARROW):
            D = InternalCategory.from_json(C.to_json())
            assert validate_internal(D)
            assert D.src == C.src and D.comp == C.comp and D.inv == C.inv

    def test_malformed_json(self):
        with pytest.raises(SpanlabError):
            InternalCategory.from_json({"C0": 1})


# -- the former scans over range(C1), kept as oracles of the table view


def hom_scan(C, x, y):
    """The morphisms x -> y, in increasing order."""
    return [m for m in range(C.C1) if C.src[m] == x and C.tgt[m] == y]


def search_inverse(C, m):
    """The first morphism n with n . m and m . n identities, or None."""
    s, t = C.src[m], C.tgt[m]
    ident = C.ident[s], C.ident[t]
    candidates = (n for n in range(C.C1) if C.src[n] == t and C.tgt[n] == s)
    return next((n for n in candidates if (C.comp.get((n, m)), C.comp.get((m, n))) == ident), None)


def inverse_oracle(C, m):
    """m's inverse: read off the inv table when there is one, else searched."""
    return C.inv[m] if C.inv is not None else search_inverse(C, m)


def invertible_between(C, x, y):
    """Internally invertible morphisms x -> y in C."""
    return [m for m in hom_scan(C, x, y) if inverse_oracle(C, m) is not None]


STOCK = {
    **{f"discrete:{n}": discrete_internal(n) for n in range(4)},
    **{f"cyclic:{n}": cyclic_internal(n) for n in range(1, 6)},
    "arrow": walking_arrow_internal(),
}


@st.composite
def preorder_internal(draw):
    """A preorder on at most 4 objects as an internal category, one
    morphism per related pair in a drawn order, with an inv table when the
    relation is symmetric."""
    n = draw(st.integers(1, 4))
    rel = {(a, a) for a in range(n)} | draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    )
    while True:
        closed = rel | {(a, d) for a, b in rel for c, d in rel if b == c}
        if closed == rel:
            break
        rel = closed
    pairs = draw(st.permutations(sorted(rel)))
    at = {p: m for m, p in enumerate(pairs)}
    comp = {(at[(b, c)], at[(a, b)]): at[(a, c)] for a, b in pairs for b2, c in pairs if b == b2}
    inv = [at[(b, a)] for a, b in pairs] if all((b, a) in rel for a, b in rel) else None
    return InternalCategory(
        n, len(pairs), [a for a, _ in pairs], [b for _, b in pairs], [at[(a, a)] for a in range(n)], comp, inv
    )


def assert_view_matches_scans(C):
    assert validate_internal(C)
    cat = C.cat
    for x in range(C.C0):
        for y in range(C.C0):
            assert cat.hom(x, y) == hom_scan(C, x, y)
            assert cat.isos(x, y) == invertible_between(C, x, y)
    for m in range(C.C1):
        assert cat.inverse(m) == inverse_oracle(C, m)
        assert cat.is_iso(m) == (inverse_oracle(C, m) is not None)


class TestTableView:
    @pytest.mark.parametrize("coeff", list(STOCK))
    def test_stock_coefficients_match_scans(self, coeff):
        assert_view_matches_scans(STOCK[coeff])

    @given(preorder_internal())
    @settings(max_examples=100, deadline=None)
    def test_preorders_match_scans(self, C):
        assert_view_matches_scans(C)


class TestComposition:
    def test_group_labels_multiply(self):
        base = FinSetCategory(1)
        g = point_span(base, 1)
        gg = compose_locsys(BZ2, base, g, g)
        assert gg.a == (0,)  # g . g = e in Z/2

    def test_identity_units(self):
        base = FinSetCategory(1)
        s = point_span(base, 1)
        lid = identity_locsys(BZ2, base, 1, s.xi)
        assert compose_locsys(BZ2, base, lid, s).a == s.a
        assert compose_locsys(BZ2, base, s, lid).a == s.a

    def test_discrete_coefficients_are_plain_composition(self):
        base = FinSetCategory(1)
        C = discrete_internal(2)
        s = point_span(base, 1, C=C, xi=(1,), eta=(1,))
        t = compose_locsys(C, base, s, s)
        assert t.span.apex == 1 and t.a == (1,)

    def test_foot_label_mismatch(self):
        base = FinSetCategory(1)
        C = discrete_internal(2)
        s = point_span(base, 0, C=C, xi=(0,), eta=(0,))
        t = point_span(base, 1, C=C, xi=(1,), eta=(1,))
        with pytest.raises(FootMismatchError):
            compose_locsys(C, base, s, t)

    def test_validate_labels(self):
        base = FinSetCategory(1)
        bad = point_span(base, 2, C=ARROW, xi=(1,), eta=(1,))  # 2: 0 -> 1
        assert not bad.validate(ARROW)
        good = point_span(base, 2, C=ARROW, xi=(0,), eta=(1,))
        assert good.validate(ARROW)


class TestLabeledBijections:
    def test_group_and_inverse_laws(self):
        base = FinSetCategory(2)
        bijs = labeled_bijections(BZ3, base, 2, (0, 0), 2, (0, 0))
        assert len(bijs) == 2 * 9  # 2 permutations x 3^2 label families
        e = identity_labeled_bij(BZ3, base, 2, (0, 0))
        for b in bijs:
            binv = invert_labeled_bij(BZ3, base, b)
            assert compose_labeled_bij(BZ3, base, binv, b) == e
            assert compose_labeled_bij(BZ3, base, b, binv) == e

    def test_walking_arrow_restricts_to_invertibles(self):
        base = FinSetCategory(1)
        # no internal isomorphism 0 -> 1, so no labeled bijection between
        # differently labeled points
        assert labeled_bijections(ARROW, base, 1, (0,), 1, (1,)) == []
        assert len(labeled_bijections(ARROW, base, 1, (0,), 1, (0,))) == 1


class TestLevels:
    def test_labeled_sets_level_count(self):
        G = locsys_level(FinSetCategory(1), discrete_internal(2), 1)
        assert len(G.objects) == 3  # empty set plus two labeled points
        assert G.validate()

    def test_trivial_coefficients_match_plain_level(self):
        base = FinSetCategory(1)
        G = _two_cell_groupoid(POINT, base, all_locsys_spans(POINT, base, 1))
        plain = span_level(base, (1,))
        assert len(G.objects) == len(plain.objects) == 5
        assert groupoids_equivalent(G, plain)

    def test_bz2_span_level_count(self):
        base = FinSetCategory(1)
        G = _two_cell_groupoid(BZ2, base, all_locsys_spans(BZ2, base, 1))
        assert len(G.objects) == 6
        assert G.validate()


class TestBatteries:
    @pytest.mark.parametrize("C", [POINT, discrete_internal(2), BZ2, BZ3])
    def test_unit_and_associativity(self, C):
        v = locsys_battery_check(C, bound=1)
        assert v
        assert v.details["triples_checked"] > 0

    def test_corrupted_coefficients_refuted(self):
        C = InternalCategory(1, 2, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1})
        v = locsys_battery_check(C, bound=1)
        assert not v
        assert v.witness["stage"] == "coefficients"


class TestInvertibles:
    @pytest.mark.parametrize("C", [POINT, BZ2, BZ3, ARROW, discrete_internal(2)])
    def test_classification(self, C):
        v = locsys_equivalence_check(C, bound=1)
        assert v
        assert v.details["spans_checked"] > 0

    def test_noninvertible_label_detected(self):
        base = FinSetCategory(1)
        s = point_span(base, 2, C=ARROW, xi=(0,), eta=(1,))
        assert not locsys_invertible_predicate(ARROW, base, s)
        assert not locsys_invertible_search(ARROW, base, s, 1)

    def test_group_label_invertible(self):
        base = FinSetCategory(1)
        s = point_span(base, 1, C=BZ3, xi=(0,), eta=(0,))
        assert locsys_invertible_predicate(BZ3, base, s)
        assert locsys_invertible_search(BZ3, base, s, 1)

    def test_split_idempotent_validates(self):
        assert validate_internal(SPLIT)

    @pytest.mark.parametrize("C", [BZ2, ARROW, SPLIT], ids=["bz2", "arrow", "split"])
    def test_search_matches_oracle_at_bound_1(self, C):
        """Over SPLIT the point span labeled s has the one-sided inverse
        labeled r only."""
        base = FinSetCategory(1)
        for s in _labeled_spans(C, 1):
            for bound in (-1, 0, 1):
                got = locsys_invertible_search(C, base, s, bound)
                assert got == invertible_search_oracle(C, base, s, bound), (s, bound)

    @given(st.sampled_from([BZ2, ARROW, SPLIT]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_search_matches_oracle_at_bound_2(self, C, data):
        base = FinSetCategory(2)
        s = data.draw(st.sampled_from(_labeled_spans(C, 2)))
        bound = data.draw(st.integers(-1, 2))
        assert locsys_invertible_search(C, base, s, bound) == invertible_search_oracle(
            C, base, s, bound
        )

    @pytest.mark.parametrize(
        "C, bound", [(BZ2, 2), (ARROW, 2), (cyclic_internal(3), 1)], ids=["bz2", "arrow", "cyclic3"]
    )
    def test_shared_rows_give_the_fresh_searches_verdict(self, monkeypatch, C, bound):
        """The equivalence check, whose searches share one rows dict,
        against the same check with a fresh search for each labeled span:
        the same verdict, spans_checked and invertible."""
        shared = locsys_equivalence_check(C, bound)
        search = locsys_module.locsys_invertible_search
        monkeypatch.setattr(
            locsys_module, "locsys_invertible_search", lambda C, base, s, bound=None, rows=None: search(C, base, s, bound)
        )
        fresh = locsys_equivalence_check(C, bound)
        assert shared.status == fresh.status == "verified"
        assert shared.details == fresh.details
        assert set(shared.details) == {"spans_checked", "invertible"}


@functools.cache
def _labeled_spans(C, bound):
    return all_locsys_spans(C, FinSetCategory(bound), bound)


def invertible_search_oracle(C, base, s: LocalSystemSpan, bound) -> bool:
    """The labeled inverse search that composes every labeled candidate
    both ways: the slow oracle of locsys_invertible_search."""
    sp = s.span
    for B in base.objects_within(bound):
        for l in base.hom(B, sp.right):
            for r in base.hom(B, sp.left):
                for a in _apex_labels(C, l, r, s.eta, s.xi):
                    t = LocalSystemSpan(Span(sp.right, l, B, r, sp.left), s.eta, s.xi, a)
                    if locsys_iso_to_identity(
                        C, base, compose_locsys(C, base, s, t)
                    ) and locsys_iso_to_identity(C, base, compose_locsys(C, base, t, s)):
                        return True
    return False


class TestMappingFibers:
    def test_comma_set_bz2(self):
        assert comma_set(BZ2, 1, (0,), 1, (0,)) == [(0, 0, 0), (0, 0, 1)]

    def test_fiber_over_bz2_points(self):
        v = locsys_mapping_fiber_check(BZ2, 1, (0,), 1, (0,), bound=1)
        assert v
        assert v.details["fiber_objects"] == 3
        assert v.details["comma_size"] == 2

    def test_fiber_walking_arrow_mixed_feet(self):
        v = locsys_mapping_fiber_check(ARROW, 1, (0,), 1, (1,), bound=1)
        assert v
        assert v.details["comma_size"] == 1

    def test_corrupted_coefficients_refuted(self):
        """The missing composite (1, 1) used to pass unnoticed: verified."""
        C = InternalCategory(1, 2, [0, 0], [0, 0], [0], {(0, 0): 0, (0, 1): 1, (1, 0): 1})
        v = locsys_mapping_fiber_check(C, 1, (0,), 1, (0,), bound=1)
        assert not v
        assert v.witness["stage"] == "coefficients"

    def test_fiber_empty_feet(self):
        v = locsys_mapping_fiber_check(BZ2, 0, (), 0, (), bound=1)
        assert v
        assert v.details["comma_size"] == 0


def _filtered_strict_fiber_homs(C, base, s, t):
    """The former strict-fiber formula, kept as the oracle: every labeled
    2-cell s -> t, kept when both feet components are the identity labeled
    bijections."""
    idl = identity_labeled_bij(C, base, s.span.left, s.xi)
    idr = identity_labeled_bij(C, base, s.span.right, s.eta)
    return [h for bl, h, br in locsys_span_isos(C, base, s, t) if bl == idl and br == idr]


@functools.lru_cache(maxsize=None)
def _strict_fibers(coeff):
    """Every strict fiber at bound 2 (feet up to size 2), as (spans,
    groupoid) pairs."""
    C = {"bz2": BZ2, "cyclic:3": BZ3, "arrow": ARROW}[coeff]
    base = FinSetCategory(2)
    by_feet = {}
    for s in all_locsys_spans(C, base, 2):
        by_feet.setdefault((s.span.left, s.xi, s.span.right, s.eta), []).append(s)
    return C, base, [(objs, _strict_fiber_groupoid(C, base, objs)) for objs in by_feet.values()]


class TestStrictFiberHoms:
    @pytest.mark.parametrize("coeff", ["bz2", "arrow"])
    def test_match_filtered_two_cells_exhaustively(self, coeff):
        C, base, fibers = _strict_fibers(coeff)
        for objs, G in fibers:
            for s, k1 in zip(objs, G.objects):
                for t, k2 in zip(objs, G.objects):
                    direct = [m[2] for m in G.hom(k1, k2)]
                    assert direct == _filtered_strict_fiber_homs(C, base, s, t)

    def test_match_filtered_two_cells_across_labels(self):
        """Spans with the same feet sizes but other labels: no morphism
        unless the feet labels agree, as the filtered 2-cells say."""
        base = FinSetCategory(1)
        objs = [s for s in all_locsys_spans(ARROW, base, 1) if s.span.left == s.span.right == 1]
        G = _strict_fiber_groupoid(ARROW, base, objs)
        for s, k1 in zip(objs, G.objects):
            for t, k2 in zip(objs, G.objects):
                direct = [m[2] for m in G.hom(k1, k2)]
                assert direct == _filtered_strict_fiber_homs(ARROW, base, s, t)
                if (s.xi, s.eta) != (t.xi, t.eta):
                    assert direct == []

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_filtered_two_cells_sampled(self, data):
        """cyclic:3 has too many pairs to compare them all in a test run."""
        C, base, fibers = _strict_fibers(data.draw(st.sampled_from(["bz2", "cyclic:3", "arrow"])))
        objs, G = data.draw(st.sampled_from(fibers))
        i = data.draw(st.integers(0, len(objs) - 1))
        j = data.draw(st.one_of(st.just(i), st.integers(0, len(objs) - 1)))
        direct = [m[2] for m in G.hom(G.objects[i], G.objects[j])]
        assert direct == _filtered_strict_fiber_homs(C, base, objs[i], objs[j])
