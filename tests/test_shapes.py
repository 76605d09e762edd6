"""Shape posets: object counts, order laws, functoriality, wedge gluing."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanlab.shapes import (
    LambdaShape,
    SimplexMap,
    lambda_shape,
    lambda_wedge_check,
    sigma_map,
    sigma_shape,
)
from spanlab.verdict import ResourceError, ShapeSpecError


def monotone_maps(n, m):
    """All weakly increasing maps [n] -> [m]."""
    return [
        SimplexMap(n, m, vals)
        for vals in itertools.product(range(m + 1), repeat=n + 1)
        if all(a <= b for a, b in zip(vals, vals[1:]))
    ]


class TestSigmaShape:
    def test_two_interval_objects(self):
        s = sigma_shape(2)
        assert len(s.objects) == 6
        assert set(s.objects) == {((i, j),) for i in range(3) for j in range(i, 3)}

    def test_zero_arity_single_object(self):
        assert len(sigma_shape(0).objects) == 1

    def test_product_shape_count(self):
        assert len(sigma_shape((1, 1)).objects) == 9

    def test_three_interval_count(self):
        assert len(sigma_shape(3).objects) == 10

    @pytest.mark.parametrize(
        "arities",
        [(n,) for n in range(6)]
        + [(a, b) for a in range(4) for b in range(4)]
        + [(1, 2, 3), (2, 2, 2)],
    )
    def test_count_formula(self, arities):
        expected = 1
        for n in arities:
            expected *= (n + 1) * (n + 2) // 2
        assert len(sigma_shape(arities).objects) == expected

    def test_empty_arities_rejected(self):
        with pytest.raises(ShapeSpecError):
            sigma_shape(())

    def test_negative_arity_rejected(self):
        with pytest.raises(ShapeSpecError):
            sigma_shape((-1,))

    def test_order_over_the_bound_raises(self):
        """C(72, 4) = 1,028,790 pairs at arity 68 exceed the bound of 10^6,
        C(71, 4) = 971,635 at arity 67 do not; a negative arity is still a
        ShapeSpecError, however large the others."""
        with pytest.raises(ResourceError, match="1028790 pairs"):
            sigma_shape((68,))
        with pytest.raises(ResourceError):
            sigma_shape((12, 12))
        with pytest.raises(ShapeSpecError):
            sigma_shape((-1, 400))

    def test_order_laws(self):
        s = sigma_shape((2, 2))
        objs = s.objects
        for a in objs:
            assert s.leq(a, a)
        for a in objs:
            for b in objs:
                if s.leq(a, b) and s.leq(b, a):
                    assert a == b
        import random

        rng = random.Random(0)
        for _ in range(300):
            a, b, c = (rng.choice(objs) for _ in range(3))
            if s.leq(a, b) and s.leq(b, c):
                assert s.leq(a, c)

    def test_json_wire_format(self):
        data = sigma_shape(2).to_json()
        assert data["arities"] == [2]
        assert len(data["objects"]) == 6
        assert all(len(pair) == 2 for rel in data["cover_relations"] for pair in [rel])


class TestLambdaShape:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_is_2n_plus_1(self, n):
        assert len(lambda_shape(n).objects) == 2 * n + 1

    def test_three_interval_count(self):
        assert len(lambda_shape(3).objects) == 7

    def test_subset_of_parent(self):
        lam = lambda_shape((2, 2))
        parent = set(lam.parent.objects)
        assert all(o in parent for o in lam.objects)


class TestSimplexMap:
    def test_validation(self):
        with pytest.raises(ShapeSpecError):
            SimplexMap(1, 2, (2, 0))  # not monotone
        with pytest.raises(ShapeSpecError):
            SimplexMap(1, 2, (0, 3))  # out of range
        with pytest.raises(ShapeSpecError):
            SimplexMap(1, 2, (0,))  # wrong length

    def test_composition(self):
        phi = SimplexMap(1, 2, (0, 2))
        psi = SimplexMap(2, 3, (0, 1, 3))
        assert psi.compose(phi).values == (0, 3)


class TestSigmaMap:
    def test_endpoint_substitution(self):
        phi = SimplexMap(1, 2, (0, 2))
        mapping = sigma_map(phi, sigma_shape(1))
        assert mapping[((0, 1),)] == ((0, 2),)

    def test_identity(self):
        s = sigma_shape(2)
        mapping = sigma_map(SimplexMap.identity(2), s)
        assert all(mapping[a] == a for a in s.objects)

    def test_collapse(self):
        phi = SimplexMap(1, 0, (0, 0))
        mapping = sigma_map(phi, sigma_shape(1))
        assert mapping[((0, 1),)] == ((0, 0),)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ShapeSpecError):
            sigma_map(SimplexMap.identity(1), sigma_shape(2))

    def test_functoriality(self):
        for n, m, p in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 3, 1)]:
            src = sigma_shape(n)
            for phi in monotone_maps(n, m):
                for psi in monotone_maps(m, p):
                    composite = sigma_map(psi.compose(phi), src)
                    step1 = sigma_map(phi, src)
                    step2 = sigma_map(psi, sigma_shape(m))
                    assert all(composite[a] == step2[step1[a]] for a in src.objects)

    def test_inert_maps_preserve_lambda(self):
        for n in range(1, 4):
            src = sigma_shape(1)
            lam_src = lambda_shape(1)
            for i in range(n):
                phi = SimplexMap(1, n, (i, i + 1))
                mapping = sigma_map(phi, src)
                tgt = sigma_shape(n)
                assert all(
                    tgt.is_lambda_object(mapping[a]) for a in lam_src.objects
                )

    def test_non_inert_map_breaks_lambda(self):
        phi = SimplexMap(1, 2, (0, 2))
        assert phi(1) != phi(0) + 1  # not the inclusion of a subinterval
        mapping = sigma_map(phi, sigma_shape(1))
        tgt = sigma_shape(2)
        assert not tgt.is_lambda_object(mapping[((0, 1),)])


class TestWedge:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_wedge_verified(self, n):
        assert lambda_wedge_check(n)

    def test_sizes(self):
        assert lambda_wedge_check(2).details["sizes"] == 5
        assert lambda_wedge_check(4).details["sizes"] == 9

    def test_rejects_zero(self):
        with pytest.raises(ShapeSpecError):
            lambda_wedge_check(0)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_sigma_map_monotone(n, m, data):
    values = data.draw(
        st.lists(st.integers(0, m), min_size=n + 1, max_size=n + 1).map(sorted)
    )
    phi = SimplexMap(n, m, tuple(values))
    src = sigma_shape(n)
    tgt = sigma_shape(m)
    mapping = sigma_map(phi, src)
    for a in src.objects:
        for b in src.objects:
            if src.leq(a, b):
                assert tgt.leq(mapping[a], mapping[b])


def _brute_leq(a, b):
    """Interval containment, direction by direction."""
    return all(i <= i2 and j2 <= j for (i, j), (i2, j2) in zip(a, b))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_compiled_tables_match_interval_containment(arities):
    """Every compiled order table agrees with brute-force interval
    containment, and each arity tuple has one shared shape."""
    s = sigma_shape(arities)
    assert s is sigma_shape(tuple(arities))
    objs = s.objects
    ups = {c: tuple(b for b in objs if b != c and _brute_leq(c, b)) for c in objs}
    lam = tuple(c for c in objs if all(j - i <= 1 for i, j in c))
    lam_set = set(lam)
    lam_up = {c: tuple(b for b in ups[c] if b in lam_set) for c in objs}
    order = {(c, c) for c in objs} | {(c, b) for c in objs for b in ups[c]}
    assert s.order == order
    assert s.strict_up == ups
    assert s.lambda_up == lam_up
    assert s.lambda_cells == lam
    length = lambda c: sum(j - i for i, j in c)
    assert list(s.fill_order) == sorted(objs, key=lambda c: (length(c), c))
    assert s.arrows_among(objs) == tuple((a, b) for a in objs for b in ups[a])
    for nodes in (lam, *lam_up.values()):
        assert s.arrows_among(nodes) == tuple(
            (a, b) for a in nodes for b in nodes if a != b and (a, b) in order
        )


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_lambda_search_order_places_each_cell_once_its_up_set_is(arities):
    """lambda_search_order lists the Lambda cells, each after the cells
    above it; a vertex comes after every cell whose vertices all precede
    it, and the vertices keep fill order."""
    s = sigma_shape(arities)
    order = s.lambda_search_order
    assert sorted(order) == sorted(s.lambda_cells)
    at = {c: k for k, c in enumerate(order)}
    assert all(at[b] < at[c] for c in order for b in s.lambda_up[c])
    vertices = [c for c in order if not s.lambda_up[c]]
    assert vertices == [c for c in s.fill_order if c in s.lambda_set and not s.lambda_up[c]]
    for c in order:
        if s.lambda_up[c]:
            last = max(at[b] for b in s.lambda_up[c] if not s.lambda_up[b])
            assert all(s.lambda_up[x] for x in order[last + 1 : at[c]])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_lambda_due_lists_each_limit_at_the_last_of_its_up_set(arities):
    """lambda_due steps through the Lambda cells in fill order, and names
    each Lambda cell with a Lambda up-set once, at the step of the last
    cell of that up-set; lambda_up_arrows are the arrows among each
    cell's Lambda up-set."""
    s = sigma_shape(arities)
    steps = [c for c, _ in s.lambda_due]
    assert steps == [c for c in s.fill_order if c in s.lambda_set]
    at = {c: k for k, c in enumerate(steps)}
    due = [e for _, cells in s.lambda_due for e in cells]
    assert sorted(due) == sorted(c for c in s.lambda_cells if s.lambda_up[c])
    for k, (_, cells) in enumerate(s.lambda_due):
        assert all(max(at[b] for b in s.lambda_up[e]) == k < at[e] for e in cells)
    assert s.lambda_up_arrows == {c: s.arrows_among(s.lambda_up[c]) for c in s.objects}


@given(st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(lambda a: sum(a) <= 6))
@settings(max_examples=40, deadline=None)
def test_filled_up_factors_through_covers(arities):
    """filled_up lists every pair c < b of filled cells once, under c.  A
    pair with no via has b covering c; otherwise via is a filled cover of
    c with via <= b, and the pair (c, via) comes before (c, b)."""
    s = sigma_shape(arities)
    length = lambda c: sum(j - i for i, j in c)
    filled = [c for c in s.objects if c not in s.lambda_set]
    assert sorted(s.filled_up) == filled
    for c, pairs in s.filled_up.items():
        assert sorted(b for b, _ in pairs) == [b for b in filled if b != c and _brute_leq(c, b)]
        placed = set()
        for b, via in pairs:
            cover = via if via is not None else b
            assert cover in filled and _brute_leq(c, cover) and length(c) - length(cover) == 1
            if via is not None:
                assert via in placed and via != b and _brute_leq(via, b)
            placed.add(b)
