"""Span diagrams over a finite base and the structural checks on them.

A span diagram is a functor from a triangular index poset into the base.
Everything here is generator-first: diagrams are produced by extending free
data on the length-at-most-one sub-poset (vertex objects and edge spans) by
iterated canonical limits, never by filtering all functors on the full
poset.  Verdicts distinguish refuted from inconclusive whenever a size bound
or enumeration ceiling truncates a search.
"""
from __future__ import annotations

import itertools
import operator
import os
import random

from .fincat import FinSetCategory, Functor
from .groupoid import FinGroupoid, equivalent, positions
from .shapes import SigmaShape, sigma_shape
from .verdict import FootMismatchError, NoLimitError, ResourceError, SpanlabError, Verdict

DEFAULT_CEILING = 50000


def enumeration_ceiling() -> int:
    """SPANLAB_MAX_CELLS, or DEFAULT_CEILING when it is unset.  A value that
    is not an integer at least 0 is a usage error."""
    text = os.environ.get("SPANLAB_MAX_CELLS")
    if text is None:
        return DEFAULT_CEILING
    try:
        ceiling = int(text)
    except ValueError:
        ceiling = -1
    if ceiling < 0:
        raise SpanlabError(f"SPANLAB_MAX_CELLS must be an integer at least 0, got {text!r}")
    return ceiling


# ---------------------------------------------------------------------------
# diagrams


class SpanDiagram:
    """A functor from a SigmaShape into the base.

    obj maps cells to base objects; mor maps strictly comparable cell pairs
    (a, b) with a <= b to base morphisms.  Hashable on its data so level
    groupoids can deduplicate on the nose.
    """

    __slots__ = ("shape", "base", "obj", "mor", "_key", "comparisons")

    def __init__(self, shape: SigmaShape, base, obj: dict, mor: dict):
        self.shape = shape
        self.base = base
        self.obj = dict(obj)
        self.mor = dict(mor)
        self._key = None
        self.comparisons = {}

    @property
    def key(self):
        """The arities and the sorted obj and mor items, computed on first
        use; nothing mutates obj or mor after construction."""
        if self._key is None:
            self._key = (
                self.shape.arities,
                tuple(sorted(self.obj.items())),
                tuple(sorted(self.mor.items())),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, SpanDiagram) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"SpanDiagram{self.key!r}"

    def mor_at(self, a, b):
        if a == b:
            return self.base.identity(self.obj[a])
        return self.mor[(a, b)]

    def comparable_pairs(self):
        return self.shape.arrows_among(self.shape.objects)

    def validate(self) -> Verdict:
        """Functoriality: morphisms present on every comparable pair and
        closed under composition along the poset order."""
        for a, b in self.comparable_pairs():
            if (a, b) not in self.mor:
                return Verdict.refuted(witness={"pair": (a, b), "reason": "missing morphism"})
            m = self.mor[(a, b)]
            if self.base.src(m) != self.obj[a] or self.base.tgt(m) != self.obj[b]:
                return Verdict.refuted(witness={"pair": (a, b), "reason": "wrong endpoints"})
        for a, b in self.comparable_pairs():
            for c in self.shape.strict_up[b]:
                if self.base.compose(self.mor[(b, c)], self.mor[(a, b)]) != self.mor[(a, c)]:
                    return Verdict.refuted(
                        witness={"triple": (a, b, c), "reason": "composition mismatch"}
                    )
        return Verdict.verified()


def _cells_by_length(shape: SigmaShape, cells):
    return sorted(cells, key=shape.fill_rank.__getitem__)


def _cell_diagram(shape: SigmaShape, c, obj, mor):
    """The diagram whose limit presents cell c: the Lambda cells strictly
    above c, as node objects and arrows (a, b, morphism) read off (obj,
    mor)."""
    nodes = shape.lambda_up[c]
    node_obj = {b: obj[b] for b in nodes}
    arrows = [(a, b, mor[(a, b)]) for a, b in shape.arrows_among(nodes)]
    return node_obj, arrows


def _cell_limit(shape: SigmaShape, base, c, obj, mor):
    """The canonical limit presentation of cell c, as (node_obj, arrows,
    apex, legs).  Raises NoLimitError."""
    node_obj, arrows = _cell_diagram(shape, c, obj, mor)
    L, legs = base.limit_of_diagram(node_obj, arrows)
    return node_obj, arrows, L, legs


def _cell_comparison(d: SpanDiagram, c, limits=None):
    """The canonical limit presentation (node_obj, L, legs) of cell c of d
    and the comparison map from d's cone at c into L, kept in d.comparisons.
    Raises NoLimitError when there is no limit or the cone does not factor.

    Cell c's diagram is always read off d.  A presentation (node_obj,
    arrows, L, legs) in limits, as kan_extend hands out, is used only when
    its diagram equals that one: limit_of_diagram is a function of the
    diagram, so the presentation is the limit it would take again."""
    if c not in d.comparisons:
        node_obj, arrows = _cell_diagram(d.shape, c, d.obj, d.mor)
        given = limits.get(c) if limits else None
        if given is not None and given[0] == node_obj and given[1] == arrows:
            L, legs = given[2], given[3]
        else:
            L, legs = d.base.limit_of_diagram(node_obj, arrows)
        cone = {b: d.mor[(c, b)] for b in node_obj}
        u = d.base.factor_through_limit(L, legs, d.obj[c], cone, node_obj)
        d.comparisons[c] = node_obj, L, legs, u
    return d.comparisons[c]


# ---------------------------------------------------------------------------
# free data on the Lambda sub-poset


def enumerate_lambda_data(shape: SigmaShape, base, bound=None):
    """Yield all functors on the Lambda sub-poset with objects drawn from
    objects_within(bound), as (obj, mor) dict pairs.

    Cells are processed vertices-first; each new cell's data is a choice of
    object plus a morphism into the limit of the already-assigned up-set,
    which parametrizes exactly the compatible families.
    """
    order = _cells_by_length(shape, shape.lambda_cells)
    yield from _lambda_extensions(shape, base, order, base.objects_within(bound), 0, {}, {})


def _lambda_extensions(shape, base, order, objects, i, obj, mor):
    """The functors that extend (obj, mor), given on order[:i], over the
    rest of order.  Not a closure that calls itself: that is a reference cycle."""
    if i == len(order):
        yield dict(obj), dict(mor)
        return
    c = order[i]
    ups = shape.lambda_up[c]
    if not ups:
        for A in objects:
            obj[c] = A
            yield from _lambda_extensions(shape, base, order, objects, i + 1, obj, mor)
        obj.pop(c, None)  # never set when no object is within the bound
        return
    node_obj, arrows = _cell_diagram(shape, c, obj, mor)
    try:
        L, legs = base.limit_of_diagram(node_obj, arrows)
        for A in objects:
            obj[c] = A
            for h in base.hom(A, L):
                for b in ups:
                    mor[(c, b)] = base.compose(legs[b], h)
                yield from _lambda_extensions(shape, base, order, objects, i + 1, obj, mor)
    except NoLimitError:
        for A in objects:
            obj[c] = A
            for legs_c in base.cones(A, ups, node_obj, arrows):
                for b in ups:
                    mor[(c, b)] = legs_c[b]
                yield from _lambda_extensions(shape, base, order, objects, i + 1, obj, mor)
    del obj[c]
    for b in ups:
        mor.pop((c, b), None)


def count_lambda_data(shape: SigmaShape, base, bound, cap: int):
    """(count, data), count being min(cap, the number of free data
    enumerate_lambda_data yields) and data an iterator over them as (obj,
    mor) dict pairs.  Where _known_lambda_count tells the count, nothing is
    enumerated and data is an enumeration not yet started, which yields
    more than cap data when count is cap; otherwise data unpacks the data
    up to the cap, listed from one enumeration (_packed_lambda_data), and
    count is their number."""
    known = _known_lambda_count(shape, base, bound, cap)
    if known is not None:
        return known, enumerate_lambda_data(shape, base, bound)
    (cells, arrows), packed = _packed_lambda_data(shape, base, bound, cap)
    data = ((dict(zip(cells, values)), dict(zip(arrows, values[len(cells):]))) for values in packed)
    return len(packed), data


def _known_lambda_count(shape: SigmaShape, base, bound, cap: int):
    """min(cap, the number of free data) where it follows without
    enumerating them, else None.

    - Lower bound, any directions: an initial object extends every other
      Lambda cell in exactly one way (one morphism into the limit, or one
      cone when there is none).  With one among the objects, every choice
      of vertex objects extends to a datum, so there are at least
      |objects| ** v data, v the number of vertex cells; when that reaches
      the cap, the cap is the answer.
    - Closed form, one direction: an edge's up-set is its two vertices x
      and y, with no arrow between them.  _lambda_extensions picks an
      object A and a morphism into their limit, or a cone from A when there
      is no limit; either way a pair of morphisms A -> x, A -> y, by the
      limit's universal property.  So the edge has N(x, y) = sum_A |hom(A,
      x)| |hom(A, y)| choices, and the count is the sum over vertex objects
      x_0..x_n of prod_i N(x_{i-1}, x_i): the vector-matrix product 1^T N^n
      1, with N = H^T H for H[A][x] = |hom(A, x)|, which is x ** A on
      finite sets."""
    objects = base.objects_within(bound)
    vertices = sum(1 for c in shape.lambda_cells if not shape.lambda_up[c])
    if len(objects) ** vertices >= cap and any(map(base.is_initial, objects)):
        return cap
    if shape.k != 1:
        return None
    if isinstance(base, FinSetCategory):
        H = [[x**A for x in objects] for A in objects]
    else:
        H = [[len(base.hom(A, x)) for x in objects] for A in objects]
    columns = list(zip(*H))
    row = [1] * len(objects)
    for _ in range(shape.arities[0]):
        through = [sum(map(operator.mul, row, h)) for h in H]
        row = [sum(map(operator.mul, through, col)) for col in columns]
    return min(cap, sum(row))


def _packed_lambda_data(shape: SigmaShape, base, bound, cap: int):
    """Up to cap free data from one enumeration, as (keys, packed).  keys
    are the first datum's obj and mor keys, in the order _lambda_extensions
    inserts them, which every datum shares; each datum is packed as one
    tuple of its obj values and then its mor values in that order, equal
    values shared: on finset:1 at (2, 1) its 518 data take 0.2 MB packed
    where their dicts take 2.2 MB."""
    keys, packed, shared = ((), ()), [], {}
    for lo, lm in itertools.islice(enumerate_lambda_data(shape, base, bound), cap):
        if not packed:
            keys = list(lo), list(lm)
        packed.append(tuple(shared.setdefault(x, x) for x in [*lo.values(), *lm.values()]))
    return keys, packed


def sample_lambda_data(shape: SigmaShape, base, bound, rng: random.Random):
    """One random functor on the Lambda sub-poset, seeded."""
    objects = base.objects_within(bound)
    obj, mor = {}, {}
    for c in _cells_by_length(shape, shape.lambda_cells):
        ups = shape.lambda_up[c]
        if not ups:
            obj[c] = rng.choice(objects)
            continue
        _, _, L, legs = _cell_limit(shape, base, c, obj, mor)
        while True:
            A = rng.choice(objects)
            h = base.random_hom(A, L, rng)
            if h is not None:
                break
        obj[c] = A
        for b in ups:
            mor[(c, b)] = base.compose(legs[b], h)
    return obj, mor


# ---------------------------------------------------------------------------
# Kan extension and the Cartesian certificate


def kan_extend(shape: SigmaShape, base, lam_obj: dict, lam_mor: dict, limits=None) -> SpanDiagram:
    """Extend free Lambda data to the full shape, filling each remaining
    cell with the canonical limit of the Lambda part of its up-set.

    Morphisms between filled cells are the unique cone factorizations.
    Raises NoLimitError naming the first unfillable cell.  When limits is a
    dict, it receives each filled cell's presentation (node_obj, arrows, L,
    legs), for is_cartesian; the diagram itself keeps none of them.
    """
    lam = shape.lambda_set
    obj = dict(lam_obj)
    mor = dict(lam_mor)
    if limits is None:
        limits = {}
    for c in shape.fill_order:
        if c in lam:
            continue
        try:
            limits[c] = _cell_limit(shape, base, c, obj, lam_mor)
        except NoLimitError as exc:
            raise NoLimitError(f"cell {c} has no limit: {exc}") from exc
        node_obj, _, L, legs = limits[c]
        obj[c] = L
        for b in node_obj:
            mor[(c, b)] = legs[b]
        # factor through the earlier-filled big cells above c
        for b in shape.strict_up[c]:
            if b in lam:
                continue
            node_b, _, _, legs_b = limits[b]
            cone = {lb: mor[(c, lb)] for lb in node_b}
            mor[(c, b)] = base.factor_through_limit(obj[b], legs_b, obj[c], cone, node_b)
    return SpanDiagram(shape, base, obj, mor)


def is_cartesian(d: SpanDiagram, limits=None) -> Verdict:
    """Verify that every cell with an interval of length >= 2 is a limit of
    its Lambda up-set: d's own cone at the cell, d.mor[(c, b)], must factor
    through the canonical limit by an isomorphism.  Each cell's diagram is
    read off d; its limit is taken, or reused from the presentations that
    kan_extend put in limits when their diagram is the one read off."""
    shape, base = d.shape, d.base
    lam = shape.lambda_set
    certificate = {}
    for c in shape.objects:
        if c in lam:
            continue
        try:
            _, L, _, h = _cell_comparison(d, c, limits)
        except NoLimitError:
            return Verdict.refuted(witness={"cell": c, "reason": "cone does not factor"})
        if not base.is_iso(h):
            return Verdict.refuted(
                witness={"cell": c, "reason": "comparison to the limit is not invertible"}
            )
        certificate[c] = {"limit_size": L}
    return Verdict.verified(witness={"certificate": certificate})


def restrict_along(small: SigmaShape, phis, d: SpanDiagram) -> SpanDiagram:
    """Pull a diagram back along the poset map induced by one SimplexMap per
    direction."""
    cells, arrows = small.restriction(phis)
    obj = {c: d.obj[m] for c, m in cells}
    mor = {ab: d.mor_at(ma, mb) for ab, (ma, mb) in arrows}
    return SpanDiagram(small, d.base, obj, mor)


# ---------------------------------------------------------------------------
# natural families of isomorphisms


def natural_with(base, shape, d1: SpanDiagram, d2: SpanDiagram, fam: dict, c, g) -> bool:
    """Is g: d1.obj[c] -> d2.obj[c] natural with the components of fam on
    every arrow from c to a cell of fam?  The family searches put the cells
    of fam before c in fill order or in shape.lambda_search_order, each of
    which lists every cell after the cells above it, so no arrow runs from
    a cell of fam to c; is_natural_family passes a family that holds c and
    asks for every cell of it.  Walks c's strict up-set and tests each
    cell for membership in fam, which reaches the same arrows as walking
    fam.  The strict up-set excludes c, so every arrow c -> b is between
    distinct cells and is read straight from mor."""
    for b in shape.strict_up[c]:
        if b in fam and not base.commutes(d2.mor[(c, b)], g, fam[b], d1.mor[(c, b)]):
            return False
    return True


def natural_families(base, shape, d1: SpanDiagram, d2: SpanDiagram):
    """All families of isomorphisms over the Lambda cells, natural for every
    comparable pair, in the order a backtracking search along
    shape.lambda_search_order finds them.

    Fill order places every vertex before the first edge, so a search in
    fill order, with no arrow among the vertices, sees a dead end only
    once all of them are assigned; lambda_search_order reaches each arrow
    as soon as its two ends are placed.  Both orders list every cell after
    the cells above it, so natural_with tests every arrow and both
    searches find the same families.  It is a generator, so that
    bench/tracer.py counts the families it yields."""
    yield from _natural_extensions(base, shape, shape.lambda_search_order, d1, d2, 0, {})


def _natural_extensions(base, shape, order, d1, d2, i, fam):
    """The natural families that extend fam, given on order[:i], over the
    rest of order.  A module function rather than a closure that calls
    itself: such a closure is a reference cycle, which keeps every
    family and diagram it saw alive until the cyclic collector runs."""
    if i == len(order):
        yield dict(fam)
        return
    c = order[i]
    for g in base.isos(d1.obj[c], d2.obj[c]):
        if natural_with(base, shape, d1, d2, fam, c, g):
            fam[c] = g
            yield from _natural_extensions(base, shape, order, d1, d2, i + 1, fam)
            del fam[c]


def is_natural_family(base, shape, cells, d1, d2, fam) -> bool:
    """Is fam, over the given cells, a family of isomorphisms natural on
    every arrow among them?  Arrows from a cell of the list to a cell
    outside it are not tested: extend_natural_family asks for the filled
    cells, and span_level's _extend for the Lambda cells.  Every component
    is checked before any square is compared, so each square composes."""
    part = {c: fam[c] for c in cells}
    for c, g in part.items():
        if not base.is_iso(g) or base.src(g) != d1.obj[c] or base.tgt(g) != d2.obj[c]:
            return False
    return all(natural_with(base, shape, d1, d2, part, c, g) for c, g in part.items())


def extend_natural_family(d1: SpanDiagram, d2: SpanDiagram, fam: dict):
    """Extend a natural family given on the Lambda cells to the full shape
    by limit comparison; returns the full family, or None when some induced
    component fails to be a natural isomorphism.

    Precondition: fam is a family of isomorphisms d1.obj[c] -> d2.obj[c]
    natural on every arrow among the Lambda cells (is_natural_family).
    natural_families and random_natural_family build their families so,
    and span_level's _extend tests its transported ones.

    A filled cell c gets full[c] = u2^-1 . w, where u2 is d2's comparison
    into the limit L of c's Lambda up-set, with legs, and w factors the
    cone full[b] . d1.mor[(c, b)] through L.  So for every b in that
    up-set, d2.mor[(c, b)] . full[c] = legs[b] . u2 . u2^-1 . w = legs[b]
    . w = full[b] . d1.mor[(c, b)]: the squares from a filled cell into
    its Lambda up-set commute by construction, for any d1, d2 and family,
    as factor_through_limit is exact on every base.  They are not
    compared again, nor are the squares among the Lambda cells, which the
    precondition gives.  What is compared is each filled component's iso
    and endpoint test and the squares among the filled cells; no arrow
    runs from a Lambda cell to a filled one."""
    shape, base = d1.shape, d1.base
    lam = shape.lambda_set
    full = dict(fam)
    filled = []
    for c in shape.fill_order:
        if c in lam:
            continue
        try:
            node_obj, L, legs, u2 = _cell_comparison(d2, c)
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
        filled.append(c)
    if not is_natural_family(base, shape, filled, d1, d2, full):
        return None
    return full


def random_natural_family(base, shape, d: SpanDiagram, rng):
    """A seeded random natural automorphism family on the Lambda cells;
    falls back to the identity family when sampling keeps dead-ending."""
    order = _cells_by_length(shape, shape.lambda_cells)
    for _ in range(12):
        fam = {}
        for c in order:
            cands = [
                g for g in base.isos(d.obj[c], d.obj[c]) if natural_with(base, shape, d, d, fam, c, g)
            ]
            if not cands:
                break
            fam[c] = rng.choice(cands)
        else:
            return fam
    return {c: base.identity(d.obj[c]) for c in shape.lambda_cells}


# ---------------------------------------------------------------------------
# plain spans


class Span:
    """X <- A -> Y with explicit legs."""

    __slots__ = ("left", "lleg", "apex", "rleg", "right")

    def __init__(self, left, lleg, apex, rleg, right):
        self.left, self.lleg, self.apex, self.rleg, self.right = left, lleg, apex, rleg, right

    @property
    def key(self):
        return (self.left, self.lleg, self.apex, self.rleg, self.right)

    def __eq__(self, other):
        return isinstance(other, Span) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Span({self.left} <- {self.apex} -> {self.right})"


def identity_span(base, X) -> Span:
    return Span(X, base.identity(X), X, base.identity(X), X)


def reverse_span(s: Span) -> Span:
    return Span(s.right, s.rleg, s.apex, s.lleg, s.left)


def compose_spans(base, s: Span, t: Span) -> Span:
    """Pullback composite of X <- A -> Y and Y <- B -> Z."""
    if s.right != t.left:
        raise FootMismatchError(f"feet {s.right} and {t.left} differ")
    P, p, q = base.pullback(s.rleg, t.lleg)
    return Span(s.left, base.compose(s.lleg, p), P, base.compose(t.rleg, q), t.right)


def all_spans(base, bound=None):
    return [
        Span(X, l, A, r, Y)
        for A in base.objects_within(bound)
        for X in base.objects_within(bound)
        for Y in base.objects_within(bound)
        for l in base.hom(A, X)
        for r in base.hom(A, Y)
    ]


def iso_to_identity_span(base, s: Span) -> bool:
    """Is s isomorphic to the identity span by a 2-cell fixing the feet?
    Needs equal legs that are invertible."""
    return s.left == s.right and s.lleg == s.rleg and base.is_iso(s.lleg)


# ---------------------------------------------------------------------------
# level groupoids


def _iso_class_reps(base, objects):
    """Each object mapped to the first object of its isomorphism class in
    the list."""
    reps = {}
    for x in objects:
        if x not in reps:
            for y in objects:
                if y not in reps and (y == x or base.isos(x, y)):
                    reps[y] = x
    return reps


def _canonical_form(base, shape, reps, d: SpanDiagram):
    """The least transport of d's Lambda data onto the representative
    objects, as a tuple of per-cell parts, and a transport phi that reaches
    it, as a dict of Lambda components.

    A transport is a family of isomorphisms phi[c]: d.obj[c] ->
    reps[d.obj[c]] over the Lambda cells; it sends a Lambda arrow m: a -> b
    to phi[b] . m . phi[a]^-1.  In fill order every cell follows its Lambda
    up-set, so the part of the transported data at cell c (its object and
    its arrows up) depends only on phi at c and at earlier cells.  Parts
    are compared by repr, which does not depend on the hash seed, and the
    search keeps every partial phi whose parts so far are least: canonical
    labelling by refinement (McKay and Piperno, arXiv:1301.1493) for a
    product of isomorphism sets.  Diagrams have the same form exactly when
    their Lambda data are isomorphic."""
    form, best = [], [{}]
    for c in _cells_by_length(shape, shape.lambda_cells):
        x, ups = d.obj[c], shape.lambda_up[c]
        least, keep = None, []
        for g in base.isos(x, reps[x]):
            g_inv = base.inverse(g)
            for phi in best:
                ms = (base.compose(phi[b], base.compose(d.mor[(c, b)], g_inv)) for b in ups)
                part = repr((reps[x], *ms))
                if least is None or part < least:
                    least, keep = part, []
                if part == least:
                    keep.append({**phi, c: g})
        form.append(least)
        best = keep
    return tuple(form), best[0]


def _is_identity_family(base, d: SpanDiagram, fam: dict) -> bool:
    """Is every component of fam the identity of d's object at its cell?

    Identity lemma: on a Cartesian diagram d, whose comparison u2 into the
    limit of each filled cell's Lambda up-set is invertible,
    extend_natural_family(d, d, fam) of the identity family gives h = u2^-1
    . u2 = id at every filled cell, which is natural.  So the identity
    family always extends, to the identity, and callers that hold a
    Cartesian diagram do not extend it."""
    return all(g == base.identity(d.obj[c]) for c, g in fam.items())


def natural_family_generators(base, shape, d: SpanDiagram):
    """Generators of the group G of natural automorphism families of d's
    Lambda data, and its order |G|, from a stabilizer chain (McKay and
    Piperno, arXiv:1301.1493) along shape.lambda_search_order.

    G_i is the subgroup of families that are the identity on the first i
    cells, so G_0 = G and the last is trivial.  Restriction to cell i is a
    homomorphism from G_i onto the set of values it reaches, with kernel
    G_(i+1), so one family of G_i per value it reaches (a coset
    representative of G_(i+1)) together with G_(i+1) generates G_i, and |G|
    is the product of the orbit sizes.  The representative for a value g
    other than the identity is the first completion of the family search
    (_natural_extensions) with the earlier cells fixed to identities and
    cell i fixed to g.  A cell whose object has one automorphism adds
    nothing.  The search follows lambda_search_order rather than fill
    order, which places every vertex before the first edge: there, with no
    arrow among the vertices, a dead end shows only once all of them are
    assigned.

    Generator lemma: let d be Cartesian.  Restricting a natural
    automorphism of d to the Lambda cells is a group homomorphism, and
    factorization through each filled cell's limit is unique, so
    extend_natural_family(d, d, fam) returns a family exactly when fam is
    in its image, a subgroup of G.  Hence every family extends if and only
    if every generator does, and the identity family, which every subgroup
    holds, extends (identity lemma, _is_identity_family)."""
    order = shape.lambda_search_order
    fixed, generators, size = {}, [], 1
    for i, c in enumerate(order):
        ident = base.identity(d.obj[c])
        orbit = 1
        for g in base.isos(d.obj[c], d.obj[c]):
            if g != ident and natural_with(base, shape, d, d, fixed, c, g):
                # a fresh family: the search abandoned after its first
                # completion leaves the cells it assigned in place
                search = _natural_extensions(base, shape, order, d, d, i + 1, {**fixed, c: g})
                first = next(search, None)
                if first is not None:
                    generators.append(first)
                    orbit += 1
        fixed[c] = ident
        size *= orbit
    return generators, size


def _extend(d1: SpanDiagram, d2: SpanDiagram, fam: dict):
    """The natural isomorphism d1 -> d2 extending a natural Lambda family,
    as its components in cell order.  Kan extension builds Cartesian
    diagrams, and a natural identity family makes d1 and d2 agree on the
    Lambda cells and so everywhere, so by the identity lemma
    (_is_identity_family) the identity family extends to the identity and
    is not extended.  Any other family is tested natural on the Lambda
    cells, the precondition of extend_natural_family, which a transported
    family is not built to meet.  A family that is not natural or fails to
    extend is an error: between Cartesian diagrams it extends."""
    base, shape = d1.base, d1.shape
    if _is_identity_family(base, d1, fam):
        return tuple(base.identity(d1.obj[c]) for c in shape.objects)
    natural = is_natural_family(base, shape, shape.lambda_cells, d1, d2, fam)
    full = extend_natural_family(d1, d2, fam) if natural else None
    if full is None:
        raise SpanlabError("a natural Lambda family between Cartesian diagrams fails to extend")
    return tuple(full[c] for c in shape.objects)


def span_level(base, arities, bound=None) -> FinGroupoid:
    """The groupoid of Cartesian diagrams of the given arities with objects
    within bound; morphisms are natural isomorphisms, each a tuple of
    (cell, component) pairs in cell order.

    Homs come from canonical forms (_canonical_form), by two lemmas on the
    Cartesian diagrams that Kan extension builds:

    - Extension lemma: a natural family of isomorphisms on the Lambda
      cells between Cartesian diagrams extends uniquely to every cell, by
      comparing the limits that fill the other cells.  The identity family
      extends to the identity, so it is never extended.
    - Bucket lemma: hence two diagrams are isomorphic exactly when their
      Lambda data are, that is when their canonical forms agree.  Diagrams
      are bucketed by form and hom(d1, d2) is empty across buckets.  In a
      bucket with representative r, let phi_d be the transport of d to
      the form and psi_d: r -> d the extension of phi_d^-1 . phi_r; then
      hom(d1, d2) = {psi_d2 . a . psi_d1^-1 : a in Aut(r)}, with Aut(r)
      found once per bucket by natural_families.  psi_r is the identity,
      so hom(r, r) is Aut(r) itself.
    - Order lemma: hom sorts each hom, Aut(r) included, by the position of
      each Lambda component in base.isos, cells in fill order.  A morphism
      is fixed by its Lambda components, so the order is total and no hom
      list depends on which member is r or on the order in which
      natural_families finds Aut(r).

    The key is a cheap invariant, the class representatives of the Lambda
    objects in fill order.  A diagram gets its form when a row of its key
    group first needs it; r is the first diagram canonicalised with a form.

    The returned groupoid carries a .diagrams dict from object keys to
    SpanDiagram values.
    """
    arities = tuple(arities)
    shape = sigma_shape(arities)
    ceiling = enumeration_ceiling()
    count, data = count_lambda_data(shape, base, bound, ceiling + 1)
    if count > ceiling:
        raise ResourceError(f"level enumeration for arities {arities} exceeds the ceiling {ceiling}")
    diagrams = {}
    for lo, lm in data:
        d = kan_extend(shape, base, lo, lm)
        diagrams[d.key] = d
    keys = sorted(diagrams)
    listed = [diagrams[k] for k in keys]
    at = positions(keys)
    cells = shape.objects
    lam = _cells_by_length(shape, shape.lambda_cells)
    lam_at = [cells.index(c) for c in lam]
    reps = _iso_class_reps(base, base.objects_within(bound))
    firsts = {}  # canonical form -> position of r, its bucket's representative
    canon = [None] * len(listed)  # (position of r, phi_d), once canonicalised
    psis = [None] * len(listed)  # (psi_d, psi_d^-1)
    auts = {}  # position of r -> Aut(r)
    ranks = {}  # (x, y) -> position of each iso in base.isos(x, y)

    def canonical(i):
        if canon[i] is None:
            form, phi = _canonical_form(base, shape, reps, listed[i])
            canon[i] = firsts.setdefault(form, i), phi
        return canon[i]

    def psi(i):
        if psis[i] is None:
            r, phi = canonical(i)
            fam = {c: base.compose(base.inverse(phi[c]), canon[r][1][c]) for c in lam}
            full = _extend(listed[r], listed[i], fam)
            psis[i] = full, tuple(map(base.inverse, full))
        return psis[i]

    def aut(r):
        if r not in auts:
            d = listed[r]
            auts[r] = [_extend(d, d, fam) for fam in natural_families(base, shape, d, d)]
        return auts[r]

    def rank(x, y):
        if (x, y) not in ranks:
            ranks[(x, y)] = {g: n for n, g in enumerate(base.isos(x, y))}
        return ranks[(x, y)]

    def hom(k1, k2):
        # called only inside a group of the cheap key, which buckets split
        i, j = at(k1), at(k2)
        r = canonical(i)[0]
        if canonical(j)[0] != r:
            return []
        if i == j == r:  # psi_r is the identity
            homs = list(aut(r))
        else:
            (_, inv1), (psi2, _) = psi(i), psi(j)
            homs = [tuple(map(base.compose, psi2, map(base.compose, a, inv1))) for a in aut(r)]
        if len(homs) > 1:  # most homs hold one morphism, and need no ranks
            d1, d2 = listed[i], listed[j]
            orders = [(rank(d1.obj[c], d2.obj[c]), n) for c, n in zip(lam, lam_at)]
            homs.sort(key=lambda m: tuple(order[m[n]] for order, n in orders))
        return [tuple(zip(cells, m)) for m in homs]

    # a component is a family sorted by cell, so families zip cell by cell
    gpd = FinGroupoid(
        keys,
        hom,
        lambda g, f: tuple((c, base.compose(gc, fc)) for (c, gc), (_, fc) in zip(g, f)),
        lambda m: tuple((c, base.inverse(mc)) for c, mc in m),
        lambda k: tuple((c, base.identity(x)) for c, x in sorted(listed[at(k)].obj.items())),
        key=lambda k: tuple(reps[listed[at(k)].obj[c]] for c in lam),
    )
    gpd.diagrams = diagrams
    return gpd


def underlying_2fold_level(base, pq, bound=None) -> FinGroupoid:
    """The sub-groupoid of the (p,q) level on diagrams whose second-direction
    spans over first-direction vertices are degenerate (identity legs)."""
    from .groupoid import full_subgroupoid

    p, q = pq
    level = span_level(base, (p, q), bound)
    shape = sigma_shape((p, q))

    def degenerate(key):
        d = level.diagrams[key]
        for i in range(p + 1):
            for j in range(1, q + 1):
                apex = ((i, i), (j - 1, j))
                for v in (((i, i), (j - 1, j - 1)), ((i, i), (j, j))):
                    if d.obj[apex] != d.obj[v] or d.mor[(apex, v)] != base.identity(d.obj[apex]):
                        return False
        return True

    sub = full_subgroupoid(level, degenerate)
    sub.diagrams = {k: level.diagrams[k] for k in sub.objects}
    return sub


# ---------------------------------------------------------------------------
# the Segal condition


def _edge_piece(d: SpanDiagram, r: int, i: int) -> SpanDiagram:
    """Restrict to the i-th edge in direction r (arity collapsed to 1)."""
    small, phis = d.shape.edge(r, i)
    return restrict_along(small, phis, d)


def _check_one_datum(shape, base, lo, lm, dirs):
    """The per-datum Segal battery: the extension is Cartesian, its edge
    restrictions are Cartesian, and every natural family on the free data
    extends uniquely to the full diagram (_check_families).

    Nothing is built or extended that cannot fail.  An edge piece whose
    shape has no filled cell (every piece in one direction) is Cartesian
    with an empty certificate, so it is not built."""
    limits = {}
    ext = kan_extend(shape, base, lo, lm, limits)
    v = is_cartesian(ext, limits)
    if not v:
        return v, ext
    for r in dirs:
        small = shape.edge(r, 1)[0]
        if len(small.lambda_cells) == len(small.objects):
            continue
        for i in range(1, shape.arities[r] + 1):
            piece = _edge_piece(ext, r, i)
            vp = is_cartesian(piece)
            if not vp:
                return (
                    Verdict.refuted(
                        witness={"direction": r, "edge": i, "inner": vp.witness}
                    ),
                    ext,
                )
    return _check_families(base, shape, ext), ext


def _check_families(base, shape, ext) -> Verdict:
    """Does every natural automorphism family of ext's free data extend to
    ext?  ext is Cartesian, so the families that extend form a subgroup
    (generator lemma, natural_family_generators), and only the generators
    of a stabilizer chain are extended; never the identity family, which
    is in every subgroup.  The refutation names the first generator, in
    chain order, that fails to extend.  On a Kan extension of free data
    every family extends (the extension lemma of span_level), so only a
    hand-built diagram is refuted here."""
    for fam in natural_family_generators(base, shape, ext)[0]:
        if extend_natural_family(ext, ext, fam) is None:
            return Verdict.refuted(
                witness={"reason": "free-data automorphism fails to extend", "family": fam}
            )
    return Verdict.verified()


def _check_twist(shape, base, ext, dirs, rng):
    """Twist battery: a random natural automorphism family on the free cells
    of a random edge piece extends to the piece, which is a functor.  No
    transport is checked: extend_natural_family returns only families natural
    on every arrow m: a -> b, and for automorphisms that says fam[b] . m .
    fam[a]^-1 = m, so twisting the piece by the family gives back the piece.

    The family meets the precondition of extend_natural_family, natural
    on the Lambda cells: each component random_natural_family draws is an
    automorphism of its cell's object, chosen natural with the cells drawn
    before it, and fill order lists every cell after the cells above it,
    so every arrow among the Lambda cells has been tested; its fallback,
    the identity family, is natural on every arrow.  So a piece whose
    shape has no filled cell is not extended: there extend_natural_family
    would fill nothing and return fam.  The family is still drawn, so the
    rng sequence stays the same."""
    r = rng.choice(dirs)
    i = rng.randrange(1, shape.arities[r] + 1)
    piece = _edge_piece(ext, r, i)
    small = piece.shape
    fam = random_natural_family(base, small, piece, rng)
    if len(small.lambda_cells) != len(small.objects) and extend_natural_family(piece, piece, fam) is None:
        return Verdict.refuted(witness={"reason": "twist family fails to extend"})
    return piece.validate()


def segal_check(base, arities, bound=None, seed=0, samples=24) -> Verdict:
    """Decide the Segal comparison for the given arities at the given bound.

    Exhaustive over all free data when the enumeration fits under the
    ceiling; otherwise a seeded sampled battery (reported as such in the
    details, still returning verified only when every sample passes).  The
    count that decides the mode, capped, and the data an exhaustive run
    checks come from count_lambda_data: a count from _known_lambda_count (a
    closed form in one direction, or a lower bound from an initial object
    that already reaches the cap) with a fresh enumeration, or else the
    data listed up to the cap.  That list holds up to SPANLAB_MAX_CELLS /
    |cells| + 1 packed data, so where no count is known peak memory grows
    with the ceiling, also in a run that turns out sampled and drops the
    list.

    An exhaustive run checks its data in shares (fanout.first_failure),
    one process per CPU, each datum in one of them; the twists are checked
    here in index order, on a rebuilt extension where another process
    checked the datum, and the first failure in index order is reported,
    so the verdict, witness and details are those of the in-order run.  A
    sampled run draws its data from the twists' rng, between twist draws,
    so it runs in order in this process."""
    arities = tuple(arities)
    shape = sigma_shape(arities)
    dirs = [r for r, n in enumerate(arities) if n >= 2]
    if not dirs:
        return Verdict.verified(note="comparison map is an identity at arities <= 1")
    ceiling = enumeration_ceiling()
    # Exhaustiveness is gated on total work (free data x cells to fill),
    # not the raw datum count, so large shapes degrade to sampling too.
    per_datum = len(shape.objects)
    max_data = ceiling // per_datum + 1
    count, data = count_lambda_data(shape, base, bound, max_data)
    exhaustive = count * per_datum <= ceiling
    rng = random.Random(seed)
    if not exhaustive:  # a sampled run checks none of the counted data
        count = samples
        data = (sample_lambda_data(shape, base, bound, rng) for _ in range(samples))
    twist_at = set(rng.sample(range(count), min(samples, count)))
    mode = "exhaustive" if exhaustive else "sampled"
    exts = {}

    def check(idx, datum):
        v, ext = _check_one_datum(shape, base, *datum, dirs)
        if idx in twist_at:
            exts[idx] = ext
        return v or Verdict.refuted(witness=v.witness, mode=mode)

    def visit(idx, datum):
        if idx not in twist_at:
            return True
        ext = exts.pop(idx) if idx in exts else kan_extend(shape, base, *datum)
        vt = _check_twist(shape, base, ext, dirs, rng)
        return vt or Verdict.refuted(witness=vt.witness, mode="twist")

    # imported here: compiling fanout on import of spanlab would add to
    # the start-up and peak memory of every process, Segal checks or not
    from .fanout import first_failure, share_count

    shares = share_count(count) if exhaustive else 1
    failure = first_failure(data, check, visit, shares, lambda: count_lambda_data(shape, base, bound, max_data)[1])
    if failure is not None:
        return failure
    # the bound enumerated: a table base lists all its objects whatever the
    # bound, and finset:N lists none above N
    size = getattr(base, "max_size", None)
    details = dict(
        mode=mode,
        data_checked=count,
        seed=seed,
        bound=size if size is None or bound is None else min(bound, size),
    )
    if not count:
        return Verdict.inconclusive(witness={"reason": "no free data were checked"}, **details)
    return Verdict.verified(**details)


# ---------------------------------------------------------------------------
# invertibility and completeness


def both_legs_iso(base, s: Span) -> bool:
    return base.is_iso(s.lleg) and base.is_iso(s.rleg)


def invertible_span_check(base, bound=None) -> Verdict:
    """Exhaustive agreement between the inverse-search notion of
    invertibility and the both-legs-invertible predicate.  The inverse
    searches share one rows dict (inverse.inverse_candidates), so each
    key's pullbacks are taken once per check."""
    from .inverse import has_inverse

    checked, rows = 0, {}
    for s in all_spans(base, bound):
        pred = both_legs_iso(base, s)
        found = has_inverse(base, s, bound, rows)
        if found != pred:
            return Verdict.refuted(
                witness={
                    "span": repr(s),
                    "both_legs_iso": pred,
                    "inverse_found": found,
                }
            )
        checked += 1
    if not checked:
        return Verdict.inconclusive(witness={"reason": "no spans were checked"}, spans_checked=0)
    return Verdict.verified(spans_checked=checked)


def invertible_span_groupoid(base, bound=None) -> FinGroupoid:
    """Invertible spans (both legs invertible) within bound and the natural
    triples (left, apex, right) between them."""

    def cellwise(op):
        return lambda *cells: tuple(map(op, *cells))

    def hom(s: Span, t: Span):
        # a natural triple between invertible spans is determined by its
        # left component
        out = []
        for gl in base.isos(s.left, t.left):
            h = base.compose(base.inverse(t.lleg), base.compose(gl, s.lleg))
            gr = base.compose(t.rleg, base.compose(h, base.inverse(s.rleg)))
            out.append((gl, h, gr))
        return out

    return FinGroupoid(
        [s for s in all_spans(base, bound) if both_legs_iso(base, s)],
        hom,
        cellwise(base.compose),
        cellwise(base.inverse),
        lambda s: (base.identity(s.left), base.identity(s.apex), base.identity(s.right)),
    )


def completeness_check(base, bound=None) -> Verdict:
    """Compare the groupoid of objects with the groupoid of invertible spans
    via the degeneracy (object to identity span)."""
    from .fincat import core

    obj_gpd = core(base, bound)
    if not obj_gpd.objects:
        return Verdict.inconclusive(witness={"reason": "no objects within the bound"}, objects=0)
    eq = invertible_span_groupoid(base, bound)

    def on_mor(m):
        x, y, g = m
        return identity_span(base, x), identity_span(base, y), (g, g, g)

    v = equivalent(Functor(obj_gpd, eq, lambda x: identity_span(base, x), on_mor))
    if v:
        return Verdict.verified(
            witness=None, objects=len(obj_gpd.objects), invertible_spans=len(eq.objects)
        )
    return Verdict.refuted(witness=v.witness)


# ---------------------------------------------------------------------------
# mapping categories


def mapping_fiber(base, X, Y, bound=None, arities=()):
    """Homotopy fiber over the pair (X, Y) of the objects level, computed
    as an iso-comma over the point: of the one-span level, or for arities
    (k,) of the underlying (1, k) level, whose feet are the first-direction
    vertices."""
    from .fincat import core
    from .groupoid import discrete_groupoid, iso_comma, product_groupoid

    if len(arities) > 1:
        raise SpanlabError("mapping fibers are shipped for at most one arity")
    if arities:
        level = underlying_2fold_level(base, (1, *arities), bound)
        left, right = ((0, 0), (0, 0)), ((1, 1), (0, 0))
    else:
        level = span_level(base, (1,), bound)
        left, right = ((0, 0),), ((1, 1),)
    L0 = core(base, bound)
    L00 = product_groupoid(L0, L0)

    def feet_obj(k):
        d = level.diagrams[k]
        return d.obj[left], d.obj[right]

    def feet_mor(m):
        (l1, r1), (l2, r2) = feet_obj(m[0]), feet_obj(m[1])
        fam = dict(m[2])
        return (l1, r1), (l2, r2), ((l1, l2, fam[left]), (r1, r2, fam[right]))

    feet = Functor(level, L00, feet_obj, feet_mor)
    pt = discrete_groupoid(["*"])
    pick = Functor(pt, L00, lambda x: (X, Y), lambda m: L00.identity((X, Y)))
    fiber, _, _ = iso_comma(pick, feet)
    return fiber


def mapping_category_check(base, X, Y, arities=(), bound=None) -> Verdict:
    """Compare the homotopy fiber of spans with feet (X, Y) against the span
    construction over the slice by the product X x Y."""
    from .fincat import core, slice_over_pair
    from .groupoid import groupoids_equivalent

    arities = tuple(arities)
    within = base.objects_within(bound)
    if X not in within or Y not in within:
        # the level holds no span with these feet, so the fiber is empty
        return Verdict.inconclusive(witness={"reason": f"feet ({X}, {Y}) exceed the bound"})
    fiber = mapping_fiber(base, X, Y, bound, arities)
    sl = slice_over_pair(base, X, Y)
    other = span_level(sl, arities, bound) if arities else core(sl, bound)
    v = groupoids_equivalent(fiber, other)
    if v:
        return Verdict.verified(
            witness=v.witness,
            fiber_objects=len(fiber.objects),
            slice_side_objects=len(other.objects),
        )
    return Verdict.refuted(witness=v.witness)
