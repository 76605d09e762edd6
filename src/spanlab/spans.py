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
from collections import Counter

from .fincat import FinSetCategory, Functor
from .groupoid import FinGroupoid, ListedMap, equivalent
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
    (a, b) with a <= b to base morphisms.  Equal and hashed as its key.
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
        use; obj and mor never change to unequal dicts after construction.

        A diagram on every cell and comparable pair of its shape, as Kan
        extension and restriction build, has its values read off in the
        shape's key_order, which is the sorted one, with no sort; free
        Lambda data and partial dicts are sorted.  The (cell, value) pairs
        stay: level --json writes the key, and components sort by its
        repr."""
        if self._key is None:
            (cells, pairs), obj, mor = self.shape.key_order, self.obj, self.mor
            try:
                if len(obj) != len(cells) or len(mor) != len(pairs):
                    raise KeyError
                items = tuple(zip(cells, map(obj.__getitem__, cells))), tuple(zip(pairs, map(mor.__getitem__, pairs)))
            except KeyError:  # not on every cell and pair
                items = tuple(sorted(obj.items())), tuple(sorted(mor.items()))
            self._key = (self.shape.arities, *items)
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
        return self.shape.key_order[1]

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


def _cell_diagram(shape: SigmaShape, c, obj, mor):
    """The diagram whose limit presents cell c: the Lambda cells strictly
    above c, as node objects and arrows (a, b, morphism) read off (obj,
    mor)."""
    node_obj = {b: obj[b] for b in shape.lambda_up[c]}
    arrows = [(a, b, mor[(a, b)]) for a, b in shape.lambda_up_arrows[c]]
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
    which parametrizes exactly the compatible families.  A cell's limit is
    taken once, as soon as the last cell of its up-set is assigned
    (shape.lambda_due), and every branch below shares it: the objects and
    morphisms of the up-set stay as they are until the search backtracks
    past that depth, so the data and their order are those of taking it
    again at the cell.  Where there is no limit, the cell's diagram is kept
    for base.cones instead.
    """
    yield from _lambda_extensions(shape, base, base.objects_within(bound), 0, {}, {}, {})


def _lambda_extensions(shape, base, objects, i, obj, mor, limits):
    """The functors that extend (obj, mor), given on the first i steps of
    shape.lambda_due, over the rest.  limits holds (True, L, legs) or, with
    no limit, (False, node_obj, arrows) for each cell whose up-set is
    assigned; those due at step i - 1 are taken on entry.  Not a closure
    that calls itself: that is a reference cycle."""
    for e in shape.lambda_due[i - 1][1] if i else ():
        node_obj, arrows = _cell_diagram(shape, e, obj, mor)
        try:
            limits[e] = True, *base.limit_of_diagram(node_obj, arrows)
        except NoLimitError:
            limits[e] = False, node_obj, arrows
    if i == len(shape.lambda_due):
        yield dict(obj), dict(mor)
        return
    c = shape.lambda_due[i][0]
    ups = shape.lambda_up[c]
    limit, x, y = limits.get(c, (None, None, None))
    keys, compose = [(c, b) for b in ups], base.compose
    for A in objects:
        obj[c] = A
        if not ups:
            yield from _lambda_extensions(shape, base, objects, i + 1, obj, mor, limits)
        elif limit:
            for h in base.hom(A, x):
                for key, b in zip(keys, ups):
                    mor[key] = compose(y[b], h)
                yield from _lambda_extensions(shape, base, objects, i + 1, obj, mor, limits)
        else:
            for legs in base.cones(A, ups, x, y):
                for key, b in zip(keys, ups):
                    mor[key] = legs[b]
                yield from _lambda_extensions(shape, base, objects, i + 1, obj, mor, limits)
    obj.pop(c, None)  # never set when no object is within the bound
    for key in keys:
        mor.pop(key, None)


def count_lambda_data(shape: SigmaShape, base, bound, cap: int) -> int:
    """min(cap, the number of free data enumerate_lambda_data yields),
    with no datum of this shape enumerated.

    - Lifted form: the Lambda sub-poset of arities (p, q...) is Lambda^(p)
      x Lambda^(q...), so a datum is a zigzag V_0 <- E_1 -> V_1 ... V_p of
      lower data, Lambda^(q...) data within the bound, and natural
      transformations.  With p the largest arity and H[E][V] = |Nat(E, V)|
      over the lower data, the count is 1^T (H^T H)^p 1.  With no other
      direction the lower data are objects and Nat is hom, x ** A on finite
      sets; otherwise the family search counts Nat with base.hom.
    - Cap exits: the constant zigzags are M data, one per lower datum, so
      M >= cap gives the cap.  For p >= 1 the count is at least its value
      at p = 1, sum_E (sum_V H[E][V]) ** 2 (extend by constant steps), and
      so at least the square of a partial sum of one row.  So row 0 of H
      is summed while the lower data are listed, the rest of H is filled
      row by row after them, and the cap is returned once either partial
      sum reaches it.  Where the first lower datum is initial, as the
      empty set is on finite sets, row 0 is all ones and reaches the cap
      after about its square root of lower data."""
    rest = list(shape.arities)
    p = rest.pop(rest.index(max(rest)))
    if rest:
        small = sigma_shape(rest)
        listed = (SpanDiagram(small, base, *datum) for datum in enumerate_lambda_data(small, base, bound))
        order = small.lambda_search_order
        nat = lambda E, V: sum(1 for _ in _natural_extensions(base, small, order, E, V, 0, {}, base.hom))
    else:
        listed = base.objects_within(bound)
        nat = (lambda A, x: x**A) if isinstance(base, FinSetCategory) else (lambda A, x: len(base.hom(A, x)))
    lower, row, first = [], [], 0  # row 0 of H and its sum so far
    for V in itertools.islice(listed, cap):
        lower.append(V)
        if p:
            row.append(nat(lower[0], V))
            first += row[-1]
            if first**2 >= cap:
                return cap
    if len(lower) >= cap or not p:
        return min(cap, len(lower))
    H, partial = [row], first**2
    for E in lower[1:]:
        H.append([nat(E, V) for V in lower])
        partial += sum(H[-1]) ** 2
        if partial >= cap:
            return cap
    columns = list(zip(*H))
    row = [1] * len(lower)
    for _ in range(p):
        through = [sum(map(operator.mul, row, h)) for h in H]
        row = [sum(map(operator.mul, through, col)) for col in columns]
    return min(cap, sum(row))


def sample_lambda_data(shape: SigmaShape, base, bound, rng: random.Random):
    """One random functor on the Lambda sub-poset, seeded."""
    objects = base.objects_within(bound)
    obj, mor = {}, {}
    for c in shape.lambda_fill_order:
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

    Morphisms between filled cells are the unique cone factorizations.  A
    filled cell c is factored only through the filled cells that cover it;
    a filled b further up gets mor[(via, b)] . mor[(c, via)], via a filled
    cover of c below b (shape.filled_up, by the cover lemma there).  Both
    have c's legs as their legs into b's Lambda up-set, and factorization
    through b's limit is unique, so they are the same morphism on every
    base.  Raises NoLimitError naming the first unfillable cell.  When
    limits is a dict, it receives each filled cell's presentation
    (node_obj, arrows, L, legs), for is_cartesian; the diagram itself keeps
    none of them.
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
        for b, via in shape.filled_up[c]:
            if via is None:
                node_b, _, _, legs_b = limits[b]
                cone = {lb: mor[(c, lb)] for lb in node_b}
                mor[(c, b)] = base.factor_through_limit(obj[b], legs_b, obj[c], cone, node_b)
            else:
                mor[(c, b)] = base.compose(mor[(via, b)], mor[(c, via)])
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
    yield from _natural_extensions(base, shape, shape.lambda_search_order, d1, d2, 0, {}, base.isos)


def _natural_extensions(base, shape, order, d1, d2, i, fam, homs):
    """The natural families that extend fam, given on order[:i], over the
    rest of order, each component drawn from homs(d1.obj[c], d2.obj[c]):
    base.isos for natural isomorphisms, base.hom for natural
    transformations.  A module function rather than a closure that calls
    itself: such a closure is a reference cycle, which keeps every
    family and diagram it saw alive until the cyclic collector runs."""
    if i == len(order):
        yield dict(fam)
        return
    c = order[i]
    for g in homs(d1.obj[c], d2.obj[c]):
        if natural_with(base, shape, d1, d2, fam, c, g):
            fam[c] = g
            yield from _natural_extensions(base, shape, order, d1, d2, i + 1, fam, homs)
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
    for _ in range(12):
        fam = {}
        for c in shape.lambda_fill_order:
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
    for c in shape.lambda_fill_order:
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
                search = _natural_extensions(base, shape, order, d, d, i + 1, {**fixed, c: g}, base.isos)
                first = next(search, None)
                if first is not None:
                    generators.append(first)
                    orbit += 1
        fixed[c] = ident
        size *= orbit
    return generators, size


def _rigid(base, d: SpanDiagram) -> bool:
    """Has every Lambda object of d exactly one automorphism?"""
    return all(len(base.isos(d.obj[c], d.obj[c])) == 1 for c in d.shape.lambda_cells)


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
      so hom(r, r) is Aut(r) itself.  Where every Lambda object of r has
      one automorphism (_rigid), as on a poset, the identity family is the
      only natural one and extends to the identity, so Aut(r) is the
      identity alone, with no search.
    - Order lemma: hom sorts each hom, Aut(r) included, by the position of
      each Lambda component in base.isos, cells in fill order.  A morphism
      is fixed by its Lambda components, so the order is total and no hom
      list depends on which member is r or on the order in which
      natural_families finds Aut(r).

    A level over SPANLAB_MAX_CELLS data is refused before any datum of
    its shape is enumerated (count_lambda_data); the data are then
    enumerated once.  Each Kan extension is listed, its mor rebuilt on the
    shape's own arrow tuples with equal morphisms shared, and the list is
    sorted by key once: distinct free data extend to distinct diagrams, so
    no key repeats and none is hashed.

    The key is a cheap invariant, the class representatives of the Lambda
    objects in fill order.  A diagram gets its form when a row of its key
    group first needs it; r is the first diagram canonicalised with a form.
    A diagram alone in its key group is its own r and takes no form:
    buckets refine key groups, so its hom(d, d) is Aut(d) and no other
    bucket's r changes.  On a poset every diagram is alone.

    The returned groupoid's objects are the diagrams' keys, and its
    .diagrams (a ListedMap) maps each key to its diagram.
    """
    arities = tuple(arities)
    shape = sigma_shape(arities)
    ceiling = enumeration_ceiling()
    if count_lambda_data(shape, base, bound, ceiling + 1) > ceiling:
        raise ResourceError(f"level enumeration for arities {arities} exceeds the ceiling {ceiling}")
    cells, pairs = shape.key_order
    listed, shared = [], {}  # shared: one object per equal morphism
    for lo, lm in enumerate_lambda_data(shape, base, bound):
        d = kan_extend(shape, base, lo, lm)
        # an equal dict on the shape's arrow tuples, before the key is taken
        d.mor = dict(zip(pairs, [shared.setdefault(m, m) for m in map(d.mor.__getitem__, pairs)]))
        listed.append(d)
    listed.sort(key=operator.attrgetter("key"))
    keys = [d.key for d in listed]
    diagrams = ListedMap(keys, listed)
    at = diagrams.position
    lam = shape.lambda_fill_order
    lam_at = [cells.index(c) for c in lam]
    reps = _iso_class_reps(base, base.objects_within(bound))
    cheap = [tuple(reps[d.obj[c]] for c in lam) for d in listed]  # the cheap key of each
    group_sizes = Counter(cheap)
    firsts = {}  # canonical form -> position of r, its bucket's representative
    # (position of r, phi_d), once canonicalised; a diagram alone in its key
    # group is its own bucket's r, with no form taken
    canon = [(i, None) if group_sizes[k] == 1 else None for i, k in enumerate(cheap)]
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
            if _rigid(base, d):
                auts[r] = [tuple(base.identity(d.obj[c]) for c in cells)]
            else:
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
        lambda k: tuple((c, base.identity(x)) for c, x in k[1]),  # k[1]: the obj items by cell
        key=lambda k: cheap[at(k)],
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
    sub.diagrams = ListedMap(sub.objects, [level.diagrams[k] for k in sub.objects])
    return sub


# ---------------------------------------------------------------------------
# the Segal condition


def segal_check(base, arities, bound=None, seed=0, samples=24) -> Verdict:
    """Decide the Segal comparison for the given arities at the given bound.

    Exhaustive over all free data when the enumeration fits under the
    ceiling; otherwise a seeded sampled battery (reported as such in the
    details, still returning verified only when every sample passes).  The
    count that decides the mode is count_lambda_data's, capped one datum
    past the ceiling: the lifted form 1^T (H^T H)^p 1 with its cap exits,
    so no datum of this shape is enumerated to decide.

    Both modes check a stream of (datum, twist) items with one check, in
    shares (fanout.first_failure), one process per CPU, each item in one
    of them; each process iterates a fresh stream and holds one datum at
    a time.  The first failure in index order is reported, so the verdict,
    witness and details are those of the in-order run.  twist_at, the
    indices that get a twist, is the first draw of Random(seed).

    - Exhaustive: the data of enumerate_lambda_data, with no twist drawn.
      The check draws the twist of a datum at an index in twist_at from
      its own Random(f"{seed}/{index}"), whose string seed no CPU count or
      hash seed changes; drawn in the stream, every share would draw them
      all.
    - Sampled: each stream() draws, from a fresh Random(seed), twist_at,
      which holds every index, and then for each index the datum and its
      twist, on the free datum (the draw lemma of segal.draw_twist), so
      every process draws the run's one sequence.  A draw that raises ends the
      stream with an item whose check raises it: it is reported only when
      no earlier item fails, as the in-order run never draws past a
      failure.

    The check then runs the datum's battery and the twist battery on the
    extension the battery has just built.  A datum weighs its cells
    against the 6 of arity (2,), the lightest shape checked, in the share
    count, so a few large sampled data fork too."""
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
    count = count_lambda_data(shape, base, bound, max_data)
    exhaustive = count * per_datum <= ceiling
    if not exhaustive:  # checks none of the counted data
        count = samples
    # imported here: compiling them on import of spanlab would add to the
    # start-up and peak memory of every process, Segal checks or not
    from . import segal
    from .fanout import block_size, first_failure, share_count

    twist_at = set(random.Random(seed).sample(range(count), min(samples, count)))
    mode = "exhaustive" if exhaustive else "sampled"

    def stream():
        if exhaustive:
            yield from zip(enumerate_lambda_data(shape, base, bound), itertools.repeat(None))
            return
        rng = random.Random(seed)
        rng.sample(range(count), count)  # twist_at
        for _ in range(count):
            try:
                datum = sample_lambda_data(shape, base, bound, rng)
                twist = segal.draw_twist(shape, base, *datum, dirs, rng)
            except Exception as exc:  # raised by the check at this index
                yield exc, None
                return
            yield datum, twist

    def check(idx, item):
        datum, twist = item
        if isinstance(datum, Exception):
            raise datum
        v, ext = segal.check_one_datum(shape, base, *datum, dirs)
        if not v:
            return Verdict.refuted(witness=v.witness, mode=mode)
        if idx not in twist_at:
            return v
        twist = twist or segal.draw_twist(shape, base, *datum, dirs, random.Random(f"{seed}/{idx}"))
        vt = segal.check_twist(ext, *twist)
        return vt or Verdict.refuted(witness=vt.witness, mode="twist")

    shares = share_count(count * per_datum // 6)
    failure = first_failure(stream, check, shares, block_size(count, shares))
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
    invertibility and the both-legs-invertible predicate.  The spans are
    checked in shares (fanout.first_failure), one process per CPU, and the
    first failure in all_spans order is reported.  The inverse searches of
    one process share one rows dict (inverse.inverse_candidates), so each
    key's pullbacks are taken once per share."""
    from .fanout import first_failure, share_count
    from .inverse import has_inverse

    items, rows = all_spans(base, bound), {}

    def check(i, s):
        pred = both_legs_iso(base, s)
        found = has_inverse(base, s, bound, rows)
        return found == pred or Verdict.refuted(
            witness={"span": repr(s), "both_legs_iso": pred, "inverse_found": found}
        )

    failure = first_failure(lambda: items, check, shares=share_count(len(items)))
    if failure is not None:
        return failure
    if not items:
        return Verdict.inconclusive(witness={"reason": "no spans were checked"}, spans_checked=0)
    return Verdict.verified(spans_checked=len(items))


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
