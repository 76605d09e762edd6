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
import os
import random

from .fincat import Functor
from .groupoid import FinGroupoid, equivalent, positions
from .shapes import SigmaShape, sigma_shape
from .verdict import FootMismatchError, NoLimitError, ResourceError, SpanlabError, Verdict

DEFAULT_CEILING = 50000


def enumeration_ceiling() -> int:
    return int(os.environ.get("SPANLAB_MAX_CELLS", DEFAULT_CEILING))


# ---------------------------------------------------------------------------
# diagrams


class SpanDiagram:
    """A functor from a SigmaShape into the base.

    obj maps cells to base objects; mor maps strictly comparable cell pairs
    (a, b) with a <= b to base morphisms.  Hashable on its data so level
    groupoids can deduplicate on the nose.
    """

    __slots__ = ("shape", "base", "obj", "mor", "key")

    def __init__(self, shape: SigmaShape, base, obj: dict, mor: dict):
        self.shape = shape
        self.base = base
        self.obj = dict(obj)
        self.mor = dict(mor)
        self.key = (
            shape.arities,
            tuple(sorted(self.obj.items())),
            tuple(sorted(self.mor.items())),
        )

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
        order = self.shape.order
        for a, b in self.comparable_pairs():
            for c in self.shape.objects:
                if c != b and c != a and (b, c) in order:
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
    """The canonical limit presentation of cell c, as (node_obj, apex,
    legs).  Raises NoLimitError."""
    node_obj, arrows = _cell_diagram(shape, c, obj, mor)
    L, legs = base.limit_of_diagram(node_obj, arrows)
    return node_obj, L, legs


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
    objects = base.objects_within(bound)

    def rec(i, obj, mor):
        if i == len(order):
            yield dict(obj), dict(mor)
            return
        c = order[i]
        ups = shape.lambda_up[c]
        if not ups:
            for A in objects:
                obj[c] = A
                yield from rec(i + 1, obj, mor)
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
                    yield from rec(i + 1, obj, mor)
        except NoLimitError:
            for A in objects:
                obj[c] = A
                for legs_c in base.cones(A, ups, node_obj, arrows):
                    for b in ups:
                        mor[(c, b)] = legs_c[b]
                    yield from rec(i + 1, obj, mor)
        del obj[c]
        for b in ups:
            mor.pop((c, b), None)

    yield from rec(0, {}, {})


def sample_lambda_data(shape: SigmaShape, base, bound, rng: random.Random):
    """One random functor on the Lambda sub-poset, seeded."""
    objects = base.objects_within(bound)
    obj, mor = {}, {}
    for c in _cells_by_length(shape, shape.lambda_cells):
        ups = shape.lambda_up[c]
        if not ups:
            obj[c] = rng.choice(objects)
            continue
        _, L, legs = _cell_limit(shape, base, c, obj, mor)
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


def kan_extend(shape: SigmaShape, base, lam_obj: dict, lam_mor: dict) -> SpanDiagram:
    """Extend free Lambda data to the full shape, filling each remaining
    cell with the canonical limit of the Lambda part of its up-set.

    Morphisms between filled cells are the unique cone factorizations.
    Raises NoLimitError naming the first unfillable cell.
    """
    lam = shape.lambda_set
    obj = dict(lam_obj)
    mor = dict(lam_mor)
    meta = {}  # big cell -> (node_obj, legs) of its limit presentation
    for c in shape.fill_order:
        if c in lam:
            continue
        try:
            node_obj, L, legs = _cell_limit(shape, base, c, obj, lam_mor)
        except NoLimitError as exc:
            raise NoLimitError(f"cell {c} has no limit: {exc}") from exc
        obj[c] = L
        for b in node_obj:
            mor[(c, b)] = legs[b]
        meta[c] = (node_obj, legs)
        # factor through the earlier-filled big cells above c
        for b in shape.strict_up[c]:
            if b in lam:
                continue
            node_b, legs_b = meta[b]
            cone = {lb: mor[(c, lb)] for lb in node_b}
            mor[(c, b)] = base.factor_through_limit(obj[b], legs_b, obj[c], cone, node_b)
    return SpanDiagram(shape, base, obj, mor)


def is_cartesian(d: SpanDiagram) -> Verdict:
    """Independently re-verify that every cell with an interval of length
    >= 2 is a limit of its Lambda up-set: the comparison map into the
    canonical limit must be an isomorphism."""
    shape, base = d.shape, d.base
    lam = shape.lambda_set
    certificate = {}
    for c in shape.objects:
        if c in lam:
            continue
        try:
            node_obj, L, legs = _cell_limit(shape, base, c, d.obj, d.mor)
            cone = {b: d.mor[(c, b)] for b in node_obj}
            h = base.factor_through_limit(L, legs, d.obj[c], cone, node_obj)
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


def natural_families(base, shape, cells, d1: SpanDiagram, d2: SpanDiagram):
    """All families of isomorphisms over the given cells, natural for every
    comparable pair (backtracking, vertices first)."""
    order = _cells_by_length(shape, cells)
    rel = shape.order

    def natural_with(fam, c, g):
        for b in fam:
            if b == c:
                continue
            if (c, b) in rel:
                if base.compose(d2.mor_at(c, b), g) != base.compose(fam[b], d1.mor_at(c, b)):
                    return False
            elif (b, c) in rel:
                if base.compose(g, d1.mor_at(b, c)) != base.compose(d2.mor_at(b, c), fam[b]):
                    return False
        return True

    def rec(i, fam):
        if i == len(order):
            yield dict(fam)
            return
        c = order[i]
        for g in base.isos(d1.obj[c], d2.obj[c]):
            if natural_with(fam, c, g):
                fam[c] = g
                yield from rec(i + 1, fam)
                del fam[c]

    yield from rec(0, {})


def is_natural_family(base, shape, cells, d1, d2, fam) -> bool:
    for c in cells:
        g = fam[c]
        if not base.is_iso(g) or base.src(g) != d1.obj[c] or base.tgt(g) != d2.obj[c]:
            return False
    for a, b in shape.arrows_among(cells):
        if base.compose(d2.mor_at(a, b), fam[a]) != base.compose(fam[b], d1.mor_at(a, b)):
            return False
    return True


def extend_natural_family(d1: SpanDiagram, d2: SpanDiagram, fam: dict):
    """Extend a natural family given on the Lambda cells to the full shape
    by limit comparison; returns the full family, or None when some induced
    component fails to be a natural isomorphism."""
    shape, base = d1.shape, d1.base
    lam = shape.lambda_set
    full = dict(fam)
    for c in shape.fill_order:
        if c in lam:
            continue
        try:
            node_obj, L, legs = _cell_limit(shape, base, c, d2.obj, d2.mor)
            cone2 = {b: d2.mor[(c, b)] for b in node_obj}
            u2 = base.factor_through_limit(L, legs, d2.obj[c], cone2, node_obj)
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


def transport_diagram(d: SpanDiagram, fam: dict) -> SpanDiagram:
    """Conjugate a diagram by a natural family of automorphisms (skeletal
    base: objects stay put, morphisms get twisted)."""
    base = d.base
    mor = {}
    for (a, b), m in d.mor.items():
        mor[(a, b)] = base.compose(fam[b], base.compose(m, base.inverse(fam[a])))
    return SpanDiagram(d.shape, base, d.obj, mor)


def random_natural_family(base, shape, cells, d: SpanDiagram, rng, tries=12):
    """A seeded random natural automorphism family on the given cells; falls
    back to the identity family when sampling keeps dead-ending."""
    order = _cells_by_length(shape, cells)
    for _ in range(tries):
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


def _extend(d1: SpanDiagram, d2: SpanDiagram, fam: dict):
    """The natural isomorphism d1 -> d2 extending a natural Lambda family,
    as its components in cell order.  The identity family extends to the
    identity (see span_level), so it is not extended.  A family that fails
    to extend is an error: between Cartesian diagrams it extends."""
    base = d1.base
    if all(g == base.identity(d1.obj[c]) for c, g in fam.items()):
        return tuple(base.identity(d1.obj[c]) for c in d1.shape.objects)
    full = extend_natural_family(d1, d2, fam)
    if full is None:
        raise SpanlabError("a natural Lambda family between Cartesian diagrams fails to extend")
    return tuple(full[c] for c in d1.shape.objects)


def span_level(base, arities, bound=None, ceiling=None) -> FinGroupoid:
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
      bucket whose first diagram is r, let phi_d be the transport of d to
      the form and psi_d: r -> d the extension of phi_d^-1 . phi_r; then
      hom(d1, d2) = {psi_d2 . a . psi_d1^-1 : a in Aut(r)}, with Aut(r)
      found once per bucket by natural_families.  psi_r is the identity,
      so hom(r, r) is Aut(r) itself.

    Each hom lists its morphisms in the order natural_families finds them:
    by the position of each Lambda component in base.isos, cells in fill
    order.

    The returned groupoid carries a .diagrams dict from object keys to
    SpanDiagram values.
    """
    arities = tuple(arities)
    shape = sigma_shape(arities)
    ceiling = enumeration_ceiling() if ceiling is None else ceiling
    data = list(itertools.islice(enumerate_lambda_data(shape, base, bound), ceiling + 1))
    if len(data) > ceiling:
        raise ResourceError(
            f"level enumeration for arities {arities} exceeds the ceiling {ceiling}"
        )
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

    buckets, bucket, firsts, phis = {}, [], [], []
    for i, d in enumerate(listed):
        form, phi = _canonical_form(base, shape, reps, d)
        b = buckets.setdefault(form, len(buckets))
        if b == len(firsts):
            firsts.append(i)
        bucket.append(b)
        phis.append(phi)
    psis = [None] * len(listed)  # (psi_d, psi_d^-1)
    auts = [None] * len(firsts)
    ranks = {}  # (x, y) -> position of each iso in base.isos(x, y)

    def psi(i):
        if psis[i] is None:
            r = firsts[bucket[i]]
            fam = {c: base.compose(base.inverse(phis[i][c]), phis[r][c]) for c in lam}
            full = _extend(listed[r], listed[i], fam)
            psis[i] = full, tuple(map(base.inverse, full))
        return psis[i]

    def aut(b):
        if auts[b] is None:
            r = listed[firsts[b]]
            auts[b] = [_extend(r, r, fam) for fam in natural_families(base, shape, lam, r, r)]
        return auts[b]

    def rank(x, y):
        if (x, y) not in ranks:
            ranks[(x, y)] = {g: n for n, g in enumerate(base.isos(x, y))}
        return ranks[(x, y)]

    def hom(k1, k2):
        # called only inside a bucket: the groupoid's key is the bucket
        i, j = at(k1), at(k2)
        b = bucket[i]
        if i == j == firsts[b]:  # Aut(r), found in the natural_families order
            return [tuple(zip(cells, a)) for a in aut(b)]
        (_, inv1), (psi2, _) = psi(i), psi(j)
        homs = [tuple(map(base.compose, psi2, map(base.compose, a, inv1))) for a in aut(b)]
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
        key=lambda k: bucket[at(k)],
    )
    gpd.diagrams = diagrams
    return gpd


def underlying_2fold_level(base, pq, bound=None, ceiling=None) -> FinGroupoid:
    """The sub-groupoid of the (p,q) level on diagrams whose second-direction
    spans over first-direction vertices are degenerate (identity legs)."""
    from .groupoid import full_subgroupoid

    p, q = pq
    level = span_level(base, (p, q), bound, ceiling)
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
    extends uniquely to the full diagram."""
    ext = kan_extend(shape, base, lo, lm)
    v = is_cartesian(ext)
    if not v:
        return v, ext
    for r in dirs:
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
    for fam in natural_families(base, shape, shape.lambda_cells, ext, ext):
        full = extend_natural_family(ext, ext, fam)
        if full is None:
            return (
                Verdict.refuted(
                    witness={"reason": "free-data automorphism fails to extend", "family": fam}
                ),
                ext,
            )
    return Verdict.verified(), ext


def _check_twist(shape, base, ext, dirs, rng):
    """Transport battery: twist one edge piece by a random natural
    automorphism, normalize back, and confirm the twisted piece is linked to
    the strict one by a verified natural isomorphism."""
    r = rng.choice(dirs)
    i = rng.randrange(1, shape.arities[r] + 1)
    piece = _edge_piece(ext, r, i)
    small = piece.shape
    fam = random_natural_family(base, small, small.lambda_cells, piece, rng)
    full = extend_natural_family(piece, piece, fam)
    if full is None:
        return Verdict.refuted(witness={"reason": "twist family fails to extend"})
    twisted = transport_diagram(piece, full)
    if not is_natural_family(base, small, small.objects, piece, twisted, full):
        return Verdict.refuted(witness={"reason": "transport is not a natural isomorphism"})
    back = transport_diagram(twisted, {c: base.inverse(full[c]) for c in full})
    if back.key != piece.key:
        return Verdict.refuted(witness={"reason": "transport does not normalize back"})
    return piece.validate()


def segal_check(base, arities, bound=None, seed=0, samples=24, ceiling=None) -> Verdict:
    """Decide the Segal comparison for the given arities at the given bound.

    Exhaustive over all free data when the enumeration fits under the
    ceiling; otherwise a seeded sampled battery (reported as such in the
    details, still returning verified only when every sample passes)."""
    arities = tuple(arities)
    shape = sigma_shape(arities)
    dirs = [r for r, n in enumerate(arities) if n >= 2]
    if not dirs:
        return Verdict.verified(note="comparison map is an identity at arities <= 1")
    ceiling = enumeration_ceiling() if ceiling is None else ceiling
    # Exhaustiveness is gated on total work (free data x cells to fill),
    # not the raw datum count, so large shapes degrade to sampling too.
    per_datum = len(shape.objects)
    max_data = ceiling // per_datum + 1
    count = sum(
        1 for _ in itertools.islice(enumerate_lambda_data(shape, base, bound), max_data)
    )
    exhaustive = count * per_datum <= ceiling
    rng = random.Random(seed)
    if exhaustive:
        batch = enumerate_lambda_data(shape, base, bound)
        total = count
    else:
        batch = (sample_lambda_data(shape, base, bound, rng) for _ in range(samples))
        total = samples
    twist_at = set(rng.sample(range(total), min(samples, total)))
    checked = 0
    for idx, (lo, lm) in enumerate(batch):
        v, ext = _check_one_datum(shape, base, lo, lm, dirs)
        if not v:
            return Verdict.refuted(witness=v.witness, mode="exhaustive" if exhaustive else "sampled")
        if idx in twist_at:
            vt = _check_twist(shape, base, ext, dirs, rng)
            if not vt:
                return Verdict.refuted(witness=vt.witness, mode="twist")
        checked += 1
    # the bound enumerated: a table base lists all its objects whatever the
    # bound, and finset:N lists none above N
    size = getattr(base, "max_size", None)
    details = dict(
        mode="exhaustive" if exhaustive else "sampled",
        data_checked=checked,
        seed=seed,
        bound=size if size is None or bound is None else min(bound, size),
    )
    if not checked:
        return Verdict.inconclusive(witness={"reason": "no free data were checked"}, **details)
    return Verdict.verified(**details)


# ---------------------------------------------------------------------------
# invertibility and completeness


def inverse_candidates(base, s: Span, bound):
    """Every span t = (s.right <-l- B -r-> s.left) with B within bound such
    that s . t and t . s are both isomorphic to identity spans, in (B, l, r)
    order.

    Pruning lemma: s . t is the pullback P, p, q of s.rleg and l, with legs
    s.lleg . p and r . q, so up to its right leg r . q it depends only on
    (B, l).  Hence s . t is isomorphic to an identity span exactly when
    s.lleg . p is invertible and r . q equals it, and one pullback per
    (B, l) serves every r.  The pullback is taken only when hom(B, s.left)
    is nonempty, as a search composing each candidate would take it: a
    table base may raise NoLimitError there."""
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


def _has_inverse(base, s: Span, bound) -> bool:
    return next(inverse_candidates(base, s, bound), None) is not None


def both_legs_iso(base, s: Span) -> bool:
    return base.is_iso(s.lleg) and base.is_iso(s.rleg)


def invertible_span_check(base, bound=None) -> Verdict:
    """Exhaustive agreement between the inverse-search notion of
    invertibility and the both-legs-invertible predicate."""
    checked = 0
    for s in all_spans(base, bound):
        pred = both_legs_iso(base, s)
        if pred:
            t = reverse_span(s)
            found = iso_to_identity_span(base, compose_spans(base, s, t)) and iso_to_identity_span(
                base, compose_spans(base, t, s)
            )
        else:
            found = _has_inverse(base, s, bound)
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


def mapping_fiber(base, X, Y, bound=None, ceiling=None, arities=()):
    """Homotopy fiber over the pair (X, Y) of the objects level, computed
    as an iso-comma over the point: of the one-span level, or for arities
    (k,) of the underlying (1, k) level, whose feet are the first-direction
    vertices."""
    from .fincat import core
    from .groupoid import discrete_groupoid, iso_comma, product_groupoid

    if len(arities) > 1:
        raise SpanlabError("mapping fibers are shipped for at most one arity")
    if arities:
        level = underlying_2fold_level(base, (1, *arities), bound, ceiling)
        left, right = ((0, 0), (0, 0)), ((1, 1), (0, 0))
    else:
        level = span_level(base, (1,), bound, ceiling)
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


def mapping_category_check(base, X, Y, arities=(), bound=None, ceiling=None) -> Verdict:
    """Compare the homotopy fiber of spans with feet (X, Y) against the span
    construction over the slice by the product X x Y."""
    from .fincat import core, slice_over_pair
    from .groupoid import groupoids_equivalent

    arities = tuple(arities)
    within = base.objects_within(bound)
    if X not in within or Y not in within:
        # the level holds no span with these feet, so the fiber is empty
        return Verdict.inconclusive(witness={"reason": f"feet ({X}, {Y}) exceed the bound"})
    fiber = mapping_fiber(base, X, Y, bound, ceiling, arities)
    sl = slice_over_pair(base, X, Y, bound)
    if arities:
        other = span_level(sl, arities, None, ceiling)
    else:
        other = core(sl)
    v = groupoids_equivalent(fiber, other)
    if v:
        return Verdict.verified(
            witness=v.witness,
            fiber_objects=len(fiber.objects),
            slice_side_objects=len(other.objects),
        )
    return Verdict.refuted(witness=v.witness)
