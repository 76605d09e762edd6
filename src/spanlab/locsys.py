"""Spans of finite sets labeled in an internal category.

An internal category is a strict category object in finite sets (object and
morphism sets with source/target/identity/composition tables).  A local
system span carries vertex labels into the object set and an apex label
into the morphism set, compatibly with source and target; composition
pushes the apex labels through the internal composition table.
"""
from __future__ import annotations

import itertools

from .fincat import FinSetCategory, Functor, SliceCategory, core
from .groupoid import FinGroupoid, equivalent, groupoids_equivalent, positions
from .inverse import inverse_candidates
from .spans import (
    Span,
    all_spans,
    both_legs_iso,
    identity_span,
    iso_to_identity_span,
)
from .verdict import FootMismatchError, SpanlabError, Verdict


class InternalCategory:
    """C0, C1 are the sets {0..n-1}; src/tgt/ident are value tuples; comp is
    a table on strictly composable pairs; inv, when present, flags an
    internal groupoid."""

    def __init__(self, C0, C1, src, tgt, ident, comp, inv=None):
        self.C0 = C0
        self.C1 = C1
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.ident = tuple(ident)
        self.comp = dict(comp)
        self.inv = tuple(inv) if inv is not None else None

    def compose(self, g, f):
        """g after f; requires src(g) = tgt(f)."""
        return self.comp[(g, f)]

    def is_invertible(self, m) -> bool:
        return self.inv is not None or self._search_inverse(m) is not None

    def inverse(self, m):
        n = self.inv[m] if self.inv is not None else self._search_inverse(m)
        if n is None:
            raise SpanlabError(f"internal morphism {m} is not invertible")
        return n

    def _search_inverse(self, m):
        """The first morphism n with n . m and m . n identities, or None."""
        s, t = self.src[m], self.tgt[m]
        ident = self.ident[s], self.ident[t]
        candidates = (n for n in range(self.C1) if self.src[n] == t and self.tgt[n] == s)
        return next((n for n in candidates if (self.comp.get((n, m)), self.comp.get((m, n))) == ident), None)

    def to_json(self) -> dict:
        data = {
            "C0": self.C0,
            "C1": self.C1,
            "src": list(self.src),
            "tgt": list(self.tgt),
            "id": list(self.ident),
            "comp": [[g, f, h] for (g, f), h in sorted(self.comp.items())],
        }
        if self.inv is not None:
            data["inv"] = list(self.inv)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "InternalCategory":
        """The category in a coefficient file: its counts and table entries
        must be integers and each composite pair listed once; whether they
        are in range is for validate_internal to say."""
        try:
            comp = {}
            for g, f, h in data["comp"]:
                if (g, f) in comp:
                    raise SpanlabError(f"malformed internal-category JSON: repeated composite {[g, f]}")
                comp[(g, f)] = h
            C = cls(data["C0"], data["C1"], data["src"], data["tgt"], data["id"], comp, data.get("inv"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpanlabError(f"malformed internal-category JSON: {exc}") from exc
        entries = (C.C0, C.C1, *C.src, *C.tgt, *C.ident, *itertools.chain(*comp), *comp.values(), *(C.inv or ()))
        bad = [v for v in entries if type(v) is not int]
        if bad:
            raise SpanlabError(f"malformed internal-category JSON: {bad[0]!r} is not an integer")
        return C


def validate_internal(C: InternalCategory) -> Verdict:
    if (len(C.src), len(C.tgt), len(C.ident), len(C.inv or C.src)) != (C.C1, C.C1, C.C0, C.C1):
        return Verdict.refuted(witness={"reason": "table lengths"})
    if any(v < 0 or v >= C.C0 for v in C.src + C.tgt):
        return Verdict.refuted(witness={"reason": "src/tgt out of range"})
    for x in range(C.C0):
        i = C.ident[x]
        if i < 0 or i >= C.C1 or C.src[i] != x or C.tgt[i] != x:
            return Verdict.refuted(witness={"object": x, "reason": "bad identity"})
    for (g, f), h in C.comp.items():
        if not all(0 <= m < C.C1 for m in (g, f, h)):
            return Verdict.refuted(witness={"pair": (g, f), "reason": "composite out of range"})
    for g in range(C.C1):
        for f in range(C.C1):
            h = C.comp.get((g, f))
            if C.src[g] == C.tgt[f]:
                if h is None:
                    return Verdict.refuted(witness={"pair": (g, f), "reason": "missing composite"})
                if C.src[h] != C.src[f] or C.tgt[h] != C.tgt[g]:
                    return Verdict.refuted(witness={"pair": (g, f), "reason": "mistyped composite"})
            elif h is not None:
                return Verdict.refuted(witness={"pair": (g, f), "reason": "spurious composite"})
    for f in range(C.C1):
        if C.comp[(f, C.ident[C.src[f]])] != f or C.comp[(C.ident[C.tgt[f]], f)] != f:
            return Verdict.refuted(witness={"morphism": f, "reason": "unit law"})
    for h in range(C.C1):
        for g in range(C.C1):
            if C.src[h] != C.tgt[g]:
                continue
            for f in range(C.C1):
                if C.src[g] != C.tgt[f]:
                    continue
                if C.comp[(C.comp[(h, g)], f)] != C.comp[(h, C.comp[(g, f)])]:
                    return Verdict.refuted(witness={"triple": (h, g, f), "reason": "associativity"})
    if C.inv is not None:
        for m in range(C.C1):
            n = C.inv[m]
            if (
                not 0 <= n < C.C1
                or C.src[n] != C.tgt[m]
                or C.tgt[n] != C.src[m]
                or C.comp[(n, m)] != C.ident[C.src[m]]
                or C.comp[(m, n)] != C.ident[C.tgt[m]]
            ):
                return Verdict.refuted(witness={"morphism": m, "reason": "inverse law"})
    return Verdict.verified()


# -- stock coefficient objects


def discrete_internal(n: int) -> InternalCategory:
    return InternalCategory(
        n, n, range(n), range(n), range(n), {(i, i): i for i in range(n)}, range(n)
    )


def cyclic_internal(n: int) -> InternalCategory:
    """One object, morphisms the cyclic group of order n."""
    return InternalCategory(
        1,
        n,
        [0] * n,
        [0] * n,
        [0],
        {(g, f): (g + f) % n for g in range(n) for f in range(n)},
        [(-g) % n for g in range(n)],
    )


def walking_arrow_internal() -> InternalCategory:
    """Two objects 0, 1 and one non-invertible morphism 2: 0 -> 1."""
    comp = {
        (0, 0): 0,
        (1, 1): 1,
        (2, 0): 2,
        (1, 2): 2,
    }
    return InternalCategory(2, 3, [0, 1, 0], [0, 1, 1], [0, 1], comp)


# ---------------------------------------------------------------------------
# labeled spans


class LocalSystemSpan:
    """X <- A -> Y with xi: X -> C0, eta: Y -> C0, a: A -> C1 such that
    src . a = xi . lleg and tgt . a = eta . rleg."""

    __slots__ = ("span", "xi", "eta", "a")

    def __init__(self, span: Span, xi, eta, a):
        self.span = span
        self.xi = tuple(xi)
        self.eta = tuple(eta)
        self.a = tuple(a)

    @property
    def key(self):
        return (self.span.key, self.xi, self.eta, self.a)

    def __eq__(self, other):
        return isinstance(other, LocalSystemSpan) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"LocalSystemSpan({self.span!r}, xi={self.xi}, eta={self.eta}, a={self.a})"

    def validate(self, C: InternalCategory) -> Verdict:
        s = self.span
        if len(self.xi) != s.left or len(self.eta) != s.right or len(self.a) != s.apex:
            return Verdict.refuted(witness={"reason": "label lengths"})
        for i in range(s.apex):
            m = self.a[i]
            if C.src[m] != self.xi[s.lleg.values[i]]:
                return Verdict.refuted(witness={"apex_point": i, "reason": "source label"})
            if C.tgt[m] != self.eta[s.rleg.values[i]]:
                return Verdict.refuted(witness={"apex_point": i, "reason": "target label"})
        return Verdict.verified()


def identity_locsys(C: InternalCategory, base: FinSetCategory, Y: int, eta) -> LocalSystemSpan:
    return LocalSystemSpan(identity_span(base, Y), eta, eta, [C.ident[e] for e in eta])


def compose_locsys(
    C: InternalCategory, base: FinSetCategory, s: LocalSystemSpan, t: LocalSystemSpan
) -> LocalSystemSpan:
    """Underlying spans composed by pullback; apex labels pushed through the
    internal composition."""
    ss, ts = s.span, t.span
    if ss.right != ts.left or s.eta != t.xi:
        raise FootMismatchError("middle foot or middle label mismatch")
    P, p, q = base.pullback(ss.rleg, ts.lleg)
    comp = Span(ss.left, base.compose(ss.lleg, p), P, base.compose(ts.rleg, q), ts.right)
    labels = [C.compose(t.a[j], s.a[i]) for i, j in zip(p.values, q.values)]
    return LocalSystemSpan(comp, s.xi, t.eta, labels)


def _apex_labels(C: InternalCategory, l, r, xi, eta):
    """Every apex labeling a of the span with legs l, r and feet labels xi,
    eta: src . a = xi . l and tgt . a = eta . r."""
    return itertools.product(
        *(
            [m for m in range(C.C1) if C.src[m] == xi[x] and C.tgt[m] == eta[y]]
            for x, y in zip(l.values, r.values)
        )
    )


def all_locsys_spans(C: InternalCategory, base: FinSetCategory, bound=None):
    """Every labeled span within bound: the plain spans of all_spans, each
    with every labeling of its feet and apex."""
    return [
        LocalSystemSpan(sp, xi, eta, a)
        for sp in all_spans(base, bound)
        for xi in itertools.product(range(C.C0), repeat=sp.left)
        for eta in itertools.product(range(C.C0), repeat=sp.right)
        for a in _apex_labels(C, sp.lleg, sp.rleg, xi, eta)
    ]


def invertible_between(C: InternalCategory, x, y):
    """Internally invertible morphisms x -> y in C."""
    return [
        m
        for m in range(C.C1)
        if C.src[m] == x and C.tgt[m] == y and C.is_invertible(m)
    ]


def labeled_bijections(C: InternalCategory, base, X, xi, Y, eta):
    """Morphisms of labeled sets (X, xi) -> (Y, eta): a bijection g with a
    family of internal isomorphisms mu(x): xi(x) -> eta(g x)."""
    out = []
    for g in base.isos(X, Y):
        choices = [invertible_between(C, xi[x], eta[g.values[x]]) for x in range(X)]
        for mu in itertools.product(*choices):
            out.append((g, mu))
    return out


def compose_labeled_bij(C, base, b2, b1):
    """b2 after b1, composing the internal components pointwise."""
    g2, mu2 = b2
    g1, mu1 = b1
    return (
        base.compose(g2, g1),
        tuple(C.compose(mu2[g1.values[x]], mu1[x]) for x in range(g1.source)),
    )


def invert_labeled_bij(C, base, b):
    g, mu = b
    ginv = base.inverse(g)
    return (ginv, tuple(C.inverse(mu[ginv.values[y]]) for y in range(g.target)))


def identity_labeled_bij(C, base, X, xi):
    return (base.identity(X), tuple(C.ident[v] for v in xi))


def locsys_span_isos(C: InternalCategory, base, s: LocalSystemSpan, t: LocalSystemSpan):
    """2-cells of labeled spans: triples (bl, h, br) with bl, br labeled
    bijections of the feet and h an apex bijection over them, such that the
    apex labels commute with the internal components:
    t.a(h i) . mul(lleg i) = mur(rleg i) . s.a(i)."""
    out = []
    ss, ts = s.span, t.span
    for bl in labeled_bijections(C, base, ss.left, s.xi, ts.left, t.xi):
        gl, mul = bl
        hs = [
            h
            for h in base.isos(ss.apex, ts.apex)
            if base.compose(ts.lleg, h) == base.compose(gl, ss.lleg)
        ]
        if not hs:
            continue
        for br in labeled_bijections(C, base, ss.right, s.eta, ts.right, t.eta):
            gr, mur = br
            for h in hs:
                if base.compose(ts.rleg, h) != base.compose(gr, ss.rleg):
                    continue
                if all(
                    C.compose(t.a[h.values[i]], mul[ss.lleg.values[i]])
                    == C.compose(mur[ss.rleg.values[i]], s.a[i])
                    for i in range(ss.apex)
                ):
                    out.append((bl, h, br))
    return out


def locsys_level(base: FinSetCategory, C: InternalCategory, bound=None) -> FinGroupoid:
    """The groupoid of labeled sets (X, xi) within bound and the labeled
    bijections between them."""
    return FinGroupoid(
        [
            (X, xi)
            for X in base.objects_within(bound)
            for xi in itertools.product(range(C.C0), repeat=X)
        ],
        lambda x, y: labeled_bijections(C, base, *x, *y),
        lambda g, f: compose_labeled_bij(C, base, g, f),
        lambda m: invert_labeled_bij(C, base, m),
        lambda x: identity_labeled_bij(C, base, *x),
    )


def _two_cell_groupoid(C, base, spans) -> FinGroupoid:
    """The labeled spans and the 2-cells (bl, h, br) between them, composed
    and inverted componentwise."""

    def identity(s):
        return (
            identity_labeled_bij(C, base, s.span.left, s.xi),
            base.identity(s.span.apex),
            identity_labeled_bij(C, base, s.span.right, s.eta),
        )

    return FinGroupoid(
        spans,
        lambda s, t: locsys_span_isos(C, base, s, t),
        lambda g, f: (
            compose_labeled_bij(C, base, g[0], f[0]),
            base.compose(g[1], f[1]),
            compose_labeled_bij(C, base, g[2], f[2]),
        ),
        lambda m: (
            invert_labeled_bij(C, base, m[0]),
            base.inverse(m[1]),
            invert_labeled_bij(C, base, m[2]),
        ),
        identity,
    )


def locsys_spans_isomorphic(C, base, s: LocalSystemSpan, t: LocalSystemSpan) -> bool:
    return bool(locsys_span_isos(C, base, s, t))


def locsys_battery_check(C: InternalCategory, bound=1) -> Verdict:
    """Exhaustive unit and associativity laws for labeled-span composition
    at the given bound, up to labeled 2-cell isomorphism."""
    v = validate_internal(C)
    if not v:
        return Verdict.refuted(witness={"stage": "coefficients", "inner": v.witness})
    base = FinSetCategory(bound)
    spans = all_locsys_spans(C, base, bound)
    for s in spans:
        lid = identity_locsys(C, base, s.span.left, s.xi)
        rid = identity_locsys(C, base, s.span.right, s.eta)
        if not locsys_spans_isomorphic(C, base, compose_locsys(C, base, lid, s), s):
            return Verdict.refuted(witness={"law": "left unit", "span": repr(s)})
        if not locsys_spans_isomorphic(C, base, compose_locsys(C, base, s, rid), s):
            return Verdict.refuted(witness={"law": "right unit", "span": repr(s)})
    pairs_checked = 0
    for s in spans:
        for t in spans:
            if s.span.right != t.span.left or s.eta != t.xi:
                continue
            st = compose_locsys(C, base, s, t)
            for u in spans:
                if t.span.right != u.span.left or t.eta != u.xi:
                    continue
                tu = compose_locsys(C, base, t, u)
                lhs = compose_locsys(C, base, st, u)
                rhs = compose_locsys(C, base, s, tu)
                if not locsys_spans_isomorphic(C, base, lhs, rhs):
                    return Verdict.refuted(
                        witness={"law": "associativity", "triple": (repr(s), repr(t), repr(u))}
                    )
                pairs_checked += 1
    return Verdict.verified(spans=len(spans), triples_checked=pairs_checked)


# ---------------------------------------------------------------------------
# equivalences


def locsys_iso_to_identity(C: InternalCategory, base, s: LocalSystemSpan) -> bool:
    """Is s isomorphic to the identity labeled span by a 2-cell fixing feet
    and labels?"""
    sp = s.span
    if s.xi != s.eta or not iso_to_identity_span(base, sp):
        return False
    return all(s.a[i] == C.ident[s.xi[sp.lleg.values[i]]] for i in range(sp.apex))


def locsys_invertible_search(C, base, s: LocalSystemSpan, bound=None, rows=None) -> bool:
    """Is some labeled span an inverse of s?  A labeled composite has the
    composite of the underlying spans beneath it, so only the underlying
    inverse candidates of s can carry such labels.  rows is
    inverse_candidates' dict, shared by the searches of one check."""
    for t in inverse_candidates(base, s.span, bound, rows):
        for a in _apex_labels(C, t.lleg, t.rleg, s.eta, s.xi):
            u = LocalSystemSpan(t, s.eta, s.xi, a)
            if locsys_iso_to_identity(
                C, base, compose_locsys(C, base, s, u)
            ) and locsys_iso_to_identity(C, base, compose_locsys(C, base, u, s)):
                return True
    return False


def locsys_invertible_predicate(C, base, s: LocalSystemSpan) -> bool:
    """Trivial underlying span (both legs invertible) with internally
    invertible labels."""
    return both_legs_iso(base, s.span) and all(C.is_invertible(m) for m in s.a)


def locsys_equivalence_check(C: InternalCategory, bound=1) -> Verdict:
    """Exhaustive agreement of the inverse search with the trivial-span plus
    invertible-labels classification, then the degeneracy comparison of the
    objects level against the invertible-span sub-level.  The inverse
    searches share one rows dict (inverse.inverse_candidates), so each
    underlying key's pullbacks are taken once per check."""
    v = validate_internal(C)
    if not v:
        return Verdict.refuted(witness={"stage": "coefficients", "inner": v.witness})
    base = FinSetCategory(bound)
    checked, rows = 0, {}
    invertible = []
    for s in all_locsys_spans(C, base, bound):
        pred = locsys_invertible_predicate(C, base, s)
        found = locsys_invertible_search(C, base, s, bound, rows)
        if pred != found:
            return Verdict.refuted(
                witness={"span": repr(s), "predicate": pred, "search": found}
            )
        if pred:
            invertible.append(s)
        checked += 1

    level0 = locsys_level(base, C, bound)
    eq = _two_cell_groupoid(C, base, invertible)

    def on_mor(m):
        x, y, b = m
        return identity_locsys(C, base, *x), identity_locsys(C, base, *y), (b, b[0], b)

    F = Functor(level0, eq, lambda x: identity_locsys(C, base, *x), on_mor)
    ve = equivalent(F)
    if not ve:
        return Verdict.refuted(witness={"stage": "degeneracy", "inner": ve.witness})
    return Verdict.verified(spans_checked=checked, invertible=len(invertible))


# ---------------------------------------------------------------------------
# mapping fibers


def comma_set(C: InternalCategory, X, xi, Y, eta):
    """The set of triples (x, y, m: xi(x) -> eta(y)), in lexicographic
    order."""
    return [
        (x, y, m)
        for x in range(X)
        for y in range(Y)
        for m in range(C.C1)
        if C.src[m] == xi[x] and C.tgt[m] == eta[y]
    ]


def locsys_mapping_fiber_check(C: InternalCategory, X, xi, Y, eta, bound=1) -> Verdict:
    """Compare the strict fiber of labeled spans with feet (X, xi), (Y, eta)
    against labeled sets over the comma set of internal morphisms.  Feet
    larger than the bound leave the fiber empty: inconclusive."""
    v = validate_internal(C)
    if not v:
        return Verdict.refuted(witness={"stage": "coefficients", "inner": v.witness})
    if max(X, Y) > bound:
        return Verdict.inconclusive(witness={"reason": f"feet ({X}, {Y}) exceed the bound {bound}"})
    base = FinSetCategory(bound)
    xi, eta = tuple(xi), tuple(eta)
    fiber_objs = [
        s
        for s in all_locsys_spans(C, base, bound)
        if s.span.left == X and s.span.right == Y and s.xi == xi and s.eta == eta
    ]
    fiber = _strict_fiber_groupoid(C, base, fiber_objs)

    K = len(comma_set(C, X, xi, Y, eta))
    other = core(SliceCategory(base, K), bound)
    v = groupoids_equivalent(fiber, other)
    if v:
        return Verdict.verified(
            witness=v.witness, fiber_objects=len(fiber.objects), comma_size=K
        )
    return Verdict.refuted(witness=v.witness)


def _strict_fiber_groupoid(C, base, objs) -> FinGroupoid:
    """Labeled spans with fixed feet and labels; morphisms are apex
    bijections h over the identity feet components, so that the labeled
    2-cell (identity, h, identity) is natural.

    C must have passed validate_internal.  Then an identity labeled
    bijection between feet exists exactly when their labels are equal, and
    its components are units, so naturality says t.a(h i) = s.a(i)."""
    keys = [s.key for s in objs]
    at = positions(keys)

    def hom(k1, k2):
        s, t = objs[at(k1)], objs[at(k2)]
        ss, ts = s.span, t.span
        if (ss.left, ss.right, s.xi, s.eta) != (ts.left, ts.right, t.xi, t.eta):
            return []
        return [
            h
            for h in base.isos(ss.apex, ts.apex)
            if base.compose(ts.lleg, h) == ss.lleg
            and base.compose(ts.rleg, h) == ss.rleg
            and all(t.a[h.values[i]] == s.a[i] for i in range(ss.apex))
        ]

    return FinGroupoid(
        keys, hom, base.compose, base.inverse, lambda k: base.identity(objs[at(k)].span.apex)
    )
