"""Adjunctions and duals in the span construction.

Every span has a right adjoint given by reversing it; the unit and counit
are the evident diagonal sections, and the triangle composites collapse to
the apex.  Every object is self-dual for the product structure via its
diagonal.  All verdicts here are decided up to isomorphism of 2-cells, with
the collapse re-derived per case from an independently computed limit.
"""
from __future__ import annotations

from .spans import Span, compose_spans, identity_span, iso_to_identity_span, reverse_span
from .verdict import NoLimitError, Verdict


def _pair_into_pullback(base, P, p, q, f, g):
    """Factor the cone (f, g) through the pullback with projections p, q."""
    node_obj = {"L": base.tgt(p), "R": base.tgt(q)}
    return base.factor_through_limit(P, {"L": p, "R": q}, base.src(f), {"L": f, "R": g}, node_obj)


def _pair(base, f, g):
    """The induced map into the canonical product of the targets."""
    return _pair_into_pullback(base, *base.product(base.tgt(f), base.tgt(g)), f, g)


class AdjunctionWitness:
    """A span, its reversal, and the unit/counit sections.

    unit_map: apex -> apex x_right apex (the diagonal over the right foot);
    counit_map: apex -> apex x_left apex (the diagonal over the left foot).
    The pullbacks are stored with their projections so corrupted sections
    can be substituted in tests.
    """

    def __init__(self, base, span, PB, b1, b2, unit_map, PA, a1, a2, counit_map):
        self.base = base
        self.span = span
        self.PB, self.b1, self.b2 = PB, b1, b2
        self.PA, self.a1, self.a2 = PA, a1, a2
        self.unit_map = unit_map
        self.counit_map = counit_map

    @property
    def reversed(self) -> Span:
        return reverse_span(self.span)

    def validate(self) -> Verdict:
        """Unit and counit are well-typed 2-cell sections over the foot
        squares: composing with either projection must recover the leg."""
        b, s = self.base, self.span
        for name, m, target, pr1, pr2, leg in (
            ("unit", self.unit_map, self.PB, self.b1, self.b2, s.lleg),
            ("counit", self.counit_map, self.PA, self.a1, self.a2, s.rleg),
        ):
            if b.src(m) != s.apex or b.tgt(m) != target:
                return Verdict.refuted(witness={"cell": name, "reason": "section mistyped"})
            for pr in (pr1, pr2):
                if b.compose(leg, b.compose(pr, m)) != leg:
                    return Verdict.refuted(
                        witness={"cell": name, "reason": "section does not respect the vertex maps"}
                    )
        return Verdict.verified()

    def to_json(self) -> dict:
        return {
            "span": repr(self.span),
            "unit_pullback": self.PB,
            "counit_pullback": self.PA,
            "unit_map": repr(self.unit_map),
            "counit_map": repr(self.counit_map),
        }


def build_adjunction(base, s: Span) -> AdjunctionWitness:
    """The reversed span with diagonal unit and counit sections."""
    PB, b1, b2 = base.pullback(s.rleg, s.rleg)
    PA, a1, a2 = base.pullback(s.lleg, s.lleg)
    ident = base.identity(s.apex)
    unit = _pair_into_pullback(base, PB, b1, b2, ident, ident)
    counit = _pair_into_pullback(base, PA, a1, a2, ident, ident)
    return AdjunctionWitness(base, s, PB, b1, b2, unit, PA, a1, a2, counit)


def _chain_limit(base, l, r, M, L, R):
    """The canonical limit of apex -> right-foot <- apex -> left-foot <- apex
    (triples composable through both feet)."""
    node_obj = {"m1": M, "m2": M, "m3": M, "vl": L, "vr": R}
    arrows = [
        ("m1", "vr", r),
        ("m2", "vr", r),
        ("m2", "vl", l),
        ("m3", "vl", l),
    ]
    return base.limit_of_diagram(node_obj, arrows), node_obj


def _one_triangle(base, s: Span, PB, b1, b2, unit_map, PA, a1, a2, counit_map) -> Verdict:
    """One triangle composite: pull the two whiskered 2-cells back over the
    three-fold composite and compare with the identity 2-cell."""
    l, r, M = s.lleg, s.rleg, s.apex
    (Q, legs), node_obj = _chain_limit(base, l, r, M, s.left, s.right)
    # whiskered unit block: apex x_right apex -> Q via (pr1, counit-section of pr2)
    cone1 = {
        "m1": b1,
        "m2": base.compose(a1, base.compose(counit_map, b2)),
        "m3": base.compose(a2, base.compose(counit_map, b2)),
        "vr": base.compose(r, b1),
        "vl": base.compose(l, base.compose(a2, base.compose(counit_map, b2))),
    }
    # whiskered counit block: apex x_left apex -> Q via (unit-section of pr1, pr2)
    cone2 = {
        "m1": base.compose(b1, base.compose(unit_map, a1)),
        "m2": base.compose(b2, base.compose(unit_map, a1)),
        "m3": a2,
        "vr": base.compose(r, base.compose(b1, base.compose(unit_map, a1))),
        "vl": base.compose(l, a2),
    }
    try:
        g1 = base.factor_through_limit(Q, legs, PB, cone1, node_obj)
        g2 = base.factor_through_limit(Q, legs, PA, cone2, node_obj)
    except NoLimitError:
        return Verdict.refuted(witness={"reason": "whiskered cell does not factor"})
    T, t1, t2 = base.pullback(g1, g2)
    h_src = base.compose(b1, t1)
    h_tgt = base.compose(a2, t2)
    if h_src != h_tgt or not base.is_iso(h_src):
        return Verdict.refuted(
            witness={
                "reason": "composite 2-cell is not the identity",
                "composite_apex": T,
                "expected_apex": M,
            }
        )
    # independent oracle: the W-shaped limit with identity upper legs
    node_w = {
        "w1": M, "w2": M, "w3": M,
        "t12": M, "t23": M,
        "va": s.left, "vb": s.right,
    }
    arrows_w = [
        ("t12", "w1", base.identity(M)),
        ("t12", "w2", base.identity(M)),
        ("t23", "w2", base.identity(M)),
        ("t23", "w3", base.identity(M)),
        ("w1", "va", l),
        ("w2", "va", l),
        ("w2", "vb", r),
        ("w3", "vb", r),
    ]
    W, wlegs = base.limit_of_diagram(node_w, arrows_w)
    if not base.isos(W, M) and W != M:
        return Verdict.refuted(
            witness={"reason": "collapse limit differs from the apex", "limit": W}
        )
    if not base.is_iso(wlegs["w2"]):
        return Verdict.refuted(witness={"reason": "collapse limit projection not invertible"})
    return Verdict.verified(
        witness={
            "composite_apex": T,
            "collapse_apex": W,
        }
    )


def triangle_check(w: AdjunctionWitness) -> Verdict:
    """Both triangle composites against the identity 2-cells."""
    v = w.validate()
    if not v:
        return v
    first = _one_triangle(
        w.base, w.span, w.PB, w.b1, w.b2, w.unit_map, w.PA, w.a1, w.a2, w.counit_map
    )
    if not first:
        return Verdict.refuted(witness={"triangle": "on the span", "inner": first.witness})
    mirrored = _one_triangle(
        w.base, w.reversed, w.PA, w.a1, w.a2, w.counit_map, w.PB, w.b1, w.b2, w.unit_map
    )
    if not mirrored:
        return Verdict.refuted(witness={"triangle": "on the reversal", "inner": mirrored.witness})
    return Verdict.verified(
        witness={"first": first.witness, "second": mirrored.witness}
    )


def tensor_spans(base, s: Span, t: Span) -> Span:
    """Componentwise product of spans with canonical product representatives."""
    AL, _, _ = base.product(s.left, t.left)
    AR, _, _ = base.product(s.right, t.right)
    M, mp1, mp2 = base.product(s.apex, t.apex)
    lleg = _pair(base, base.compose(s.lleg, mp1), base.compose(t.lleg, mp2))
    rleg = _pair(base, base.compose(s.rleg, mp1), base.compose(t.rleg, mp2))
    return Span(AL, lleg, M, rleg, AR)


def _assoc(base, x, y, z):
    """Canonical re-association (x*y)*z -> x*(y*z) on product representatives."""
    XY, p1, p2 = base.product(x, y)
    _, q1, q2 = base.product(XY, z)
    inner = _pair(base, base.compose(p2, q1), q2)  # (y, z) component
    return _pair(base, base.compose(p1, q1), inner)


def object_duality_check(base, X) -> Verdict:
    """Self-duality of X via diagonals: both zigzag composites must be
    isomorphic to the identity span."""
    one = base.terminal()
    XX, _, _ = base.product(X, X)
    diag = _pair(base, base.identity(X), base.identity(X))
    to_one = base.hom(X, one)
    if not to_one:
        return Verdict.refuted(witness={"reason": "no map to the unit object"})
    bang = to_one[0]
    ev = Span(XX, diag, X, bang, one)
    coev = Span(one, bang, X, diag, XX)
    id_x = identity_span(base, X)
    u2 = base.product(one, X)[2]  # 1*X -> X
    w1 = base.product(X, one)[1]  # X*1 -> X
    assoc = _assoc(base, X, X, X)  # (X*X)*X -> X*(X*X)
    unassoc = base.inverse(assoc)  # X*(X*X) -> (X*X)*X

    # zig: X ~ 1*X --coev x id--> (X*X)*X ~ X*(X*X) --id x ev--> X*1 ~ X
    a = tensor_spans(base, coev, id_x)
    b = tensor_spans(base, id_x, ev)
    zig = compose_spans(
        base,
        Span(X, base.compose(u2, a.lleg), a.apex, base.compose(assoc, a.rleg), b.left),
        Span(b.left, b.lleg, b.apex, base.compose(w1, b.rleg), X),
    )
    if not iso_to_identity_span(base, zig):
        return Verdict.refuted(witness={"zigzag": "first", "apex": zig.apex})

    # zag: X ~ X*1 --id x coev--> X*(X*X) ~ (X*X)*X --ev x id--> 1*X ~ X
    c = tensor_spans(base, id_x, coev)
    d = tensor_spans(base, ev, id_x)
    zag = compose_spans(
        base,
        Span(X, base.compose(w1, c.lleg), c.apex, base.compose(unassoc, c.rleg), d.left),
        Span(d.left, d.lleg, d.apex, base.compose(u2, d.rleg), X),
    )
    if not iso_to_identity_span(base, zag):
        return Verdict.refuted(witness={"zigzag": "second", "apex": zag.apex})
    return Verdict.verified(
        witness={
            "object": X,
            "ev": repr(ev),
            "coev": repr(coev),
            "zig_apex": zig.apex,
            "zag_apex": zag.apex,
        }
    )
