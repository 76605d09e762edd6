"""The Segal battery on one item of spans.segal_check's stream.

check_one_datum checks a free datum: its Kan extension and the
extension's edge pieces are Cartesian, and every natural automorphism
family of the free data extends.  draw_twist and check_twist are the
twist battery: a twist is drawn on the free datum and checked on its
extension.

The functions of spanlab.spans are called through the module, so that
the benchmark tracer's wrappers and the tests' patches on it see these
calls.  A module of its own, imported by segal_check when it runs, as
spanlab.fanout is: a benchmark session's peak memory is the compile of
its largest module, spanlab.spans, and that grows with the module's
tokens (tests/test_module_size.py).
"""
from __future__ import annotations

from . import spans
from .verdict import Verdict


def edge_piece(d, r: int, i: int):
    """Restrict to the i-th edge in direction r (arity collapsed to 1)."""
    small, phis = d.shape.edge(r, i)
    return spans.restrict_along(small, phis, d)


def check_one_datum(shape, base, lo, lm, dirs):
    """The per-datum Segal battery: the extension is Cartesian, its edge
    restrictions are Cartesian, and every natural family on the free data
    extends uniquely to the full diagram (check_families).

    Nothing is built or extended that cannot fail.  An edge piece whose
    shape has no filled cell (every piece in one direction) is Cartesian
    with an empty certificate, so it is not built."""
    limits = {}
    ext = spans.kan_extend(shape, base, lo, lm, limits)
    v = spans.is_cartesian(ext, limits)
    if not v:
        return v, ext
    for r in dirs:
        small = shape.edge(r, 1)[0]
        if len(small.lambda_cells) == len(small.objects):
            continue
        for i in range(1, shape.arities[r] + 1):
            piece = edge_piece(ext, r, i)
            vp = spans.is_cartesian(piece)
            if not vp:
                return (
                    Verdict.refuted(
                        witness={"direction": r, "edge": i, "inner": vp.witness}
                    ),
                    ext,
                )
    return check_families(base, shape, ext), ext


def check_families(base, shape, ext) -> Verdict:
    """Does every natural automorphism family of ext's free data extend to
    ext?  ext is Cartesian, so the families that extend form a subgroup
    (generator lemma, natural_family_generators), and only the generators
    of a stabilizer chain are extended; never the identity family, which
    is in every subgroup.  The refutation names the first generator, in
    chain order, that fails to extend.  On a Kan extension of free data
    every family extends (the extension lemma of span_level), so only a
    hand-built diagram is refuted here."""
    for fam in spans.natural_family_generators(base, shape, ext)[0]:
        if spans.extend_natural_family(ext, ext, fam) is None:
            return Verdict.refuted(
                witness={"reason": "free-data automorphism fails to extend", "family": fam}
            )
    return Verdict.verified()


def draw_twist(shape, base, lo, lm, dirs, rng):
    """A twist's draws on the free datum (lo, lm): a direction r, an edge
    i and a random natural automorphism family on the free cells of the
    edge piece, as (r, i, family).

    Draw lemma: the inclusion of the edge sends each Lambda cell of the
    piece to a Lambda cell (SigmaShape.edge_lambda), so the piece of the
    datum's Kan extension agrees with the datum there, and
    random_natural_family reads the Lambda cells alone: their objects and
    the arrows among them.  So the family it draws on the datum's
    restriction to the edge's Lambda cells, and the state it leaves rng
    in, are those of a draw on the piece, and a twist is drawn with no
    extension built."""
    r = rng.choice(dirs)
    i = rng.randrange(1, shape.arities[r] + 1)
    small, cells, arrows = shape.edge_lambda(r, i)
    free = spans.SpanDiagram(small, base, {c: lo[m] for c, m in cells}, {ab: lm[m] for ab, m in arrows})
    return r, i, spans.random_natural_family(base, small, free, rng)


def check_twist(ext, r, i, fam):
    """Twist battery: a natural automorphism family on the free cells of
    the i-th edge piece of ext in direction r extends to the piece, which
    is a functor.  No transport is checked: extend_natural_family returns
    only families natural on every arrow m: a -> b, and for automorphisms
    that says fam[b] . m . fam[a]^-1 = m, so twisting the piece by the
    family gives back the piece.

    The family, drawn by draw_twist, meets the precondition of
    extend_natural_family, natural on the Lambda cells: each component
    random_natural_family draws is an automorphism of its cell's object,
    chosen natural with the cells drawn before it, and fill order lists
    every cell after the cells above it, so every arrow among the Lambda
    cells has been tested; its fallback, the identity family, is natural
    on every arrow.  So a piece whose shape has no filled cell is not
    extended: there extend_natural_family would fill nothing and return
    fam."""
    piece = edge_piece(ext, r, i)
    small = piece.shape
    if len(small.lambda_cells) != len(small.objects) and spans.extend_natural_family(piece, piece, fam) is None:
        return Verdict.refuted(witness={"reason": "twist family fails to extend"})
    return piece.validate()
