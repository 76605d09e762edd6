"""The inverse search for plain spans: every span t such that s . t and
t . s are isomorphic to identity spans, with the pullbacks it takes shared
by the searches of one check.  spans.invertible_span_check and
locsys.locsys_invertible_search run it."""
from __future__ import annotations

from .spans import Span, compose_spans, iso_to_identity_span
from .verdict import NoLimitError


def _inverse_rows(base, s: Span, bound, legs: dict) -> list:
    """The rows (B, l, hom(B, s.left), p, q) of inverse_candidates, in (B,
    l) order: one per B within bound with hom(B, s.left) nonempty and l: B
    -> s.right, where P, p, q is the pullback of s.rleg and l, kept only
    when P is isomorphic to s.left.  They depend on s only through
    (s.left, s.rleg, s.right).  Each of p and q is the copy in legs equal
    to it, once there is one, so that rows of different keys share equal
    legs.  Where the pullback does not exist, the list stops with the
    NoLimitError raised there, traceback dropped, as its marker row."""
    rows = []
    for B in base.objects_within(bound):
        rs = base.hom(B, s.left)
        if not rs:
            continue
        for l in base.hom(B, s.right):
            try:
                P, p, q = base.pullback(s.rleg, l)
            except NoLimitError as exc:
                return rows + [exc.with_traceback(None)]
            if P == s.left or base.isos(P, s.left):
                rows.append((B, l, rs, legs.setdefault(p, p), legs.setdefault(q, q)))
    return rows


def inverse_candidates(base, s: Span, bound, rows=None):
    """Every span t = (s.right <-l- B -r-> s.left) with B within bound such
    that s . t and t . s are both isomorphic to identity spans, in (B, l, r)
    order.

    Pruning lemma: s . t is the pullback P, p, q of s.rleg and l, with legs
    s.lleg . p and r . q, so up to its right leg r . q it depends only on
    (B, l).  Hence s . t is isomorphic to an identity span exactly when
    s.lleg . p is invertible and r . q equals it, and one pullback per
    (B, l) serves every r.  The pullback is taken only when hom(B, s.left)
    is nonempty, as a search composing each candidate would take it: a
    table base may raise NoLimitError there.

    Apex lemma: s.lleg . p: P -> s.left is invertible only when P is
    isomorphic to s.left, and P depends only on s.rleg and l.  So the
    rows (_inverse_rows) that can yield a candidate depend only on the key
    (s.left, s.rleg, s.right), and every span with that key walks the same
    rows, composing only s.lleg . p.  A row list that ends in a
    NoLimitError raises a fresh copy of it after the candidates before it,
    where a search composing each candidate would raise.

    When rows is a dict, it keeps each key's rows for the next span with
    that key; one dict serves one base and one bound.  It maps the block
    (s.apex, s.left, s.right) of the last span searched to that block's
    rows by key and one copy of each leg of them, and drops the block
    before.  A key fixes its block, and all_spans lists the spans of a
    block together, so one process searching all_spans in order takes each
    key's pullbacks once while holding one block's rows: on finset:3 at
    most 375 rows, whose 750 legs are 36 objects.  Under tracemalloc that
    check peaks at 186 KB so, 280 KB with each row's own legs and 544 KB
    holding every key's 1,196 rows.  spans.invertible_span_check deals the
    spans to its shares in blocks of fanout.BLOCK, so a block split between
    shares has its rows built in each: on finset:3, 6,158 pullbacks in one
    process and 9,430 in two."""
    if rows is None:
        rows = {}
    block, key = (s.apex, s.left, s.right), (s.left, s.rleg, s.right)
    if block not in rows:  # drop the last block's rows
        rows.clear()
        rows[block] = {}, {}
    table, legs = rows[block]
    if key not in table:
        table[key] = _inverse_rows(base, s, bound, legs)
    for row in table[key]:
        if isinstance(row, NoLimitError):
            raise NoLimitError(*row.args)
        B, l, rs, p, q = row
        leg = base.compose(s.lleg, p)
        if not base.is_iso(leg):
            continue
        for r in rs:
            if base.compose(r, q) != leg:
                continue
            t = Span(s.right, l, B, r, s.left)
            if iso_to_identity_span(base, compose_spans(base, t, s)):
                yield t


def has_inverse(base, s: Span, bound, rows=None) -> bool:
    """Is some span within bound an inverse of s?"""
    return next(inverse_candidates(base, s, bound, rows), None) is not None
