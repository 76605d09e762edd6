"""Index posets for iterated span diagrams.

The triangular poset on subintervals of [n] (and products of those for
several directions) indexes a span diagram; its wide sub-poset of intervals
of length at most one carries the free generating data.  Objects are stored
as explicit tuples in a fixed lexicographic order so poset maps, colimits
and JSON dumps are deterministic.

A shape is compiled once per process: sigma_shape returns one shared
instance per arity tuple, and that instance builds its order tables (the
order as a set of pairs, strict and Lambda up-sets, the fill order, the
arrows among a node list, restriction maps and their cut to each edge's
Lambda cells, the steps at which the free-data search takes each Lambda
cell's limit, and the covers through which Kan extension factors each
filled cell) on first use and keeps them, so checks that visit
thousands of diagrams on one shape never re-derive its order.  Nothing
is built at import time.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .verdict import ResourceError, ShapeSpecError, Verdict

# Cap on the pairs of a shape's order: C(n + 4, 4) per direction of arity n.
SHAPE_ORDER_BOUND = 10**6


@dataclass(frozen=True)
class SimplexMap:
    """A weakly monotone map [source_size] -> [target_size]."""

    source_size: int
    target_size: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.source_size + 1:
            raise ShapeSpecError(
                f"expected {self.source_size + 1} values, got {len(self.values)}"
            )
        if any(v < 0 or v > self.target_size for v in self.values):
            raise ShapeSpecError(f"values {self.values} out of range [0, {self.target_size}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ShapeSpecError(f"values {self.values} not weakly increasing")

    def __call__(self, i: int) -> int:
        return self.values[i]

    @classmethod
    def identity(cls, n: int) -> "SimplexMap":
        return cls(n, n, tuple(range(n + 1)))

    def compose(self, other: "SimplexMap") -> "SimplexMap":
        """self after other."""
        if other.target_size != self.source_size:
            raise ShapeSpecError("simplex maps not composable")
        return SimplexMap(
            other.source_size, self.target_size, tuple(self.values[v] for v in other.values)
        )


def _all_intervals(n: int):
    return [(i, j) for i in range(n + 1) for j in range(i, n + 1)]


@dataclass(frozen=True)
class SigmaShape:
    """Product of triangular interval posets, one factor per direction.

    Objects are k-tuples of pairs (i, j) with 0 <= i <= j <= arity; the
    order is componentwise (i, j) <= (i', j') iff i <= i' and j' <= j, so
    arrows shrink intervals.  The order tables below are built on first use
    and kept; obtain shapes from sigma_shape so that every caller shares
    them.
    """

    arities: tuple
    objects: tuple = field(init=False)
    # Tables keyed by node lists, simplex maps or edges, filled on first use.
    _memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.arities) == 0:
            raise ShapeSpecError("arity list must be non-empty")
        if any(n < 0 for n in self.arities):
            raise ShapeSpecError(f"negative arity in {self.arities}")
        pairs = math.prod(math.comb(n + 4, 4) for n in self.arities)
        if pairs > SHAPE_ORDER_BOUND:
            raise ResourceError(f"the order of {self.arities} has {pairs} pairs, over {SHAPE_ORDER_BOUND}")
        object.__setattr__(self, "arities", tuple(self.arities))
        objs = tuple(
            itertools.product(*[_all_intervals(n) for n in self.arities])
        )
        object.__setattr__(self, "objects", tuple(sorted(objs)))

    @property
    def k(self) -> int:
        return len(self.arities)

    @cached_property
    def order(self) -> frozenset:
        """The pairs (a, b) with a <= b, built direction by direction as
        products of interval containments."""
        per_direction = [
            [
                (p, q)
                for p in _all_intervals(n)
                for q in _all_intervals(n)
                if p[0] <= q[0] and q[1] <= p[1]
            ]
            for n in self.arities
        ]
        return frozenset(
            (tuple(p for p, _ in combo), tuple(q for _, q in combo))
            for combo in itertools.product(*per_direction)
        )

    def leq(self, a, b) -> bool:
        return (a, b) in self.order

    @cached_property
    def strict_up(self) -> dict:
        """Each cell's strict up-set (the cells it maps into), in object
        order."""
        ups = {a: [] for a in self.objects}
        for a, b in sorted(self.order):
            if a != b:
                ups[a].append(b)
        return {a: tuple(bs) for a, bs in ups.items()}

    @cached_property
    def lambda_cells(self) -> tuple:
        """The cells whose intervals all have length at most one, in object
        order."""
        return tuple(a for a in self.objects if self.is_lambda_object(a))

    @cached_property
    def lambda_set(self) -> frozenset:
        return frozenset(self.lambda_cells)

    @cached_property
    def lambda_up(self) -> dict:
        """The Lambda part of each cell's strict up-set, in object order:
        the nodes of the diagram whose limit fills the cell."""
        lam = self.lambda_set
        return {a: tuple(b for b in ups if b in lam) for a, ups in self.strict_up.items()}

    @cached_property
    def lambda_up_arrows(self) -> dict:
        """The arrows among each cell's Lambda up-set, as arrows_among
        gives them: the arrows of the diagram whose limit fills the cell."""
        return {a: self.arrows_among(ups) for a, ups in self.lambda_up.items()}

    @cached_property
    def lambda_due(self) -> tuple:
        """The steps of the free-data search, one per Lambda cell in fill
        order: (cell, due), due the Lambda cells whose Lambda up-set is
        complete once the cell is assigned, as it is the last of their
        up-set in fill order.  Their limits are due at that step."""
        order = sorted(self.lambda_cells, key=self.fill_rank.__getitem__)
        at = {c: i for i, c in enumerate(order)}
        due = [[] for _ in order]
        for c in order:
            if self.lambda_up[c]:
                due[max(map(at.__getitem__, self.lambda_up[c]))].append(c)
        return tuple(zip(order, map(tuple, due)))

    @cached_property
    def filled_up(self) -> dict:
        """Each filled cell c (an interval of length >= 2) mapped to the
        filled cells b strictly above it, as (b, via) pairs in which via is
        None when b covers c, and otherwise the first filled cover of c
        below b; the covers come first.  Cover lemma: such a via always
        exists, as the first step of a chain from c up to b covers c, and
        it is filled, as its intervals contain b's long one."""
        lam, table = self.lambda_set, {}
        for c in self.objects:
            if c not in lam:
                ups = [b for b in self.strict_up[c] if b not in lam]
                covers = [b for b in ups if self._total_length(c) - self._total_length(b) == 1]
                table[c] = tuple((b, None) for b in covers) + tuple(
                    (b, next(v for v in covers if (v, b) in self.order)) for b in ups if b not in covers
                )
        return table

    @cached_property
    def fill_order(self) -> tuple:
        """All cells by total interval length, then lexicographically: every
        cell comes after the cells strictly above it."""
        return tuple(sorted(self.objects, key=lambda a: (self._total_length(a), a)))

    @cached_property
    def lambda_search_order(self) -> tuple:
        """The Lambda cells for a search that meets each arrow soonest: the
        vertices in fill order, each followed, in fill order, by the cells
        whose Lambda up-set it completes.  Every cell still comes after the
        cells above it, and each arrow among the Lambda cells is reached as
        soon as its two ends are placed; fill order places every vertex
        first."""
        rank, up = self.fill_rank, self.lambda_up

        def key(c):
            return max((rank[b] for b in up[c] if not up[b]), default=rank[c]), rank[c]

        return tuple(sorted(self.lambda_cells, key=key))

    @cached_property
    def fill_rank(self) -> dict:
        """Each cell's position in fill_order, as a sort key."""
        return {a: r for r, a in enumerate(self.fill_order)}

    def arrows_among(self, nodes) -> tuple:
        """The pairs (a, b) of distinct nodes with a <= b, in node-list
        order."""
        key = ("arrows", tuple(nodes))
        pairs = self._memo.get(key)
        if pairs is None:
            order = self.order
            pairs = tuple(
                (a, b) for a in key[1] for b in key[1] if a != b and (a, b) in order
            )
            self._memo[key] = pairs
        return pairs

    def restriction(self, phis) -> tuple:
        """Pulling back along the poset map that one SimplexMap per
        direction induces out of this shape: (cell, image) pairs for the
        cells and ((a, b), (image of a, image of b)) pairs for the strict
        arrows, in object order."""
        if isinstance(phis, SimplexMap):
            phis = (phis,)
        key = ("restriction", tuple(phis))
        table = self._memo.get(key)
        if table is None:
            mapping = sigma_map(key[1], self)
            table = (
                tuple(mapping.items()),
                tuple(((a, b), (mapping[a], mapping[b])) for a, b in self.arrows_among(self.objects)),
            )
            self._memo[key] = table
        return table

    def edge(self, r: int, i: int) -> tuple:
        """The i-th edge in direction r: the shape with that arity collapsed
        to 1, and the inert simplex maps including it into this shape."""
        key = ("edge", r, i)
        piece = self._memo.get(key)
        if piece is None:
            arities = self.arities
            small = sigma_shape(tuple(1 if s == r else n for s, n in enumerate(arities)))
            phis = tuple(
                SimplexMap(1, n, (i - 1, i)) if s == r else SimplexMap.identity(n)
                for s, n in enumerate(arities)
            )
            piece = self._memo[key] = (small, phis)
        return piece

    def edge_lambda(self, r: int, i: int) -> tuple:
        """The i-th edge in direction r on its Lambda cells: the edge's
        shape, and restriction's tables for the inclusion cut down to the
        edge's Lambda cells and the arrows among them.  The inclusion
        sends (i - 1, i) to an interval of length one and is the identity
        in every other direction, so it sends each Lambda cell to a Lambda
        cell and distinct cells to distinct cells: the tables pull free
        data back to the free data of the edge piece."""
        key = ("edge lambda", r, i)
        table = self._memo.get(key)
        if table is None:
            small, phis = self.edge(r, i)
            cells, arrows = small.restriction(phis)
            lam = small.lambda_set
            table = self._memo[key] = (
                small,
                tuple(p for p in cells if p[0] in lam),
                tuple(p for p in arrows if lam.issuperset(p[0])),
            )
        return table

    def _total_length(self, a) -> int:
        return sum(j - i for i, j in a)

    def cover_relations(self):
        """Pairs (a, b) with b covering a (one interval shrunk by one)."""
        return [
            (a, b)
            for a, b in sorted(self.order)
            if self._total_length(a) - self._total_length(b) == 1
        ]

    def is_lambda_object(self, a) -> bool:
        return all(j - i <= 1 for i, j in a)

    def to_json(self) -> dict:
        index = {o: i for i, o in enumerate(self.objects)}
        return {
            "arities": list(self.arities),
            "objects": [[list(p) for p in o] for o in self.objects],
            "cover_relations": [[index[a], index[b]] for a, b in self.cover_relations()],
        }


@dataclass(frozen=True)
class LambdaShape:
    """The wide sub-poset of a SigmaShape on intervals of length <= 1,
    written as JSON by the same code as its parent shape."""

    parent: SigmaShape
    objects: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "objects", self.parent.lambda_cells)

    def leq(self, a, b) -> bool:
        return self.parent.leq(a, b)

    @property
    def arities(self) -> tuple:
        return self.parent.arities

    def cover_relations(self):
        return [
            (a, b)
            for a, b in self.parent.cover_relations()
            if self.parent.is_lambda_object(a) and self.parent.is_lambda_object(b)
        ]

    to_json = SigmaShape.to_json


# One shared SigmaShape per arity tuple, so its tables are built once per
# process.
_SHAPES: dict = {}


def sigma_shape(arities) -> SigmaShape:
    if isinstance(arities, int):
        arities = (arities,)
    arities = tuple(arities)
    shape = _SHAPES.get(arities)
    if shape is None:
        shape = _SHAPES.setdefault(arities, SigmaShape(arities))
    return shape


def lambda_shape(arities) -> LambdaShape:
    return LambdaShape(sigma_shape(arities))


def sigma_map(phis, source_shape: SigmaShape) -> dict:
    """Poset map induced by one SimplexMap per direction.

    A single SimplexMap is accepted for one-direction shapes.  Sends a tuple
    of intervals componentwise to ((phi(i), phi(j)), ...).
    """
    if isinstance(phis, SimplexMap):
        phis = (phis,)
    phis = tuple(phis)
    if len(phis) != source_shape.k:
        raise ShapeSpecError(
            f"{len(phis)} simplex maps for a {source_shape.k}-direction shape"
        )
    for phi, n in zip(phis, source_shape.arities):
        if phi.source_size != n:
            raise ShapeSpecError(
                f"simplex map source [{phi.source_size}] does not match arity {n}"
            )
    return {
        a: tuple((phi(i), phi(j)) for phi, (i, j) in zip(phis, a))
        for a in source_shape.objects
    }


def lambda_wedge_check(n: int) -> Verdict:
    """Compare the endpoint-glued chain of length-one shapes against the
    length-at-most-one sub-poset of the n-interval shape.

    Builds the strict pushout of n single-span posets glued at shared
    endpoints and searches no further than the evident candidate map; the
    verdict carries the witness isomorphism or the first mismatched cell.
    """
    if n < 1:
        raise ShapeSpecError("wedge comparison needs n >= 1")
    # Glued poset: vertices v_0..v_n, edges e_1..e_n, with e_t below v_{t-1}, v_t.
    glued = [("v", i) for i in range(n + 1)] + [("e", t) for t in range(1, n + 1)]

    def glued_leq(a, b):
        if a == b:
            return True
        if a[0] == "e" and b[0] == "v":
            return b[1] in (a[1] - 1, a[1])
        return False

    lam = lambda_shape((n,))
    witness = {("v", i): ((i, i),) for i in range(n + 1)}
    witness.update({("e", t): ((t - 1, t),) for t in range(1, n + 1)})

    if len(glued) != len(lam.objects):
        return Verdict.refuted(witness={"glued_size": len(glued), "lambda_size": len(lam.objects)})
    if set(witness.values()) != set(lam.objects):
        missing = sorted(set(lam.objects) - set(witness.values()))[0]
        return Verdict.refuted(witness={"unmatched_cell": missing})
    for a in glued:
        for b in glued:
            if glued_leq(a, b) != lam.leq(witness[a], witness[b]):
                return Verdict.refuted(witness={"mismatched_pair": (a, b)})
    return Verdict.verified(witness=witness, sizes=len(glued))
