"""Finite categories with explicit composition tables, the skeletal
category of finite sets, and lazy slices of either.

The bases share one duck-typed surface:

    objects_within, hom, isos, src, tgt, identity, compose, commutes,
    is_iso, inverse, is_initial, random_hom, limit_of_diagram,
    factor_through_limit

commutes(g, f, k, h) asks whether the square g . f = k . h commutes
without building either composite; on a non-composable pair it raises, as
compose does.  is_initial(x) is true only when x has exactly one morphism
to every object of the base, listed within a bound or not.  The table and
finite-set bases add pullback, product and terminal; the table base and
the slice add cones.

* FinCategory — explicit object/morphism tables; limits by exhaustive cone
  search with a universality check.  The cones of an apex grow as rows of
  legs, one node at a time, each step filtered by the arrows whose later
  end it places; those tests are compiled once per diagram topology
  (_cone_plan).  Suitable for user-supplied bases up to the documented
  bounds (~40 objects, ~400 morphisms).
* FinSetCategory — the skeleton of finite sets.  max_size bounds what the
  enumeration APIs list, but composites and limits may produce larger sets;
  pullbacks and limits are the canonical subset-of-product in lexicographic
  order, so span composition is deterministic and reports reproducible.
* SliceCategory — a slice C/P computed from C on demand, with C's limits.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import itemgetter

from .verdict import NoLimitError, SpanlabError, Verdict


# ---------------------------------------------------------------------------
# explicit finite categories


class FinCategory:
    def __init__(self, objects, morphisms, identities, composition):
        """morphisms: label -> (src, tgt); identities: obj -> label;
        composition: (g, f) -> label for tgt(f) = src(g)."""
        self.objects = list(objects)
        self.morphisms = dict(morphisms)
        self.identities = dict(identities)
        self.composition = dict(composition)
        self._hom = {}
        self._isos = {}
        for m, (s, t) in self.morphisms.items():
            self._hom.setdefault((s, t), []).append(m)

    def src(self, m):
        return self.morphisms[m][0]

    def tgt(self, m):
        return self.morphisms[m][1]

    def identity(self, x):
        return self.identities[x]

    def compose(self, g, f):
        return self.composition[(g, f)]

    def commutes(self, g, f, k, h):
        return self.composition[(g, f)] == self.composition[(k, h)]

    def hom(self, x, y):
        return list(self._hom.get((x, y), []))

    def objects_within(self, bound=None):
        return list(self.objects)

    def all_morphisms(self):
        return list(self.morphisms)

    def is_iso(self, m):
        return self.inverse(m) is not None

    def inverse(self, m):
        s, t = self.morphisms[m]
        for n in self.hom(t, s):
            if (
                self.composition.get((n, m)) == self.identities[s]
                and self.composition.get((m, n)) == self.identities[t]
            ):
                return n
        return None

    def isos(self, x, y):
        fs = self._isos.get((x, y))
        if fs is None:
            fs = self._isos[(x, y)] = [m for m in self.hom(x, y) if self.is_iso(m)]
        return list(fs)

    def is_initial(self, x):
        return all(len(self._hom.get((x, y), ())) == 1 for y in self.objects)

    def random_hom(self, x, y, rng):
        homs = self.hom(x, y)
        return rng.choice(homs) if homs else None

    # -- validation

    def validate(self) -> Verdict:
        for m, (s, t) in self.morphisms.items():
            if s not in self.objects or t not in self.objects:
                return Verdict.refuted(witness={"morphism": m, "reason": "dangling endpoint"})
        for x in self.objects:
            i = self.identities.get(x)
            if i is None or self.morphisms.get(i) != (x, x):
                return Verdict.refuted(witness={"object": x, "reason": "bad identity"})
        for g, (gs, gt) in self.morphisms.items():
            for f, (fs, ft) in self.morphisms.items():
                comp = self.composition.get((g, f))
                if ft == gs:
                    if comp is None:
                        return Verdict.refuted(witness={"pair": (g, f), "reason": "missing composite"})
                    if self.morphisms.get(comp) != (fs, gt):
                        return Verdict.refuted(witness={"pair": (g, f), "reason": "wrong-typed composite"})
                elif comp is not None:
                    return Verdict.refuted(witness={"pair": (g, f), "reason": "composite of non-composable"})
        for f in self.morphisms:
            s, t = self.morphisms[f]
            if self.composition[(f, self.identities[s])] != f:
                return Verdict.refuted(witness={"morphism": f, "reason": "right unit law"})
            if self.composition[(self.identities[t], f)] != f:
                return Verdict.refuted(witness={"morphism": f, "reason": "left unit law"})
        for h in self.morphisms:
            for g in self._hom_into(self.src(h)):
                hg = self.composition[(h, g)]
                for f in self._hom_into(self.src(g)):
                    if self.composition[(hg, f)] != self.composition[
                        (h, self.composition[(g, f)])
                    ]:
                        return Verdict.refuted(witness={"triple": (h, g, f), "reason": "associativity"})
        return Verdict.verified()

    def _hom_into(self, x):
        return [m for m, (s, t) in self.morphisms.items() if t == x]

    # -- limits by cone search

    def limit_of_diagram(self, node_obj: dict, arrows):
        """Universal cone over the diagram; arrows is a list of
        (node_a, node_b, morphism D(a) -> D(b)).  The cones of every apex,
        in object order, are rows of legs over the sorted nodes
        (_cone_rows); the first that every cone factors through exactly
        once is the limit.  An object with no morphism to some node's object
        is the apex of no cone and is skipped.  Raises NoLimitError."""
        nodes = sorted(node_obj)
        steps = _cone_steps(nodes, node_obj, arrows)
        comp, hom = self.composition, self._hom
        targets = set(node_obj.values())
        cones = [
            (x, row)
            for x in self.objects
            if all((x, y) in hom for y in targets)
            for row in self._cone_rows(x, steps)
        ]
        for apex, legs in cones:
            if all(
                sum(all(comp[(leg, h)] == m for leg, m in zip(legs, row)) for h in hom.get((x, apex), ())) == 1
                for x, row in cones
            ):
                return apex, dict(zip(nodes, legs))
        raise NoLimitError(f"no universal cone over {nodes}")

    def cones(self, apex, nodes, node_obj, arrows):
        """All cones with the given apex over the diagram, as leg dicts
        keyed by nodes, in the product order of the hom lists."""
        rows = self._cone_rows(apex, _cone_steps(nodes, node_obj, arrows))
        return [dict(zip(nodes, row)) for row in rows]

    def _cone_rows(self, apex, steps):
        """The cones with the given apex as rows of legs, grown one node at
        a time over the steps of _cone_steps: each row is extended by every
        leg in hom(apex, D(n)), in hom-list order, and the rows are then
        filtered by each arrow whose later end is n.  Extension and the
        filters keep order, so the rows come in the product order of the
        hom lists, as a backtracking search over the nodes lists them."""
        comp, hom = self.composition, self._hom
        rows = [()]
        for x, tests in steps:
            legs = hom.get((apex, x), ())
            rows = [row + (leg,) for row in rows for leg in legs]
            for m, j, k in tests:
                rows = [r for r in rows if comp[(m, r[j])] == r[k]]
            if not rows:
                break
        return rows

    def factor_through_limit(self, lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
        comp = self.composition
        hs = [
            h
            for h in self._hom.get((cone_apex, lim_apex), ())
            if all(comp[(lim_legs[n], h)] == cone_legs[n] for n in node_obj)
        ]
        if len(hs) != 1:
            raise NoLimitError(
                f"{len(hs)} factorizations through claimed limit apex {lim_apex}"
            )
        return hs[0]

    def pullback(self, f, g):
        """Canonical pullback of the cospan (f: A -> X, g: B -> X)."""
        if self.tgt(f) != self.tgt(g):
            raise SpanlabError("cospan legs must share a target")
        node_obj = {"A": self.src(f), "B": self.src(g), "X": self.tgt(f)}
        arrows = [("A", "X", f), ("B", "X", g)]
        apex, legs = self.limit_of_diagram(node_obj, arrows)
        return apex, legs["A"], legs["B"]

    def product(self, x, y):
        node_obj = {"L": x, "R": y}
        apex, legs = self.limit_of_diagram(node_obj, [])
        return apex, legs["L"], legs["R"]

    def terminal(self):
        apex, _ = self.limit_of_diagram({}, [])
        return apex

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"id": m, "src": s, "tgt": t} for m, (s, t) in self.morphisms.items()
            ],
            "identities": dict(self.identities),
            "compose": [[g, f, h] for (g, f), h in self.composition.items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FinCategory":
        try:
            # a JSON list or object is no label: tables key on labels
            labels = [
                *data["objects"],
                *[m[k] for m in data["morphisms"] for k in ("id", "src", "tgt")],
                *dict(data["identities"]).values(),
                *[x for entry in data["compose"] for x in entry],
            ]
            unhashable = [x for x in labels if isinstance(x, (list, dict))]
            if unhashable:
                raise SpanlabError(
                    f"malformed category JSON: {unhashable[0]!r} cannot label an object or a morphism"
                )
            for what, keys in (
                ("object label", [str(x) for x in data["objects"]]),
                ("morphism id", [m["id"] for m in data["morphisms"]]),
                ("composite", [(g, f) for g, f, _ in data["compose"]]),
            ):
                repeated = [k for k, n in Counter(keys).items() if n > 1]
                if repeated:
                    raise SpanlabError(f"malformed category JSON: repeated {what} {repeated[0]!r}")
            morphisms = {m["id"]: (m["src"], m["tgt"]) for m in data["morphisms"]}
            # JSON object keys are strings: key each identity by the object
            # whose label it spells, so integer-labelled objects find theirs.
            by_label = {str(x): x for x in data["objects"]}
            identities = {by_label.get(str(k), k): i for k, i in dict(data["identities"]).items()}
            return cls(
                data["objects"],
                morphisms,
                identities,
                {(g, f): h for g, f, h in data["compose"]},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpanlabError(f"malformed category JSON: {exc}") from exc


def _cone_steps(nodes, node_obj, arrows):
    """The steps of FinCategory._cone_rows over a diagram, one per node in
    the given order: the node's object and its arrow tests (m, j, k),
    comp(m, row[j]) == row[k] on the grown row, read off _cone_plan."""
    plan = _cone_plan(tuple(nodes), tuple([(a, b) for a, b, _ in arrows]))
    return [
        (node_obj[n], [(arrows[i][2], j, k) for i, j, k in tests])
        for n, tests in zip(nodes, plan)
    ]


@functools.cache
def _cone_plan(nodes, ends):
    """The arrow tests of _cone_steps for one diagram topology: nodes in
    the order the rows grow and ends the (a, b) of each arrow, by index.
    One tuple of tests per node: arrow i is tested as (i, j, k) on the
    grown row, row[k] == m_i . row[j], at the later of its two ends; an
    arrow with an end outside nodes is never tested.  Memoised for the
    life of the process, one entry per topology, as _limit_plan is."""
    at = {n: i for i, n in enumerate(nodes)}
    tests = [[] for _ in nodes]
    for i, (a, b) in enumerate(ends):
        if a in at and b in at:
            tests[max(at[a], at[b])].append((i, at[a], at[b]))
    return tuple(map(tuple, tests))


# ---------------------------------------------------------------------------
# functors


class Functor:
    """A functor given by two functions, on_obj on objects and on_mor on
    morphisms; a morphism on which on_mor returns None is unmapped."""

    def __init__(self, source, target, on_obj, on_mor):
        self.source = source
        self.target = target
        self.on_obj = on_obj
        self.on_mor = on_mor

    def validate(self) -> Verdict:
        S, T, F = self.source, self.target, self.on_mor
        for m in S.all_morphisms():
            fm = F(m)
            if fm is None:
                return Verdict.refuted(witness={"morphism": m, "reason": "unmapped"})
            if (T.src(fm), T.tgt(fm)) != (self.on_obj(S.src(m)), self.on_obj(S.tgt(m))):
                return Verdict.refuted(witness={"morphism": m, "reason": "endpoints not preserved"})
        for x in S.objects:
            if F(S.identity(x)) != T.identity(self.on_obj(x)):
                return Verdict.refuted(witness={"object": x, "reason": "identity not preserved"})
        for g in S.all_morphisms():
            for f in S.all_morphisms():
                if S.tgt(f) == S.src(g):
                    if F(S.compose(g, f)) != T.compose(F(g), F(f)):
                        return Verdict.refuted(witness={"pair": (g, f), "reason": "composition"})
        return Verdict.verified()


# ---------------------------------------------------------------------------
# the skeletal category of finite sets


class FinFunction:
    """A function {0..source-1} -> {0..target-1} as a value tuple.

    A slotted value class, immutable by convention: no code assigns to
    source, target or values after construction.  Two functions are equal
    when their (source, target, values) triples are, hash as that triple,
    and order lexicographically by it, so enumerations sort
    deterministically.  The constructor trusts its arguments; values from
    outside the program go through FinFunction.checked."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: int, target: int, values: tuple):
        self.source = source
        self.target = target
        self.values = values

    def __eq__(self, other):
        if other.__class__ is not FinFunction:
            return NotImplemented
        return self.values == other.values and self.source == other.source and self.target == other.target

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __lt__(self, other):
        if other.__class__ is not FinFunction:
            return NotImplemented
        return (self.source, self.target, self.values) < (other.source, other.target, other.values)

    def __le__(self, other):
        if other.__class__ is not FinFunction:
            return NotImplemented
        return (self.source, self.target, self.values) <= (other.source, other.target, other.values)

    def __gt__(self, other):
        if other.__class__ is not FinFunction:
            return NotImplemented
        return (self.source, self.target, self.values) > (other.source, other.target, other.values)

    def __ge__(self, other):
        if other.__class__ is not FinFunction:
            return NotImplemented
        return (self.source, self.target, self.values) >= (other.source, other.target, other.values)

    def __repr__(self):
        return f"FinFunction(source={self.source!r}, target={self.target!r}, values={self.values!r})"

    @classmethod
    def checked(cls, source, target, values) -> "FinFunction":
        """The function with these values, or SpanlabError unless the sizes
        are ints >= 0 and values a list of source ints in range(target)."""
        if not all(type(n) is int and n >= 0 for n in (source, target)):
            raise SpanlabError(f"finite-set sizes must be integers >= 0, got {source!r}, {target!r}")
        if not isinstance(values, (list, tuple)) or len(values) != source:
            raise SpanlabError(f"expected a list of {source} function values, got {values!r}")
        if not all(type(v) is int and 0 <= v < target for v in values):
            raise SpanlabError(f"function values must be integers in range({target}), got {values!r}")
        return cls(source, target, tuple(values))

    def __call__(self, i: int) -> int:
        return self.values[i]

    @property
    def is_bijection(self) -> bool:
        return self.source == self.target and len(set(self.values)) == self.source


class FinSetCategory:
    """Skeletal finite sets; objects are natural numbers n = {0..n-1}.

    max_size only bounds enumeration (objects_within, hom listings used by
    level builders); composition, pullbacks and limits are total and may
    return sets larger than max_size.

    hom(x, y) and isos(x, x) are built once per base and size pair; each
    call returns a fresh list of the shared, immutable functions.
    """

    def __init__(self, max_size: int):
        if max_size < 0:
            raise SpanlabError("max_size must be >= 0")
        self.max_size = max_size
        self._homs = {}
        self._isos = {}

    def objects_within(self, bound=None):
        b = self.max_size if bound is None else min(bound, self.max_size)
        return list(range(b + 1))

    def hom(self, x, y):
        fs = self._homs.get((x, y))
        if fs is None:
            fs = self._homs[(x, y)] = [FinFunction(x, y, vals) for vals in itertools.product(range(y), repeat=x)]
        return list(fs)

    def src(self, m: FinFunction):
        return m.source

    def tgt(self, m: FinFunction):
        return m.target

    def identity(self, x):
        return FinFunction(x, x, tuple(range(x)))

    def compose(self, g: FinFunction, f: FinFunction) -> FinFunction:
        if f.target != g.source:
            raise SpanlabError("finite-set functions not composable")
        gv = g.values
        # tuple() sizes a list once, but guesses and resizes for a generator
        return FinFunction(f.source, g.target, tuple([gv[v] for v in f.values]))

    def commutes(self, g: FinFunction, f: FinFunction, k: FinFunction, h: FinFunction) -> bool:
        """compose(g, f) == compose(k, h), compared on the value lists."""
        if f.target != g.source or h.target != k.source:
            raise SpanlabError("finite-set functions not composable")
        if f.source != h.source or g.target != k.target:
            return False
        gv, kv = g.values, k.values
        return [gv[v] for v in f.values] == [kv[v] for v in h.values]

    def is_iso(self, m: FinFunction) -> bool:
        return m.is_bijection

    def inverse(self, m: FinFunction):
        if not m.is_bijection:
            return None
        inv = [0] * m.target
        for i, v in enumerate(m.values):
            inv[v] = i
        return FinFunction(m.target, m.source, tuple(inv))

    def isos(self, x, y):
        if x != y:
            return []
        fs = self._isos.get(x)
        if fs is None:
            fs = self._isos[x] = [FinFunction(x, x, perm) for perm in itertools.permutations(range(x))]
        return list(fs)

    def is_initial(self, x):
        return x == 0

    def random_hom(self, x, y, rng):
        if y == 0:
            return FinFunction(0, 0, ()) if x == 0 else None
        return FinFunction(x, y, tuple(rng.randrange(y) for _ in range(x)))

    def pullback(self, f: FinFunction, g: FinFunction):
        """Canonical pullback of (f: A -> X, g: B -> X): pairs (a, b) with
        f(a) = g(b), in lexicographic order."""
        if f.target != g.target:
            raise SpanlabError("cospan legs must share a target")
        fibers = {}  # x -> the points b with g(b) = x, in order
        for b, x in enumerate(g.values):
            fibers.setdefault(x, []).append(b)
        ps, qs = [], []
        for a, x in enumerate(f.values):
            bs = fibers.get(x)
            if bs:
                ps += [a] * len(bs)
                qs += bs
        apex = len(ps)
        return apex, FinFunction(apex, f.source, tuple(ps)), FinFunction(apex, g.source, tuple(qs))

    def product(self, x, y):
        pairs = list(itertools.product(range(x), range(y)))
        apex = len(pairs)
        pr1 = FinFunction(apex, x, tuple(a for a, _ in pairs))
        pr2 = FinFunction(apex, y, tuple(b for _, b in pairs))
        return apex, pr1, pr2

    def terminal(self):
        return 1

    def limit_of_diagram(self, node_obj: dict, arrows):
        """Canonical limit: the tuples over the sorted nodes that every
        arrow (a, b, m) satisfies, m(t[a]) = t[b], in lexicographic order;
        leg n is coordinate n.  A self-loop (a, a, m) keeps the points that
        m fixes.

        If a node is empty, so is the limit.  Otherwise the rows grow one
        node at a time in root-first order (_root_first_order): every node
        that is not a root is then placed after a node with an arrow into
        it, so its value is forced instead of enumerated.  Each step tests
        the new value against every arrow between the node and the nodes
        placed so far, its own self-loops included, one filter per arrow.

        Each step extends the rows in order, a row's values ascending, and
        filters keep order, so the rows stay lexicographic in the order
        they were grown in.  When that order is the sorted one they are the
        limit's tuples as they stand; otherwise each row is put back in
        sorted-node order and the rows are sorted.

        All of this but the sizes and the arrows' values depends only on
        the diagram's topology, the node names and the (a, b) ends of the
        arrows, so it is compiled once per topology (_limit_plan) and each
        call reads the sizes and values into the compiled steps."""
        nodes, steps, regroup = _limit_plan(tuple(node_obj), tuple([(a, b) for a, b, _ in arrows]))
        if 0 in node_obj.values():
            return 0, {n: FinFunction(0, node_obj[n], ()) for n in nodes}
        rows = [()]
        for n, forcing, filters in steps:
            if forcing:
                i, j = forcing
                f = arrows[i][2].values
                rows = [row + (f[row[j]],) for row in rows]
            else:
                points = [(v,) for v in range(node_obj[n])]
                rows = [row + p for row in rows for p in points]
            for i, j, k in filters:
                g = arrows[i][2].values
                rows = [r for r in rows if g[r[j]] == r[k]]
        if regroup:
            rows = sorted(map(regroup, rows))
        apex = len(rows)
        columns = list(zip(*rows)) or [()] * len(nodes)
        legs = {n: FinFunction(apex, node_obj[n], col) for n, col in zip(nodes, columns)}
        return apex, legs

    def factor_through_limit(self, lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
        """The unique factorization of a cone through the canonical limit:
        each cone row, read across the sorted nodes' legs, is looked up
        among the limit's rows."""
        nodes = sorted(node_obj)
        if nodes:
            lim_rows = zip(*[lim_legs[n].values for n in nodes])
            cone_rows = zip(*[cone_legs[n].values for n in nodes])
        else:  # zip() of no columns has no rows; each row is ()
            lim_rows, cone_rows = [()] * lim_apex, [()] * cone_apex
        index = {row: i for i, row in enumerate(lim_rows)}
        try:
            vals = tuple([index[row] for row in cone_rows])
        except KeyError as exc:
            raise NoLimitError("cone does not factor through the limit") from exc
        return FinFunction(cone_apex, lim_apex, vals)

    def validate(self) -> Verdict:
        return Verdict.verified()


@functools.cache
def _limit_plan(node_names, ends):
    """The compiled steps of FinSetCategory.limit_of_diagram for one
    diagram topology: node_names in the diagram's insertion order and ends
    the (a, b) of each arrow, by index.  Returns (nodes, steps, regroup):

    * nodes, sorted, as a tuple: the plan is shared by every call;
    * steps, one (node, forcing, filters) per node in root-first order.
      Each arrow i is tested where its later end is placed, as (i, j, k)
      on the grown row, row[k] = values_i[row[j]]; the first arrow into the
      node from an earlier one, (i, j), forces the node's value instead;
    * regroup, an itemgetter that puts a grown row back in sorted-node
      order, or None when root-first order is the sorted one.

    Memoised for the life of the process, one entry per topology, of
    which a request asks for few: certify adjoint for two, its chain and
    collapse diagrams, and segal_check(finset(2), (2,)) for three."""
    nodes = sorted(node_names)
    order = _root_first_order(nodes, ends)
    at = {n: i for i, n in enumerate(order)}
    tests = [[] for _ in order]
    for i, (a, b) in enumerate(ends):
        tests[max(at[a], at[b])].append((i, at[a], at[b]))
    steps = []
    for n, here in zip(order, tests):
        forcing = next((t for t in here if t[1] < t[2]), None)
        if forcing:
            here.remove(forcing)
            forcing = forcing[:2]
        steps.append((n, forcing, tuple(here)))
    # two or more nodes when the orders differ, so itemgetter gives tuples
    regroup = None if order == nodes else itemgetter(*[at[n] for n in nodes])
    return tuple(nodes), tuple(steps), regroup


def _root_first_order(nodes, arrows):
    """The sorted nodes reordered so that each root (a node with no arrow
    in from another node), in sorted order, comes before the nodes its
    arrows reach, breadth first.  Nodes on a cycle that no root reaches
    come last, each unplaced one in sorted order followed by what it
    reaches.  Only the ends (a, b) of each arrow are read, so arrows may
    be (a, b, m) triples or (a, b) pairs."""
    out = {n: [] for n in nodes}
    has_in = set()
    for a, b, *_ in arrows:
        if a != b:
            out[a].append(b)
            has_in.add(b)
    order, seen = [], set()
    for start in [n for n in nodes if n not in has_in] + nodes:
        if start in seen:
            continue
        seen.add(start)
        order.append(start)
        i = len(order) - 1
        while i < len(order):
            for b in out[order[i]]:
                if b not in seen:
                    seen.add(b)
                    order.append(b)
            i += 1
    return order


# ---------------------------------------------------------------------------
# derived constructions


class _First:
    """A diagram node that sorts before every other node."""

    def __lt__(self, other):
        return self is not other

    def __gt__(self, other):
        return False


_OVER = _First()


class SliceCategory:
    """The slice C/P, lazily: objects (A, h: A -> P) for A in
    C.objects_within(bound), morphisms (a, b, u) with h_b . u = h_a.  All
    else is C's; limits, factorizations and cones are taken with P added as
    a terminal node that sorts first, so on finite sets the apex's map to P
    is sorted, as in the first universal cone a table search finds."""

    def __init__(self, C, P):
        self.C, self.P = C, P

    def objects_within(self, bound=None):
        return [(A, h) for A in self.C.objects_within(bound) for h in self.C.hom(A, self.P)]

    def hom(self, a, b):
        return [(a, b, u) for u in self.C.hom(a[0], b[0]) if self.C.compose(b[1], u) == a[1]]

    def isos(self, a, b):
        return [(a, b, u) for u in self.C.isos(a[0], b[0]) if self.C.compose(b[1], u) == a[1]]

    def src(self, m):
        return m[0]

    def tgt(self, m):
        return m[1]

    def identity(self, a):
        return a, a, self.C.identity(a[0])

    def compose(self, g, f):
        return f[0], g[1], self.C.compose(g[2], f[2])

    def commutes(self, g, f, k, h):
        return f[0] == h[0] and g[1] == k[1] and self.C.commutes(g[2], f[2], k[2], h[2])

    def is_iso(self, m):
        return self.C.is_iso(m[2])

    def inverse(self, m):
        u = self.C.inverse(m[2])
        return None if u is None else (m[1], m[0], u)

    def is_initial(self, a):
        """(A, h) is initial when A is initial in C, as the one morphism
        from A to B commutes over P.  Over finite sets no other object is
        initial; over a table base this test can miss one."""
        return self.C.is_initial(a[0])

    def random_hom(self, x, y, rng):
        homs = self.hom(x, y)
        return rng.choice(homs) if homs else None

    def _in_base(self, node_obj, arrows):
        """The diagram in C with P adjoined as a terminal node."""
        objs = {_OVER: self.P, **{n: a[0] for n, a in node_obj.items()}}
        return objs, [(a, b, m[2]) for a, b, m in arrows] + [(n, _OVER, a[1]) for n, a in node_obj.items()]

    def limit_of_diagram(self, node_obj, arrows):
        apex, legs = self.C.limit_of_diagram(*self._in_base(node_obj, arrows))
        lim = apex, legs.pop(_OVER)
        return lim, {n: (lim, node_obj[n], u) for n, u in legs.items()}

    def factor_through_limit(self, lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
        lim = {_OVER: lim_apex[1], **{n: m[2] for n, m in lim_legs.items()}}
        cone = {_OVER: cone_apex[1], **{n: m[2] for n, m in cone_legs.items()}}
        u = self.C.factor_through_limit(lim_apex[0], lim, cone_apex[0], cone, self._in_base(node_obj, ())[0])
        return cone_apex, lim_apex, u

    def cones(self, apex, nodes, node_obj, arrows):
        over = self.C.cones(apex[0], [_OVER, *nodes], *self._in_base(node_obj, arrows))
        return ({n: (apex, node_obj[n], legs[n]) for n in nodes} for legs in over if legs[_OVER] == apex[1])


def slice_over_pair(C, X, Y):
    """The slice of C over the product X x Y."""
    return SliceCategory(C, C.product(X, Y)[0])


def core(C, bound=None):
    """The groupoid of isomorphisms of C (restricted to objects_within(bound)
    for lazily enumerated bases)."""
    from .groupoid import FinGroupoid

    return FinGroupoid(C.objects_within(bound), C.isos, C.compose, C.inverse, C.identity)


def finset(max_size: int) -> FinSetCategory:
    return FinSetCategory(max_size)
