"""Finite categories with explicit composition tables, plus the skeletal
category of finite sets.

Two base flavours share one duck-typed surface (objects_within, hom, compose,
identity, pullback, limit_of_diagram, ...):

* FinCategory — explicit object/morphism tables; limits by exhaustive cone
  search with a universality check.  Suitable for user-supplied bases up to
  the documented bounds (~40 objects, ~400 morphisms).
* FinSetCategory — the skeleton of finite sets.  max_size bounds what the
  enumeration APIs list, but composites and limits may produce larger sets;
  pullbacks and limits are the canonical subset-of-product in lexicographic
  order, so span composition is deterministic and reports reproducible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

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
        return [m for m in self.hom(x, y) if self.is_iso(m)]

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
        (node_a, node_b, morphism D(a) -> D(b)).  Raises NoLimitError."""
        nodes = sorted(node_obj)
        cones = [(x, legs) for x in self.objects for legs in self.cones(x, nodes, node_obj, arrows)]
        for apex, legs in cones:
            if all(
                len(self._factorizations(apex, legs, a2, l2, node_obj)) == 1
                for a2, l2 in cones
            ):
                return apex, legs
        raise NoLimitError(f"no universal cone over {nodes}")

    def cones(self, apex, nodes, node_obj, arrows):
        """All cones with the given apex over the diagram, as leg dicts
        keyed by nodes, in the product order of the hom lists."""
        def backtrack(i, legs):
            if i == len(nodes):
                yield dict(legs)
                return
            n = nodes[i]
            for leg in self.hom(apex, node_obj[n]):
                legs[n] = leg
                ok = True
                for a, b, m in arrows:
                    if a in legs and b in legs:
                        if self.composition[(m, legs[a])] != legs[b]:
                            ok = False
                            break
                if ok:
                    yield from backtrack(i + 1, legs)
            legs.pop(n, None)

        yield from backtrack(0, {})

    def _factorizations(self, lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
        return [
            h
            for h in self.hom(cone_apex, lim_apex)
            if all(self.composition[(lim_legs[n], h)] == cone_legs[n] for n in node_obj)
        ]

    def factor_through_limit(self, lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
        hs = self._factorizations(lim_apex, lim_legs, cone_apex, cone_legs, node_obj)
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


@dataclass(frozen=True, order=True)
class FinFunction:
    """A function {0..source-1} -> {0..target-1} as a value tuple; ordered
    lexicographically so enumerations sort deterministically.  The
    constructor trusts its arguments; values from outside the program go
    through FinFunction.checked."""

    source: int
    target: int
    values: tuple

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
    """

    def __init__(self, max_size: int):
        if max_size < 0:
            raise SpanlabError("max_size must be >= 0")
        self.max_size = max_size

    def objects_within(self, bound=None):
        b = self.max_size if bound is None else min(bound, self.max_size)
        return list(range(b + 1))

    def hom(self, x, y):
        return [FinFunction(x, y, vals) for vals in itertools.product(range(y), repeat=x)]

    def all_morphisms(self):
        return [
            m
            for x in self.objects_within()
            for y in self.objects_within()
            for m in self.hom(x, y)
        ]

    def src(self, m: FinFunction):
        return m.source

    def tgt(self, m: FinFunction):
        return m.target

    def identity(self, x):
        return FinFunction(x, x, tuple(range(x)))

    def compose(self, g: FinFunction, f: FinFunction) -> FinFunction:
        if f.target != g.source:
            raise SpanlabError("finite-set functions not composable")
        return FinFunction(f.source, g.target, tuple(g.values[v] for v in f.values))

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
        return [
            FinFunction(x, x, perm) for perm in itertools.permutations(range(x))
        ]

    def random_hom(self, x, y, rng):
        if y == 0:
            return FinFunction(0, 0, ()) if x == 0 else None
        return FinFunction(x, y, tuple(rng.randrange(y) for _ in range(x)))

    def pullback(self, f: FinFunction, g: FinFunction):
        """Canonical pullback of (f: A -> X, g: B -> X): pairs (a, b) with
        f(a) = g(b), in lexicographic order."""
        if f.target != g.target:
            raise SpanlabError("cospan legs must share a target")
        pairs = [
            (a, b)
            for a in range(f.source)
            for b in range(g.source)
            if f.values[a] == g.values[b]
        ]
        apex = len(pairs)
        p = FinFunction(apex, f.source, tuple(a for a, _ in pairs))
        q = FinFunction(apex, g.source, tuple(b for _, b in pairs))
        return apex, p, q

    def product(self, x, y):
        pairs = list(itertools.product(range(x), range(y)))
        apex = len(pairs)
        pr1 = FinFunction(apex, x, tuple(a for a, _ in pairs))
        pr2 = FinFunction(apex, y, tuple(b for _, b in pairs))
        return apex, pr1, pr2

    def terminal(self):
        return 1

    def limit_of_diagram(self, node_obj: dict, arrows):
        """Canonical limit: compatible tuples over sorted nodes, lex order.

        Backtracks node by node; a node whose value is forced by an arrow
        from an already-assigned node is not enumerated, so wide diagrams
        stay cheap."""
        nodes = sorted(node_obj)
        if not nodes:
            return 1, {}
        into = {n: [] for n in nodes}
        outof = {n: [] for n in nodes}
        for a, b, m in arrows:
            into[b].append((a, m))
            outof[a].append((b, m))
        tuples = []

        def backtrack(i, vals):
            if i == len(nodes):
                tuples.append(tuple(vals[n] for n in nodes))
                return
            n = nodes[i]
            forced = {m.values[vals[a]] for a, m in into[n] if a in vals}
            if len(forced) > 1:
                return
            candidates = forced if forced else range(node_obj[n])
            for v in candidates:
                if v >= node_obj[n]:
                    continue
                if any(
                    b in vals and m.values[v] != vals[b] for b, m in outof[n]
                ):
                    continue
                vals[n] = v
                backtrack(i + 1, vals)
                del vals[n]

        backtrack(0, {})
        apex = len(tuples)
        legs = {
            n: FinFunction(apex, node_obj[n], tuple(t[i] for t in tuples))
            for i, n in enumerate(nodes)
        }
        return apex, legs

    def factor_through_limit(self, lim_apex, lim_legs, cone_apex, cone_legs, node_obj):
        """The unique factorization of a cone through the canonical limit."""
        nodes = sorted(node_obj)
        index = {}
        for i in range(lim_apex):
            index[tuple(lim_legs[n].values[i] for n in nodes)] = i
        try:
            vals = tuple(
                index[tuple(cone_legs[n].values[j] for n in nodes)]
                for j in range(cone_apex)
            )
        except KeyError as exc:
            raise NoLimitError("cone does not factor through the limit") from exc
        return FinFunction(cone_apex, lim_apex, vals)

    def validate(self) -> Verdict:
        return Verdict.verified()


# ---------------------------------------------------------------------------
# derived constructions


def slice_over_pair(C, X, Y, bound=None):
    """The category of objects over the product X x Y.

    Objects are pairs (A, h: A -> XxY); morphisms are maps u: A -> A' with
    h' . u = h.  For the finite-set base, bound limits the sizes of A
    (defaults to the base's max_size).
    """
    P, _, _ = C.product(X, Y)
    objs = []
    for A in C.objects_within(bound):
        for h in C.hom(A, P):
            objs.append((A, h))
    morphs = {}
    ident = {}
    comp = {}
    for (A, h) in objs:
        for (A2, h2) in objs:
            for u in C.hom(A, A2):
                if C.compose(h2, u) == h:
                    morphs[((A, h), (A2, h2), u)] = ((A, h), (A2, h2))
    for (A, h) in objs:
        ident[(A, h)] = ((A, h), (A, h), C.identity(A))
    for gl, (gs, gt) in morphs.items():
        for fl, (fs, ft) in morphs.items():
            if ft == gs:
                comp[(gl, fl)] = (fs, gt, C.compose(gl[2], fl[2]))
    return FinCategory(objs, morphs, ident, comp)


def core(C, bound=None):
    """The groupoid of isomorphisms of C (restricted to objects_within(bound)
    for lazily enumerated bases)."""
    from .groupoid import FinGroupoid

    return FinGroupoid(C.objects_within(bound), C.isos, C.compose, C.inverse, C.identity)


def finset(max_size: int) -> FinSetCategory:
    return FinSetCategory(max_size)
