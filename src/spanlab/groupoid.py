"""Finite groupoids and the comparisons between them.

Groupoids stand in for spaces throughout: every level of a span construction
is a finite groupoid, and every verdict ultimately reduces to deciding
whether some functor of groupoids is an equivalence.  Homotopy pullbacks are
always the iso-comma construction, never the strict pullback, except where a
design note shows they agree (discrete cospan target).
"""
from __future__ import annotations

import itertools

from .fincat import FinCategory, Functor
from .verdict import SpanlabError, Verdict

GROUP_ISO_BOUND = 24  # brute-force bijection search cap


class FinGroupoid:
    """A finite category in which every morphism is invertible."""

    def __init__(self, category: FinCategory, inverse: dict):
        self.category = category
        self.inverse_table = dict(inverse)

    # delegate the category surface
    @property
    def objects(self):
        return self.category.objects

    def all_morphisms(self):
        return self.category.all_morphisms()

    def src(self, m):
        return self.category.src(m)

    def tgt(self, m):
        return self.category.tgt(m)

    def identity(self, x):
        return self.category.identity(x)

    def compose(self, g, f):
        return self.category.compose(g, f)

    def hom(self, x, y):
        return self.category.hom(x, y)

    def inverse(self, m):
        return self.inverse_table[m]

    def validate(self) -> Verdict:
        v = self.category.validate()
        if not v:
            return v
        for m in self.category.all_morphisms():
            n = self.inverse_table.get(m)
            s, t = self.category.src(m), self.category.tgt(m)
            if n is None:
                return Verdict.refuted(witness={"morphism": m, "reason": "no inverse listed"})
            if (
                self.category.compose(n, m) != self.category.identity(s)
                or self.category.compose(m, n) != self.category.identity(t)
            ):
                return Verdict.refuted(witness={"morphism": m, "reason": "inverse law fails"})
        return Verdict.verified()

    # connectivity

    def _adjacency(self):
        adj = {repr(x): set() for x in self.objects}
        for m in self.category.all_morphisms():
            s, t = repr(self.src(m)), repr(self.tgt(m))
            adj[s].add(t)
            adj[t].add(s)
        return adj

    def components(self):
        by_key = {repr(x): x for x in self.objects}
        adj = self._adjacency()
        seen = set()
        out = []
        for x in self.objects:
            k = repr(x)
            if k in seen:
                continue
            comp, frontier = {k}, [k]
            while frontier:
                y = frontier.pop()
                for z in adj[y]:
                    if z not in comp:
                        comp.add(z)
                        frontier.append(z)
            seen |= comp
            out.append(sorted((by_key[c] for c in comp), key=repr))
        return out

    def aut(self, x):
        return self.hom(x, x)

    def to_json(self) -> dict:
        data = self.category.to_json()
        data["inverse"] = {repr(m): self.inverse_table[m] for m in self.inverse_table}
        return data


def discrete_groupoid(labels) -> FinGroupoid:
    labels = list(labels)
    morphs = {("id", x): (x, x) for x in labels}
    ident = {x: ("id", x) for x in labels}
    comp = {(("id", x), ("id", x)): ("id", x) for x in labels}
    inv = {("id", x): ("id", x) for x in labels}
    return FinGroupoid(FinCategory(labels, morphs, ident, comp), inv)


def one_object_group(elements, mul, unit, inv) -> FinGroupoid:
    """Deloop a finite group given by tables: one object '*', one morphism
    per element."""
    morphs = {g: ("*", "*") for g in elements}
    comp = {(g, f): mul[(g, f)] for g in elements for f in elements}
    return FinGroupoid(
        FinCategory(["*"], morphs, {"*": unit}, comp), {g: inv[g] for g in elements}
    )


def cyclic_group_groupoid(n: int) -> FinGroupoid:
    els = list(range(n))
    mul = {(g, f): (g + f) % n for g in els for f in els}
    return one_object_group(els, mul, 0, {g: (-g) % n for g in els})


# ---------------------------------------------------------------------------
# equivalence of groupoids


def equivalent(F: Functor) -> Verdict:
    """Decide whether F is an equivalence: essentially surjective plus a
    bijection on every hom-set.  The witness is a quasi-inverse on component
    representatives when true, a violating object or hom-pair when false."""
    A, B = F.source, F.target
    for x in A.objects:
        for y in A.objects:
            dom = A.hom(x, y)
            cod = B.hom(F.on_obj(x), F.on_obj(y))
            image = [F.on_mor(m) for m in dom]
            if len(set(map(repr, image))) != len(dom):
                return Verdict.refuted(
                    witness={"pair": (x, y), "reason": "not faithful"}
                )
            if len(dom) != len(cod):
                return Verdict.refuted(
                    witness={
                        "pair": (x, y),
                        "reason": "hom sizes differ",
                        "sizes": (len(dom), len(cod)),
                    }
                )
    hit = {}
    for b in B.objects:
        found = None
        for x in A.objects:
            isos = [m for m in B.hom(F.on_obj(x), b)]
            if isos:
                found = (x, isos[0])
                break
        if found is None:
            return Verdict.refuted(witness={"object": b, "reason": "not in essential image"})
        hit[b] = found
    return Verdict.verified(witness={"quasi_inverse": hit})


def _multiplication_table(G: FinGroupoid, x):
    els = G.aut(x)
    return els, {(g, f): G.compose(g, f) for g in els for f in els}


def groups_isomorphic(els1, mul1, unit1, els2, mul2, unit2) -> bool:
    """Brute-force bijection search, pruned by fixing the unit and by
    element orders; bounded to GROUP_ISO_BOUND."""
    if len(els1) != len(els2):
        return False
    if len(els1) > GROUP_ISO_BOUND:
        raise SpanlabError(f"group order {len(els1)} exceeds the search bound")

    def order(e, mul, unit):
        n, acc = 1, e
        while acc != unit:
            acc = mul[(acc, e)]
            n += 1
        return n

    ord1 = {e: order(e, mul1, unit1) for e in els1}
    ord2 = {e: order(e, mul2, unit2) for e in els2}
    if sorted(ord1.values()) != sorted(ord2.values()):
        return False

    rest = [e for e in els1 if e != unit1]

    def backtrack(i, phi, used):
        if i == len(rest):
            return all(
                phi[mul1[(g, f)]] == mul2[(phi[g], phi[f])]
                for g in els1
                for f in els1
            )
        g = rest[i]
        for h in els2:
            if h in used or ord2[h] != ord1[g]:
                continue
            phi[g] = h
            if backtrack(i + 1, phi, used | {h}):
                return True
            del phi[g]
        return False

    return backtrack(0, {unit1: unit2}, {unit2})


def pi0_aut_profile(G: FinGroupoid):
    """Sorted multiset of (morphism count in the component, automorphism
    group order at a representative); equal profiles are necessary for
    equivalence."""
    out = []
    for comp in G.components():
        rep = comp[0]
        n_mor = sum(len(G.hom(x, y)) for x in comp for y in comp)
        out.append((n_mor, len(G.aut(rep))))
    return sorted(out)


def groupoids_equivalent(A: FinGroupoid, B: FinGroupoid) -> Verdict:
    """Decide abstract equivalence with no functor given: match components
    by automorphism group isomorphism type."""
    comps_a = A.components()
    comps_b = B.components()
    if len(comps_a) != len(comps_b):
        return Verdict.refuted(
            witness={"reason": "component counts differ", "sizes": (len(comps_a), len(comps_b))}
        )
    used = set()
    matching = {}
    for ca in comps_a:
        ra = ca[0]
        els_a, mul_a = _multiplication_table(A, ra)
        found = None
        for j, cb in enumerate(comps_b):
            if j in used:
                continue
            rb = cb[0]
            els_b, mul_b = _multiplication_table(B, rb)
            if len(els_a) != len(els_b):
                continue
            if groups_isomorphic(els_a, mul_a, A.identity(ra), els_b, mul_b, B.identity(rb)):
                found = j
                break
        if found is None:
            return Verdict.refuted(
                witness={"component_rep": repr(ra), "reason": "no matching component"}
            )
        used.add(found)
        matching[repr(ra)] = repr(comps_b[found][0])
    return Verdict.verified(witness={"component_matching": matching})


# ---------------------------------------------------------------------------
# homotopy pullback


def iso_comma(F: Functor, G: Functor):
    """The iso-comma groupoid of F: A -> K and G: B -> K.

    Objects are triples (a, b, alpha) with alpha: F a -> G b in K; morphisms
    are pairs (m, n) with alpha' . F m = G n . alpha.  Returns the groupoid
    together with the two projection functors.
    """
    if F.target is not G.target:
        raise SpanlabError("iso-comma needs a shared target")
    A, B, K = F.source, G.source, F.target
    objs = [
        (a, b, alpha)
        for a in A.objects
        for b in B.objects
        for alpha in K.hom(F.on_obj(a), G.on_obj(b))
    ]
    morphs = {}
    for o1 in objs:
        a1, b1, al1 = o1
        for o2 in objs:
            a2, b2, al2 = o2
            for m in A.hom(a1, a2):
                for n in B.hom(b1, b2):
                    if K.compose(al2, F.on_mor(m)) == K.compose(G.on_mor(n), al1):
                        morphs[(o1, o2, m, n)] = (o1, o2)
    ident = {(a, b, al): ((a, b, al), (a, b, al), A.identity(a), B.identity(b)) for a, b, al in objs}
    comp = {}
    for g in morphs:
        for f in morphs:
            if f[1] == g[0]:
                comp[(g, f)] = (f[0], g[1], A.compose(g[2], f[2]), B.compose(g[3], f[3]))
    inv = {
        (o1, o2, m, n): (o2, o1, A.inverse(m), B.inverse(n)) for o1, o2, m, n in morphs
    }
    cat = FinCategory(objs, morphs, ident, comp)
    gpd = FinGroupoid(cat, inv)
    proj_a = Functor(
        gpd, A, {o: o[0] for o in objs}, {m: m[2] for m in morphs}
    )
    proj_b = Functor(
        gpd, B, {o: o[1] for o in objs}, {m: m[3] for m in morphs}
    )
    return gpd, proj_a, proj_b


def full_subgroupoid(G: FinGroupoid, keep) -> FinGroupoid:
    objs = [x for x in G.objects if keep(x)]
    kept = set(map(repr, objs))
    morphs = {
        m: (s, t)
        for m in G.all_morphisms()
        for s, t in [(G.src(m), G.tgt(m))]
        if repr(s) in kept and repr(t) in kept
    }
    ident = {x: G.identity(x) for x in objs}
    comp = {
        (g, f): G.compose(g, f)
        for g in morphs
        for f in morphs
        if G.tgt(f) == G.src(g)
    }
    inv = {m: G.inverse(m) for m in morphs}
    return FinGroupoid(FinCategory(objs, morphs, ident, comp), inv)
