"""Finite groupoids and the comparisons between them.

Groupoids stand in for spaces throughout: every level of a span construction
is a finite groupoid, and every verdict ultimately reduces to deciding
whether some functor of groupoids is an equivalence.  Homotopy pullbacks are
always the iso-comma construction, never the strict pullback, except where a
design note shows they agree (discrete cospan target).
"""
from __future__ import annotations

from .fincat import Functor
from .verdict import ResourceError, SpanlabError, Verdict

GROUP_ISO_BOUND = 24  # brute-force bijection search cap


def positions(objects):
    """A function from objects to their positions in the list, None when
    absent.  It tries its argument's identity first: callers mostly hand
    back the listed objects themselves, and hashing a large object key
    (a diagram, a labeled span) costs more than many homs."""
    by_id = {id(x): i for i, x in enumerate(objects)}
    by_key = {}

    def position(x):
        i = by_id.get(id(x))
        if i is None:
            if not by_key:
                by_key.update((y, k) for k, y in enumerate(objects))
            i = by_key.get(x)
        return i

    return position


class FinGroupoid:
    """A finite groupoid given by its objects and four functions on
    morphism components: hom(x, y) lists the components of the morphisms
    x -> y, and compose(g, f), inverse(m) and identity(x) act on components.
    An optional key is an isomorphism invariant: objects with different
    keys have no morphisms between them, and hom is never called on them.

    A morphism is the triple (x, y, component).  Homs are computed one
    source row at a time, on first use, and memoised by object position;
    objects not listed have no morphisms.  The hom function is only ever
    called with the listed objects themselves, never with equal copies, so
    a builder can find its own data for an object through positions()
    without hashing it.
    """

    def __init__(self, objects, hom, compose, inverse, identity, key=None):
        self.objects = list(objects)
        self._hom = hom
        self._compose = compose
        self._inverse = inverse
        self._identity = identity
        self._key = key
        self._position = positions(self.objects)
        self._rows = [None] * len(self.objects)
        self._peers = None

    def _row(self, i):
        """The nonempty homs out of object i, keyed by target position in
        object order."""
        row = self._rows[i]
        if row is None:
            x, row = self.objects[i], {}
            for j in self._peers_of(i):
                y = self.objects[j]
                ms = tuple((x, y, c) for c in self._hom(x, y))
                if ms:
                    row[j] = ms
            self._rows[i] = row
        return row

    def _peers_of(self, i):
        """The positions of the objects that share object i's key, in
        object order."""
        if self._key is None:
            return range(len(self.objects))
        if self._peers is None:
            groups = {}
            self._peers = [groups.setdefault(self._key(x), []) for x in self.objects]
            for j, group in enumerate(self._peers):
                group.append(j)
        return self._peers[i]

    def hom(self, x, y):
        i, j = self._position(x), self._position(y)
        if i is None or j is None:
            return ()
        return self._row(i).get(j, ())

    def aut(self, x):
        return self.hom(x, x)

    def all_morphisms(self):
        return [m for i in range(len(self.objects)) for ms in self._row(i).values() for m in ms]

    def src(self, m):
        return m[0]

    def tgt(self, m):
        return m[1]

    def identity(self, x):
        return (x, x, self._identity(x))

    def compose(self, g, f):
        return (f[0], g[1], self._compose(g[2], f[2]))

    def inverse(self, m):
        return (m[1], m[0], self._inverse(m[2]))

    def validate(self) -> Verdict:
        """Identities, closure of composition, unit laws, associativity and
        inverse laws on every morphism."""
        rows = [self._row(i) for i in range(len(self.objects))]
        for i, x in enumerate(self.objects):
            if self.identity(x) not in rows[i].get(i, ()):
                return Verdict.refuted(witness={"object": x, "reason": "bad identity"})
        for i, row in enumerate(rows):
            for j, fs in row.items():
                for f in fs:
                    x, y = f[0], f[1]
                    if self.compose(f, self.identity(x)) != f:
                        return Verdict.refuted(witness={"morphism": f, "reason": "right unit law"})
                    if self.compose(self.identity(y), f) != f:
                        return Verdict.refuted(witness={"morphism": f, "reason": "left unit law"})
                    inv = self.inverse(f)
                    if (
                        inv not in rows[j].get(i, ())
                        or self.compose(inv, f) != self.identity(x)
                        or self.compose(f, inv) != self.identity(y)
                    ):
                        return Verdict.refuted(witness={"morphism": f, "reason": "inverse law fails"})
                    for k, gs in rows[j].items():
                        for g in gs:
                            gf = self.compose(g, f)
                            if gf not in row.get(k, ()):
                                return Verdict.refuted(
                                    witness={"pair": (g, f), "reason": "composite outside its hom"}
                                )
                            for hs in rows[k].values():
                                for h in hs:
                                    if self.compose(self.compose(h, g), f) != self.compose(h, gf):
                                        return Verdict.refuted(
                                            witness={"triple": (h, g, f), "reason": "associativity"}
                                        )
        return Verdict.verified()

    def components(self):
        """Connected components in the order of their first objects, each
        sorted by repr."""
        placed = [False] * len(self.objects)
        out = []
        for start in range(len(self.objects)):
            if placed[start]:
                continue
            placed[start] = True
            members, frontier = [start], [start]
            while frontier:
                for z in self._row(frontier.pop()):
                    if not placed[z]:
                        placed[z] = True
                        members.append(z)
                        frontier.append(z)
            out.append(sorted((self.objects[i] for i in members), key=repr))
        return out

    def to_json(self) -> dict:
        """The groupoid as tables; composites are listed for each morphism f
        in turn, over the morphisms g out of its target."""
        morphs = self.all_morphisms()
        return {
            "objects": list(self.objects),
            "morphisms": [{"id": m, "src": m[0], "tgt": m[1]} for m in morphs],
            "identities": {x: self.identity(x) for x in self.objects},
            "compose": [
                [g, f, self.compose(g, f)]
                for i in range(len(self.objects))
                for j, fs in self._row(i).items()
                for f in fs
                for gs in self._row(j).values()
                for g in gs
            ],
            "inverse": {repr(m): self.inverse(m) for m in morphs},
        }


def discrete_groupoid(labels) -> FinGroupoid:
    """One identity morphism, with component "id", at each label."""
    return FinGroupoid(
        labels,
        lambda x, y: ("id",) if x == y else (),
        lambda g, f: "id",
        lambda m: m,
        lambda x: "id",
    )


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
        raise ResourceError(f"group order {len(els1)} exceeds the search bound")

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
# groupoids on pairs of morphisms


def _pairwise(A: FinGroupoid, B: FinGroupoid, objects, hom) -> FinGroupoid:
    """A groupoid whose objects start with a pair (a, b) of objects of A and
    B and whose components are pairs (m, n) of their morphisms, composed,
    inverted and made identities componentwise."""
    return FinGroupoid(
        objects,
        hom,
        lambda g, f: (A.compose(g[0], f[0]), B.compose(g[1], f[1])),
        lambda m: (A.inverse(m[0]), B.inverse(m[1])),
        lambda x: (A.identity(x[0]), B.identity(x[1])),
    )


def product_groupoid(A: FinGroupoid, B: FinGroupoid) -> FinGroupoid:
    """The product A x B: objects and morphisms are pairs."""
    return _pairwise(
        A,
        B,
        [(a, b) for a in A.objects for b in B.objects],
        lambda x, y: [(m, n) for m in A.hom(x[0], y[0]) for n in B.hom(x[1], y[1])],
    )


# ---------------------------------------------------------------------------
# homotopy pullback


def iso_comma(F: Functor, G: Functor):
    """The iso-comma groupoid of F: A -> K and G: B -> K.

    Objects are triples (a, b, alpha) with alpha the component of a
    morphism F a -> G b in K; morphisms are pairs (m, n) with
    alpha' . F m = G n . alpha.  Returns the groupoid together with the two
    projection functors.
    """
    if F.target is not G.target:
        raise SpanlabError("iso-comma needs a shared target")
    A, B, K = F.source, G.source, F.target
    objs, alphas = [], []
    for a in A.objects:
        for b in B.objects:
            for alpha in K.hom(F.on_obj(a), G.on_obj(b)):
                objs.append((a, b, alpha[2]))
                alphas.append(alpha)
    at = positions(objs)

    def hom(o1, o2):
        al1, al2 = alphas[at(o1)], alphas[at(o2)]
        return [
            (m, n)
            for m in A.hom(o1[0], o2[0])
            for n in B.hom(o1[1], o2[1])
            if K.compose(al2, F.on_mor(m)) == K.compose(G.on_mor(n), al1)
        ]

    gpd = _pairwise(A, B, objs, hom)
    proj_a = Functor(gpd, A, lambda o: o[0], lambda m: m[2][0])
    proj_b = Functor(gpd, B, lambda o: o[1], lambda m: m[2][1])
    return gpd, proj_a, proj_b


def full_subgroupoid(G: FinGroupoid, keep) -> FinGroupoid:
    return FinGroupoid(
        [x for x in G.objects if keep(x)],
        lambda x, y: [m[2] for m in G.hom(x, y)],
        G._compose,
        G._inverse,
        G._identity,
        G._key,
    )
