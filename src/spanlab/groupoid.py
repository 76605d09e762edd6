"""Finite groupoids and the comparisons between them.

Groupoids stand in for spaces throughout: every level of a span construction
is a finite groupoid, and every verdict ultimately reduces to deciding
whether some functor of groupoids is an equivalence.  Homotopy pullbacks are
always the iso-comma construction, never the strict pullback, except where a
design note shows they agree (discrete cospan target).
"""
from __future__ import annotations

from collections.abc import Mapping

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


class ListedMap(Mapping):
    """Listed objects mapped to the values listed at their positions,
    found through positions(): a listed object by identity, so only an
    equal copy of one is ever hashed."""

    def __init__(self, objects, values):
        self.position, self._objects, self._values = positions(objects), objects, values

    def __getitem__(self, x):
        i = self.position(x)
        if i is None:
            raise KeyError(x)
        return self._values[i]

    def __iter__(self):
        return iter(self._objects)

    def __len__(self):
        return len(self._objects)


class FinGroupoid:
    """A finite groupoid given by its objects and four functions on
    morphism components: hom(x, y) lists the components of the morphisms
    x -> y, and compose(g, f), inverse(m) and identity(x) act on components.
    An optional key is an isomorphism invariant: objects with different
    keys have no morphisms between them, and hom is never called on them.

    A morphism is the triple (x, y, component).  Homs are computed pair by
    pair, on first use, and a nonempty one is memoised in its source's row,
    keyed by target position; a row is completed, in object order, only for
    all_morphisms, validate and to_json.  An empty hom is not memoised.
    Objects not listed have no morphisms.  The hom function is only ever
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
        self._complete = bytearray(len(self.objects))
        self._peers = None

    def _homs(self, i, j):
        """The morphisms from object i to object j, from the builder."""
        x, y = self.objects[i], self.objects[j]
        return tuple((x, y, c) for c in self._hom(x, y))

    def _pair(self, i, j):
        """The morphisms from object i to object j, stored when nonempty."""
        row = self._rows[i]
        ms = row.get(j) if row else None
        if ms is None:
            if self._complete[i] or self._peers_of(i) is not self._peers_of(j):
                return ()
            ms = self._homs(i, j)
            if ms:
                row = self._rows[i] = row or {}
                row[j] = ms
        return ms

    def _row(self, i):
        """The nonempty homs out of object i, keyed by target position in
        object order."""
        if not self._complete[i]:
            found, row = self._rows[i] or {}, {}
            for j in self._peers_of(i):
                ms = found.get(j) or self._homs(i, j)
                if ms:
                    row[j] = ms
            self._rows[i], self._complete[i] = row, True
        return self._rows[i]

    def _peers_of(self, i):
        """The positions of the objects that share object i's key, in
        object order: one shared list per key."""
        if self._peers is None:
            groups, key = {}, self._key or (lambda x: None)
            self._peers = [groups.setdefault(key(x), []) for x in self.objects]
            for j, group in enumerate(self._peers):
                group.append(j)
        return self._peers[i]

    def hom(self, x, y):
        i, j = self._position(x), self._position(y)
        if i is None or j is None:
            return ()
        return self._pair(i, j)

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
        sorted by repr.  Each object, in object order, joins the first
        component of its key group whose first object it has a morphism
        to, or starts a new one.  In a groupoid "has a morphism to" is an
        equivalence relation (identities, inverses, composites), so this is
        the partition into connected components, with at most n * c hom
        calls for n objects in c components of one key group."""
        found, out = {}, []  # first position of a key group -> its components
        for i in range(len(self.objects)):
            comps = found.setdefault(self._peers_of(i)[0], [])
            for members in comps:
                if self._pair(i, members[0]):
                    members.append(i)
                    break
            else:
                comps.append([i])
                out.append(comps[-1])
        return [sorted((self.objects[k] for k in members), key=repr) for members in out]

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
    bijection on every hom-set.  A refutation's witness is a violating object
    or hom-pair; a verdict of verified carries none."""
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
    for b in B.objects:
        if not any(B.hom(F.on_obj(x), b) for x in A.objects):
            return Verdict.refuted(witness={"object": b, "reason": "not in essential image"})
    return Verdict.verified()


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

    return _extends_to_isomorphism((els1, mul1, ord1), (els2, mul2, ord2), {unit1: unit2}, {unit2})


def _extends_to_isomorphism(one, two, phi, used) -> bool:
    """Does phi, a bijection onto used, extend to an isomorphism of groups given
    as (elements, multiplication, orders)?  Not a closure: that is a reference cycle."""
    (els1, mul1, ord1), (els2, mul2, ord2) = one, two
    g = next((e for e in els1 if e not in phi), None)
    if g is None:
        return all(phi[mul1[(g, f)]] == mul2[(phi[g], phi[f])] for g in els1 for f in els1)
    for h in els2:
        if h in used or ord2[h] != ord1[g]:
            continue
        phi[g] = h
        if _extends_to_isomorphism(one, two, phi, used | {h}):
            return True
        del phi[g]
    return False


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
    tables_b = {}  # j -> the multiplication table at comps_b[j][0], built once
    for ca in comps_a:
        ra = ca[0]
        els_a, mul_a = _multiplication_table(A, ra)
        found = None
        for j, cb in enumerate(comps_b):
            if j in used:
                continue
            rb = cb[0]
            if j not in tables_b:
                tables_b[j] = _multiplication_table(B, rb)
            els_b, mul_b = tables_b[j]
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


def _pairwise(A: FinGroupoid, B: FinGroupoid, objects, hom, key=None) -> FinGroupoid:
    """A groupoid whose objects start with a pair (a, b) of objects of A and
    B and whose components are pairs (m, n) of their morphisms, composed,
    inverted and made identities componentwise."""
    return FinGroupoid(
        objects,
        hom,
        lambda g, f: (A.compose(g[0], f[0]), B.compose(g[1], f[1])),
        lambda m: (A.inverse(m[0]), B.inverse(m[1])),
        lambda x: (A.identity(x[0]), B.identity(x[1])),
        key,
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

    Its key pairs A's key of a with B's key of b, None for a side without
    one: a morphism of the iso-comma projects to morphisms a -> a' and
    b -> b', so objects whose keys differ have none between them.

    B's hom is asked once per pair (b, b') and kept, empty or not, by
    their positions in B: every pair of objects over (b, b'), one per
    alpha over b and alpha over b', reads it, and B keeps only nonempty
    homs.
    """
    if F.target is not G.target:
        raise SpanlabError("iso-comma needs a shared target")
    A, B, K = F.source, G.source, F.target
    objs, alphas, b_at = [], [], []
    for a in A.objects:
        for j, b in enumerate(B.objects):
            for alpha in K.hom(F.on_obj(a), G.on_obj(b)):
                objs.append((a, b, alpha[2]))
                alphas.append(alpha)
                b_at.append(j)
    at = positions(objs)
    homs_b = {}  # (position of b, position of b') -> B.hom(b, b')

    def hom(o1, o2):
        i1, i2 = at(o1), at(o2)
        al1, al2 = alphas[i1], alphas[i2]
        pair = b_at[i1], b_at[i2]
        if pair not in homs_b:
            homs_b[pair] = B.hom(o1[1], o2[1])
        return [
            (m, n)
            for m in A.hom(o1[0], o2[0])
            for n in homs_b[pair]
            if K.compose(al2, F.on_mor(m)) == K.compose(G.on_mor(n), al1)
        ]

    key_a, key_b = A._key, B._key

    def key(o):
        return (key_a and key_a(o[0]), key_b and key_b(o[1]))

    gpd = _pairwise(A, B, objs, hom, key)
    proj_a = Functor(gpd, A, lambda o: o[0], lambda m: m[2][0])
    proj_b = Functor(gpd, B, lambda o: o[1], lambda m: m[2][1])
    return gpd, proj_a, proj_b


def full_subgroupoid(G: FinGroupoid, keep) -> FinGroupoid:
    return FinGroupoid(
        [x for x in G.objects if keep(x)],
        G._hom,
        G._compose,
        G._inverse,
        G._identity,
        G._key,
    )
