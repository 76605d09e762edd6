"""Linear Lagrangian correspondences over the rationals.

A shadow of the span calculus in linear symplectic geometry: objects are
finite-dimensional symplectic vector spaces, morphisms are Lagrangian
subspaces of the product with one form negated, and composition matches the
middle coordinates and projects to the outer ones.  All arithmetic is exact:
elimination, transvections and composition run in integers (fraction-free
elimination with gcd reduction; Bareiss, Math. Comp. 22, 1968), and every
subspace is stored by its canonical rational reduced-row-echelon basis, so
equality of correspondences is literal equality of canonical data.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .verdict import SpanlabError, Verdict

Zero = Fraction(0)
One = Fraction(1)


# ---------------------------------------------------------------------------
# exact linear algebra


def _rationals(row):
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]


def _integer_rows(rows):
    """Each row times the lcm of its own denominators: integer rows with
    the same row span.  Entries that are not int or Fraction are read as
    Fraction(v)."""
    out = []
    for row in rows:
        row = _rationals(row)
        m = lcm(*[v.denominator for v in row])
        out.append([v.numerator * (m // v.denominator) for v in row])
    return out


def _integer_form(pairs):
    """The form's weights times one common denominator M of them all, in
    integers.  Every pairing is multiplied by the same M, so its zeros do
    not move; scaling each row by its own denominator would change them."""
    m = lcm(*[w.denominator for _, w in pairs])
    return [(j, w.numerator * (m // w.denominator)) for j, w in pairs], m


def _echelon(rows):
    """Reduced echelon form in integers: (nonzero rows, pivot columns).

    Fraction-free Gauss-Jordan elimination: the pivot of column c is the
    first nonzero entry at or below the current row r, and every other row
    i becomes p . row_i - f . row_r (p the pivot, f = row_i[c]), divided
    by the gcd of its entries.  Row k is its pivot times the k-th row of
    the canonical rational RREF."""
    mat = _integer_rows(rows)
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(row, top)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref(rows):
    """Reduced row echelon form, the canonical rational basis of the row
    span; returns (nonzero rows as Fraction tuples with pivot 1, pivot
    columns)."""
    ech, pivots = _echelon(rows)
    red = [
        tuple([Fraction(v, row[c]) if v else Zero for v in row])
        for row, c in zip(ech, pivots)
    ]
    return red, pivots


def kernel_basis(rows, ncols):
    """Integer vectors spanning the right kernel of the matrix, one per
    free column c of its echelon form: v[c] is the lcm m of the pivots of
    the rows with an entry in column c, and v[p_i] = -row_i[c] . m / p_i
    at the pivot column p_i of row i."""
    ech, pivots = _echelon(rows)
    basis = []
    for c in [c for c in range(ncols) if c not in pivots]:
        hits = [(row[p], row[c], p) for row, p in zip(ech, pivots) if row[c]]
        m = lcm(*[piv for piv, _, _ in hits])
        v = [0] * ncols
        v[c] = m
        for piv, f, p in hits:
            v[p] = -f * (m // piv)
        basis.append(tuple(v))
    return basis


def apply_form(pairs, u, v):
    """omega(u, v) for the form with pairs[i] = (j, w): the sum of
    u[i] . w . v[j] over the nonzero entries of u, in the type of the
    entries, returned as a Fraction."""
    total = 0
    for a, (j, w) in zip(u, pairs):
        if a:
            total += a * w * v[j]
    return Fraction(total)


def canonical_subspace(rows):
    red, _ = rref(rows)
    return tuple(red)


# ---------------------------------------------------------------------------
# symplectic spaces


class SymplecticSpace:
    """A rational vector space with a fixed antisymmetric nondegenerate
    form holding one entry per row: pairs[i] = (j, w) says omega(e_i, e_j)
    = w and omega(e_i, e_k) = 0 for every other k.  Every symplectic form
    has this shape in a Darboux basis."""

    def __init__(self, dim: int, pairs):
        self.dim = dim
        self.pairs = tuple((j, Fraction(w)) for j, w in pairs)

    def validate(self) -> Verdict:
        """Antisymmetric: each nonzero entry w at (i, j) has -w at (j, i).
        Then the form is a sum of planes, nondegenerate iff no w is 0."""
        if self.dim % 2 != 0:
            return Verdict.refuted(witness={"reason": "odd dimension"})
        if len(self.pairs) != self.dim or any(not 0 <= j < self.dim for j, _ in self.pairs):
            return Verdict.refuted(witness={"reason": "form shape"})
        for i, (j, w) in enumerate(self.pairs):
            if w and self.pairs[j] != (i, -w):
                return Verdict.refuted(witness={"entry": (i, j), "reason": "not antisymmetric"})
        if not all(w for _, w in self.pairs):
            return Verdict.refuted(witness={"reason": "degenerate form"})
        return Verdict.verified()

    def negated(self) -> "SymplecticSpace":
        return SymplecticSpace(self.dim, [(j, -w) for j, w in self.pairs])

    def __eq__(self, other):
        return (
            isinstance(other, SymplecticSpace)
            and self.dim == other.dim
            and self.pairs == other.pairs
        )

    def __repr__(self):
        return f"SymplecticSpace(dim={self.dim})"


def standard_symplectic(dim: int) -> SymplecticSpace:
    """Dimension 2n with form [[0, I], [-I, 0]]."""
    if dim % 2 != 0:
        raise SpanlabError("symplectic dimension must be even")
    n = dim // 2
    return SymplecticSpace(dim, [(n + i, One) for i in range(n)] + [(i, -One) for i in range(n)])


def direct_sum(X: SymplecticSpace, Y: SymplecticSpace) -> SymplecticSpace:
    return SymplecticSpace(X.dim + Y.dim, X.pairs + tuple((X.dim + j, w) for j, w in Y.pairs))


def correspondence_form(X: SymplecticSpace, Y: SymplecticSpace):
    """The form (-omega_X) (+) omega_Y on X (+) Y that correspondences are
    Lagrangian against, as its pairs."""
    return direct_sum(X.negated(), Y).pairs


def is_lagrangian(pairs, rows) -> Verdict:
    """Is the row span a Lagrangian subspace for the form given by its
    pairs, on Q^dim with dim = len(pairs)?

    The pairings are tested on the integer echelon rows against the form
    scaled by one common denominator: each is a nonzero multiple of the
    pairing of the canonical rows, so it is zero exactly when that one
    is.  A refutation names the first nonzero pair and its pairing on the
    canonical rows."""
    ech, _ = _echelon(rows)
    if len(ech) != len(pairs) // 2:
        return Verdict.refuted(
            witness={"reason": "wrong dimension", "got": len(ech), "want": len(pairs) // 2}
        )
    form, _ = _integer_form(pairs)
    for i, u in enumerate(ech):
        for j in range(i, len(ech)):
            if apply_form(form, u, ech[j]):
                red, _ = rref(rows)
                val = apply_form(pairs, red[i], red[j])
                return Verdict.refuted(witness={"pair": (i, j), "pairing": str(val)})
    return Verdict.verified()


# ---------------------------------------------------------------------------
# correspondences


class LagrangianCorrespondence:
    """A morphism X -> Y: a Lagrangian subspace of X (+) Y against the form
    (-omega_X) (+) omega_Y, stored by canonical basis."""

    __slots__ = ("source", "target", "basis")

    def __init__(self, source: SymplecticSpace, target: SymplecticSpace, rows):
        self.source = source
        self.target = target
        self.basis = canonical_subspace(rows)

    def validate(self) -> Verdict:
        if any(len(r) != self.source.dim + self.target.dim for r in self.basis):
            return Verdict.refuted(witness={"reason": "vector length"})
        return is_lagrangian(correspondence_form(self.source, self.target), self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, LagrangianCorrespondence)
            and self.source == other.source
            and self.target == other.target
            and self.basis == other.basis
        )

    def __repr__(self):
        return (
            f"LagrangianCorrespondence({self.source.dim}->{self.target.dim}, "
            f"rank {len(self.basis)})"
        )

    def to_json(self) -> dict:
        return {
            "source_dim": self.source.dim,
            "target_dim": self.target.dim,
            "basis": [[str(v) for v in row] for row in self.basis],
        }


def _diagonal_rows(dim: int):
    """A basis of the diagonal {(v, v)} in Q^dim (+) Q^dim."""
    rows = []
    for i in range(dim):
        v = [Zero] * (2 * dim)
        v[i] = One
        v[dim + i] = One
        rows.append(v)
    return rows


def identity_correspondence(X: SymplecticSpace) -> LagrangianCorrespondence:
    return LagrangianCorrespondence(X, X, _diagonal_rows(X.dim))


def compose_lagrangian(
    L: LagrangianCorrespondence, M: LagrangianCorrespondence
) -> LagrangianCorrespondence:
    """M after L: match the middle coordinates and project to the outer
    ones, then re-certify the result.  The work is in integers, on the
    bases scaled row by row, which span the same subspaces; the canonical
    basis of the result does not depend on that choice."""
    if L.target != M.source:
        raise SpanlabError("middle spaces differ")
    dx, dy, dz = L.source.dim, L.target.dim, M.target.dim
    Lb, Mb = _integer_rows(L.basis), _integer_rows(M.basis)
    k, l = len(Lb), len(Mb)
    # constraint rows: for each middle coordinate, sum_i a_i L_i[y] = sum_j b_j M_j[y]
    constraints = [
        [Lb[i][dx + c] for i in range(k)] + [-Mb[j][c] for j in range(l)]
        for c in range(dy)
    ]
    rows = []
    for vec in kernel_basis(constraints, k + l):
        a, b = vec[:k], vec[k:]
        x = [sum([a[i] * Lb[i][c] for i in range(k)]) for c in range(dx)]
        z = [sum([b[j] * Mb[j][dy + c] for j in range(l)]) for c in range(dz)]
        rows.append(x + z)
    out = LagrangianCorrespondence(L.source, M.target, rows)
    v = out.validate()
    if not v:
        raise SpanlabError(f"composite failed certification: {v.witness}")
    return out


def tensor_correspondence(
    L: LagrangianCorrespondence, M: LagrangianCorrespondence
) -> LagrangianCorrespondence:
    """Direct sum of correspondences, with coordinates regrouped as
    (X1 X2 | Y1 Y2)."""
    x1, y1 = L.source.dim, L.target.dim
    x2, y2 = M.source.dim, M.target.dim
    rows = []
    for v in L.basis:
        rows.append(
            tuple(v[:x1]) + (Zero,) * x2 + tuple(v[x1:]) + (Zero,) * y2
        )
    for v in M.basis:
        rows.append(
            (Zero,) * x1 + tuple(v[:x2]) + (Zero,) * y1 + tuple(v[x2:])
        )
    return LagrangianCorrespondence(
        direct_sum(L.source, M.source), direct_sum(L.target, M.target), rows
    )


# ---------------------------------------------------------------------------
# duality data and the zigzags


def unit_space() -> SymplecticSpace:
    return SymplecticSpace(0, [])


def evaluation(X: SymplecticSpace) -> LagrangianCorrespondence:
    """ev: X (+) X^op -> 1, the diagonal."""
    return LagrangianCorrespondence(direct_sum(X, X.negated()), unit_space(), _diagonal_rows(X.dim))


def coevaluation(X: SymplecticSpace) -> LagrangianCorrespondence:
    """coev: 1 -> X^op (+) X, the diagonal."""
    return LagrangianCorrespondence(unit_space(), direct_sum(X.negated(), X), _diagonal_rows(X.dim))


def duality_zigzag_check(dim: int) -> Verdict:
    """Both triangle composites built from the diagonal evaluation and
    coevaluation equal the identity correspondence."""
    X = standard_symplectic(dim)
    Xop = X.negated()
    id_x = identity_correspondence(X)
    id_xop = identity_correspondence(Xop)
    ev = evaluation(X)
    coev = coevaluation(X)

    zig = compose_lagrangian(tensor_correspondence(id_x, coev), tensor_correspondence(ev, id_x))
    if zig != id_x:
        return Verdict.refuted(witness={"side": "zig", "basis": zig.to_json()["basis"]})

    zag = compose_lagrangian(
        tensor_correspondence(coev, id_xop), tensor_correspondence(id_xop, ev)
    )
    if zag != id_xop:
        return Verdict.refuted(witness={"side": "zag", "basis": zag.to_json()["basis"]})
    return Verdict.verified(dim=dim)


# ---------------------------------------------------------------------------
# random sampling


def _transvected(pairs, coords, rounds, rng: random.Random):
    """Integer vectors spanning the lines of the coordinate vectors at
    coords in Q^dim, pushed through rounds random symplectic transvections
    x |-> x + c * omega(x, v) * v of the form (a draw of v = 0 skips its
    round).  With c = p/q and the form scaled to integers by one common
    denominator M, the push of x is q.M.x + p.(M omega)(x, v).v, that
    transvection times q.M, divided by the gcd of its entries; the draws
    are those of the rational push."""
    dim = len(pairs)
    form, m = _integer_form(pairs)
    basis = [[int(k == i) for k in range(dim)] for i in coords]
    for _ in range(rounds):
        v = [rng.randint(-2, 2) for _ in range(dim)]
        if not any(v):
            continue
        p = rng.randint(1, 3)
        qm = rng.randint(1, 3) * m
        pushed = []
        for x in basis:
            f = p * apply_form(form, x, v).numerator
            y = [qm * a + f * b for a, b in zip(x, v)]
            g = gcd(*y)
            pushed.append([a // g for a in y] if g > 1 else y)
        basis = pushed
    return basis


def random_correspondence(
    X: SymplecticSpace, Y: SymplecticSpace, rng: random.Random
) -> LagrangianCorrespondence:
    # the starting block (first half of X, first half of Y) is Lagrangian
    # for the sum form, so transvections of that form keep it Lagrangian
    coords = [*range(X.dim // 2), *range(X.dim, X.dim + Y.dim // 2)]
    return LagrangianCorrespondence(
        X, Y, _transvected(correspondence_form(X, Y), coords, X.dim + Y.dim + 2, rng)
    )


def random_pair_check(trials: int = 100, max_dim: int = 12, seed: int = 0) -> Verdict:
    """Sample composable pairs of random correspondences and certify that
    every composite is again Lagrangian."""
    rng = random.Random(seed)
    for trial in range(trials):
        dx = 2 * rng.randint(1, max_dim // 2)
        dy = 2 * rng.randint(1, max_dim // 2)
        dz = 2 * rng.randint(1, max_dim // 2)
        X, Y, Z = standard_symplectic(dx), standard_symplectic(dy), standard_symplectic(dz)
        L = random_correspondence(X, Y, rng)
        M = random_correspondence(Y, Z, rng)
        for c in (L, M):
            v = c.validate()
            if not v:
                return Verdict.refuted(
                    witness={"trial": trial, "stage": "sample", "inner": v.witness}
                )
        try:
            compose_lagrangian(L, M)
        except SpanlabError as exc:
            return Verdict.refuted(witness={"trial": trial, "stage": "compose", "error": str(exc)})
    if trials <= 0:
        return Verdict.inconclusive(
            witness={"reason": "no pairs were sampled"}, trials=trials, max_dim=max_dim, seed=seed
        )
    return Verdict.verified(trials=trials, max_dim=max_dim, seed=seed)
