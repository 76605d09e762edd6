"""Linear Lagrangian correspondences over the rationals.

A shadow of the span calculus in linear symplectic geometry: objects are
finite-dimensional symplectic vector spaces, morphisms are Lagrangian
subspaces of the product with one form negated, and composition matches the
middle coordinates and projects to the outer ones.  All arithmetic is exact
(fractions), and every subspace is stored by its reduced-row-echelon basis,
so equality of correspondences is literal equality of canonical data.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .verdict import SpanlabError, Verdict

Zero = Fraction(0)
One = Fraction(1)


# ---------------------------------------------------------------------------
# exact linear algebra


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = _frac_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = One / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows):
    return len(rref(rows)[0])


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix, from the RREF free columns."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [Zero] * ncols
        v[c] = One
        for i, p in enumerate(pivots):
            v[p] = -red[i][c]
        basis.append(tuple(v))
    return basis


def apply_form(omega, u, v):
    """u^T . omega . v, summed over the nonzero entries of u, omega and v
    only (the standard and direct-sum forms hold one nonzero per row)."""
    support = [(j, b) for j, b in enumerate(v) if b]
    total = Zero
    for a, row in zip(u, omega):
        if a:
            for j, b in support:
                w = row[j]
                if w:
                    total += a * w * b
    return total


def canonical_subspace(rows):
    red, _ = rref(rows)
    return tuple(red)


# ---------------------------------------------------------------------------
# symplectic spaces


class SymplecticSpace:
    """A rational vector space with a fixed antisymmetric nondegenerate
    form given as a matrix."""

    def __init__(self, dim: int, omega):
        self.dim = dim
        self.omega = tuple(tuple(Fraction(v) for v in row) for row in omega)

    def validate(self) -> Verdict:
        if self.dim % 2 != 0:
            return Verdict.refuted(witness={"reason": "odd dimension"})
        if len(self.omega) != self.dim or any(len(r) != self.dim for r in self.omega):
            return Verdict.refuted(witness={"reason": "form shape"})
        for i in range(self.dim):
            for j in range(self.dim):
                if self.omega[i][j] != -self.omega[j][i]:
                    return Verdict.refuted(witness={"entry": (i, j), "reason": "not antisymmetric"})
        if rank(self.omega) != self.dim:
            return Verdict.refuted(witness={"reason": "degenerate form"})
        return Verdict.verified()

    def negated(self) -> "SymplecticSpace":
        return SymplecticSpace(self.dim, [[-v for v in row] for row in self.omega])

    def __eq__(self, other):
        return (
            isinstance(other, SymplecticSpace)
            and self.dim == other.dim
            and self.omega == other.omega
        )

    def __repr__(self):
        return f"SymplecticSpace(dim={self.dim})"


def standard_symplectic(dim: int) -> SymplecticSpace:
    """Dimension 2n with form [[0, I], [-I, 0]]."""
    if dim % 2 != 0:
        raise SpanlabError("symplectic dimension must be even")
    n = dim // 2
    omega = [[Zero] * dim for _ in range(dim)]
    for i in range(n):
        omega[i][n + i] = One
        omega[n + i][i] = -One
    return SymplecticSpace(dim, omega)


def direct_sum(X: SymplecticSpace, Y: SymplecticSpace) -> SymplecticSpace:
    d = X.dim + Y.dim
    omega = [[Zero] * d for _ in range(d)]
    for i in range(X.dim):
        for j in range(X.dim):
            omega[i][j] = X.omega[i][j]
    for i in range(Y.dim):
        for j in range(Y.dim):
            omega[X.dim + i][X.dim + j] = Y.omega[i][j]
    return SymplecticSpace(d, omega)


def correspondence_form(X: SymplecticSpace, Y: SymplecticSpace):
    """The form (-omega_X) (+) omega_Y on X (+) Y that correspondences are
    Lagrangian against."""
    return direct_sum(X.negated(), Y).omega


def is_lagrangian(omega, rows, dim) -> Verdict:
    """Is the row span a Lagrangian subspace for the given form on Q^dim?"""
    red, _ = rref(rows)
    if len(red) != dim // 2:
        return Verdict.refuted(
            witness={"reason": "wrong dimension", "got": len(red), "want": dim // 2}
        )
    for i, u in enumerate(red):
        for j, v in enumerate(red):
            if j < i:
                continue
            val = apply_form(omega, u, v)
            if val != 0:
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
        return is_lagrangian(
            correspondence_form(self.source, self.target),
            self.basis,
            self.source.dim + self.target.dim,
        )

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

    @classmethod
    def from_json(cls, data: dict) -> "LagrangianCorrespondence":
        try:
            return cls(
                standard_symplectic(data["source_dim"]),
                standard_symplectic(data["target_dim"]),
                [[Fraction(v) for v in row] for row in data["basis"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpanlabError(f"malformed correspondence JSON: {exc}") from exc


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
    ones, then re-certify the result."""
    if L.target != M.source:
        raise SpanlabError("middle spaces differ")
    dx, dy, dz = L.source.dim, L.target.dim, M.target.dim
    k, l = len(L.basis), len(M.basis)
    # constraint rows: for each middle coordinate, sum_i a_i L_i[y] = sum_j b_j M_j[y]
    constraints = [
        [L.basis[i][dx + c] for i in range(k)] + [-M.basis[j][c] for j in range(l)]
        for c in range(dy)
    ]
    rows = []
    for vec in kernel_basis(constraints, k + l):
        a, b = vec[:k], vec[k:]
        x = [sum((a[i] * L.basis[i][c] for i in range(k)), Zero) for c in range(dx)]
        z = [sum((b[j] * M.basis[j][dy + c] for j in range(l)), Zero) for c in range(dz)]
        rows.append(tuple(x) + tuple(z))
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


def _transvected(omega, dim, coords, rounds, rng: random.Random):
    """The coordinate vectors at coords in Q^dim, pushed through rounds
    random symplectic transvections x |-> x + c * omega(x, v) * v of the
    form (a draw of v = 0 skips its round)."""
    basis = [tuple(One if k == i else Zero for k in range(dim)) for i in coords]
    for _ in range(rounds):
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
        if all(a == 0 for a in v):
            continue
        c = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        pushed = []
        for x in basis:
            f = c * apply_form(omega, x, v)
            pushed.append(tuple(a + f * b for a, b in zip(x, v)))
        basis = pushed
    return basis


def random_correspondence(
    X: SymplecticSpace, Y: SymplecticSpace, rng: random.Random
) -> LagrangianCorrespondence:
    # the starting block (first half of X, first half of Y) is Lagrangian
    # for the sum form, so transvections of that form keep it Lagrangian
    dim = X.dim + Y.dim
    coords = [*range(X.dim // 2), *range(X.dim, X.dim + Y.dim // 2)]
    return LagrangianCorrespondence(
        X, Y, _transvected(correspondence_form(X, Y), dim, coords, dim + 2, rng)
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
