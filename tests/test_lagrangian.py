"""Exact rational symplectic linear algebra and Lagrangian correspondences."""
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanlab.lagrangian import (
    LagrangianCorrespondence,
    SymplecticSpace,
    apply_form,
    canonical_subspace,
    coevaluation,
    compose_lagrangian,
    correspondence_form,
    direct_sum,
    duality_zigzag_check,
    evaluation,
    identity_correspondence,
    is_lagrangian,
    kernel_basis,
    random_correspondence,
    random_pair_check,
    rref,
    standard_symplectic,
    tensor_correspondence,
    unit_space,
)
from spanlab.verdict import SpanlabError, Verdict

F = Fraction


def apply_form_oracle(omega, u, v):
    """u^T . omega . v over every entry of the matrix omega: the slow
    oracle of apply_form."""
    def dot(x, y):
        return sum((a * b for a, b in zip(x, y)), F(0))

    return sum((u[i] * dot(omega[i], v) for i in range(len(u))), F(0))


# ---------------------------------------------------------------------------
# the dense path: forms as matrices, the oracles of the sparse form


def dense(pairs):
    """The matrix of the form whose row i holds w at column j, (j, w) =
    pairs[i]."""
    omega = [[F(0)] * len(pairs) for _ in pairs]
    for i, (j, w) in enumerate(pairs):
        omega[i][j] = F(w)
    return omega


def standard_oracle(dim):
    """The matrix [[0, I], [-I, 0]]."""
    n = dim // 2
    omega = [[F(0)] * dim for _ in range(dim)]
    for i in range(n):
        omega[i][n + i] = F(1)
        omega[n + i][i] = F(-1)
    return omega


def negated_oracle(omega):
    return [[-v for v in row] for row in omega]


def direct_sum_oracle(omega_x, omega_y):
    """The block-diagonal matrix of omega_x and omega_y."""
    dx, d = len(omega_x), len(omega_x) + len(omega_y)
    omega = [[F(0)] * d for _ in range(d)]
    for i, row in enumerate(omega_x):
        omega[i][:dx] = row
    for i, row in enumerate(omega_y):
        omega[dx + i][dx:] = row
    return omega


def validate_reason_oracle(dim, omega):
    """The reason the dense validation gave for a matrix, or None."""
    if dim % 2 != 0:
        return "odd dimension"
    if len(omega) != dim or any(len(r) != dim for r in omega):
        return "form shape"
    if any(omega[i][j] != -omega[j][i] for i in range(dim) for j in range(dim)):
        return "not antisymmetric"
    if len(rref_oracle(omega)[1]) != dim:
        return "degenerate form"
    return None


# entries that are often zero, as small integers or small fractions
ENTRIES = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


# ---------------------------------------------------------------------------
# the rational path: the slow oracles of the integer linear algebra


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rref_oracle(rows):
    """Gauss-Jordan elimination in Fractions."""
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
        inv = F(1) / mat[r][c]
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


def canonical_oracle(rows):
    return tuple(rref_oracle(rows)[0])


def kernel_basis_oracle(rows, ncols):
    """The kernel read off the rational RREF: one vector per free column."""
    red, pivots = rref_oracle(rows)
    basis = []
    for c in [c for c in range(ncols) if c not in pivots]:
        v = [F(0)] * ncols
        v[c] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][c]
        basis.append(tuple(v))
    return basis


def transvected_oracle(omega, coords, rounds, rng):
    """The coordinate vectors pushed through rational transvections
    x |-> x + c * omega(x, v) * v, with the draws of _transvected."""
    dim = len(omega)
    basis = [tuple(F(int(k == i)) for k in range(dim)) for i in coords]
    for _ in range(rounds):
        v = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if all(a == 0 for a in v):
            continue
        c = F(rng.randint(1, 3), rng.randint(1, 3))
        pushed = []
        for x in basis:
            f = c * apply_form_oracle(omega, x, v)
            pushed.append(tuple(a + f * b for a, b in zip(x, v)))
        basis = pushed
    return basis


def random_rows_oracle(X, Y, rng):
    """The rows random_correspondence starts from, pushed in Fractions."""
    omega = direct_sum_oracle(negated_oracle(dense(X.pairs)), dense(Y.pairs))
    coords = [*range(X.dim // 2), *range(X.dim, X.dim + Y.dim // 2)]
    return transvected_oracle(omega, coords, X.dim + Y.dim + 2, rng)


def compose_rows_oracle(L, M):
    """Rows spanning M after L, from the rational kernel of the matching."""
    dx, dy, dz = L.source.dim, L.target.dim, M.target.dim
    k, l = len(L.basis), len(M.basis)
    constraints = [
        [L.basis[i][dx + c] for i in range(k)] + [-M.basis[j][c] for j in range(l)]
        for c in range(dy)
    ]
    rows = []
    for vec in kernel_basis_oracle(constraints, k + l):
        a, b = vec[:k], vec[k:]
        x = [sum((a[i] * L.basis[i][c] for i in range(k)), F(0)) for c in range(dx)]
        z = [sum((b[j] * M.basis[j][dy + c] for j in range(l)), F(0)) for c in range(dz)]
        rows.append(tuple(x) + tuple(z))
    return rows


def is_lagrangian_oracle(omega, rows, dim):
    red, _ = rref_oracle(rows)
    if len(red) != dim // 2:
        return Verdict.refuted(
            witness={"reason": "wrong dimension", "got": len(red), "want": dim // 2}
        )
    for i, u in enumerate(red):
        for j in range(i, len(red)):
            val = apply_form_oracle(omega, u, red[j])
            if val != 0:
                return Verdict.refuted(witness={"pair": (i, j), "pairing": str(val)})
    return Verdict.verified()


def weighted_space(weights):
    """Dimension 2n with form sum_i a_i (e_i ^ e_{n+i}).  Unequal
    denominators among the weights make a scaling of the form row by row
    change which pairings vanish."""
    n = len(weights)
    pairs = [(n + i, a) for i, a in enumerate(weights)] + [(i, -a) for i, a in enumerate(weights)]
    return SymplecticSpace(2 * n, pairs)


# the standard form, half of it, or weights with unequal denominators
SPACES = st.one_of(
    st.integers(1, 3).map(lambda n: standard_symplectic(2 * n)),
    st.integers(1, 3).map(lambda n: weighted_space([F(1, 2)] * n)),
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
        min_size=1, max_size=3,
    ).map(weighted_space),
)

# forms with one entry per row, as pairs: zero and Fraction weights, and
# partners that need not be involutions
FORMS = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, max(n - 1, 0)), ENTRIES), min_size=n, max_size=n)
)

# (columns, rows): empty matrices, zero rows and all-zero matrices included
MATRICES = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=5)
    )
)


class TestLinearAlgebra:
    def test_rref_canonical(self):
        rows = [[F(2), F(4)], [F(1), F(2)]]
        red, pivots = rref(rows)
        assert red == [(F(1), F(2))]
        assert pivots == [0]

    def test_kernel_basis(self):
        # x + y = 0 in Q^2
        ker = kernel_basis([[F(1), F(1)]], 2)
        assert len(ker) == 1
        x, y = ker[0]
        assert x + y == 0 and (x, y) != (0, 0)

    def test_kernel_of_full_rank_is_trivial(self):
        assert kernel_basis([[F(1), F(0)], [F(0), F(1)]], 2) == []

    def test_canonical_subspace_is_basis_independent(self):
        b1 = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
        b2 = [[F(1), F(1), F(2)], [F(1), F(-1), F(0)]]
        assert canonical_subspace(b1) == canonical_subspace(b2)

    @given(FORMS.flatmap(
        lambda pairs: st.tuples(
            st.just(pairs),
            st.lists(ENTRIES, min_size=len(pairs), max_size=len(pairs)),
            st.lists(ENTRIES, min_size=len(pairs), max_size=len(pairs)),
        )
    ))
    @example(([], [], []))
    @example(([(1, 0), (1, F(1, 2))], [1, 1], [2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_apply_form_matches_oracle(self, args):
        pairs, u, v = args
        got = apply_form(pairs, u, v)
        assert got == apply_form_oracle(dense(pairs), u, v)
        assert type(got) is Fraction

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_apply_form_on_standard_forms(self, dim):
        rng = random.Random(dim)
        pairs = standard_symplectic(dim).pairs
        for _ in range(20):
            u, v = ([F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)] for _ in "uv")
            assert apply_form(pairs, u, v) == apply_form_oracle(standard_oracle(dim), u, v)


class TestAgainstTheRationalOracles:
    """The integer elimination, kernel, transvections, composition and
    pairing test against the Fraction code they replaced."""

    @given(MATRICES)
    @example((3, []))
    @example((0, [[], []]))
    @example((3, [[0, F(0), 0], [0, 0, 0]]))
    @example((3, [[0, 0, 0], [2, F(1, 2), 0], [0, 0, 0]]))
    @settings(max_examples=300, deadline=None)
    def test_rref(self, matrix):
        _, rows = matrix
        red, pivots = rref(rows)
        assert (red, pivots) == rref_oracle(rows)
        assert all(type(v) is Fraction for row in red for v in row)

    @given(MATRICES)
    @example((3, []))
    @example((0, [[], []]))
    @example((3, [[0, F(0), 0], [0, 0, 0]]))
    @example((4, [[F(1, 2), 0, -3, 1], [1, 0, -6, 2], [0, 0, 0, 0]]))
    @settings(max_examples=300, deadline=None)
    def test_kernel_basis(self, matrix):
        n, rows = matrix
        ker, oracle = kernel_basis(rows, n), kernel_basis_oracle(rows, n)
        assert all(type(a) is int for v in ker for a in v)
        assert all(sum(F(a) * b for a, b in zip(row, v)) == 0 for row in rows for v in ker)
        assert len(ker) == len(oracle)
        assert canonical_oracle(ker) == canonical_oracle(oracle)

    @given(SPACES, SPACES, st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_random_correspondence(self, X, Y, seed):
        """Same canonical basis, from the same draws."""
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        L = random_correspondence(X, Y, rng)
        assert L.basis == canonical_oracle(random_rows_oracle(X, Y, oracle_rng))
        assert rng.getstate() == oracle_rng.getstate()

    @given(SPACES, SPACES, SPACES, st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_compose_lagrangian(self, X, Y, Z, seed):
        rng = random.Random(seed)
        L, M = random_correspondence(X, Y, rng), random_correspondence(Y, Z, rng)
        assert compose_lagrangian(L, M).basis == canonical_oracle(compose_rows_oracle(L, M))

    @given(SPACES, st.data())
    @settings(max_examples=300, deadline=None)
    def test_is_lagrangian(self, X, data):
        """Same verdict and witness on the graph of a symmetric matrix (a
        Lagrangian), on random rows, and on the graph with a random row
        added to its last row."""
        n = X.dim // 2
        weights = [w for _, w in X.pairs[:n]]
        s = {(i, j): data.draw(st.integers(-2, 2)) for i in range(n) for j in range(i, n)}
        graph = [
            [int(i == k) for i in range(n)] + [s[min(i, k), max(i, k)] / weights[i] for i in range(n)]
            for k in range(n)
        ]
        noise = data.draw(st.lists(st.lists(ENTRIES, min_size=2 * n, max_size=2 * n), max_size=n + 1))
        kind = data.draw(st.sampled_from(["graph", "random", "perturbed"]))
        if kind == "random":
            rows = noise
        elif kind == "perturbed" and noise:
            rows = graph[:-1] + [[a + b for a, b in zip(graph[-1], noise[0])]]
        else:
            rows = graph
        assert is_lagrangian(X.pairs, rows) == is_lagrangian_oracle(dense(X.pairs), rows, X.dim)

    def test_non_integral_form_scales_by_one_common_denominator(self):
        """Against (1/2) e_0 ^ e_2 + e_1 ^ e_3 the pairing of (1, 0, 0, 1)
        and (0, 1, 2, 0) is 1/2 . 2 - 1 = 0; scaled row by row the form
        would weigh both terms alike and pair them to 1."""
        pairs = weighted_space([F(1, 2), F(1)]).pairs
        assert is_lagrangian(pairs, [[1, 0, 0, 1], [0, 1, 2, 0]])
        v = is_lagrangian(pairs, [[1, 0, 0, 1], [0, 1, 1, 0]])
        assert v.witness == {"pair": (0, 1), "pairing": "-1/2"}


class TestSymplecticSpaces:
    def test_standard_form_validates(self):
        for d in (2, 4, 6):
            assert standard_symplectic(d).validate()

    def test_degenerate_form_refuted(self):
        Z = SymplecticSpace(2, [(1, 0), (0, 0)])
        v = Z.validate()
        assert not v
        assert v.witness["reason"] == "degenerate form"

    def test_odd_dimension_rejected(self):
        with pytest.raises(SpanlabError):
            standard_symplectic(3)
        assert not SymplecticSpace(1, [(0, 0)]).validate()

    def test_not_antisymmetric_refuted(self):
        S = SymplecticSpace(2, [(1, 1), (0, 1)])
        assert not S.validate()

    def test_direct_sum_block_diagonal(self):
        X = standard_symplectic(2)
        S = direct_sum(X, X)
        assert S.dim == 4
        omega = dense(S.pairs)
        assert omega[0][1] == 1 and omega[2][3] == 1 and omega[0][2] == 0

    @pytest.mark.parametrize(
        "dim, pairs, reason",
        [
            (3, [(1, 1), (0, -1), (2, 0)], "odd dimension"),
            (2, [(1, 1)], "form shape"),
            (2, [(1, 1), (2, -1)], "form shape"),
            (2, [(0, 1), (1, -1)], "not antisymmetric"),
        ],
        ids=["odd", "short", "partner-out-of-range", "diagonal"],
    )
    def test_malformed_forms_refuted(self, dim, pairs, reason):
        assert SymplecticSpace(dim, pairs).validate().witness["reason"] == reason

    @given(st.one_of(FORMS, SPACES.map(lambda X: X.pairs)))
    @example([(1, 0), (1, 0)])
    @example([(1, 0), (0, 5)])
    @example([(0, 1), (1, 1)])
    @settings(max_examples=300, deadline=None)
    def test_validate_matches_the_dense_oracle(self, pairs):
        """Same reason as the dense validation; the entry named as not
        antisymmetric is one."""
        v = SymplecticSpace(len(pairs), pairs).validate()
        omega = dense(pairs)
        assert (v.witness or {}).get("reason") == validate_reason_oracle(len(pairs), omega)
        if not v and "entry" in v.witness:
            i, j = v.witness["entry"]
            assert omega[i][j] != -omega[j][i]

    @given(FORMS, FORMS)
    @settings(max_examples=200, deadline=None)
    def test_builders_match_the_dense_oracles(self, px, py):
        X, Y = SymplecticSpace(len(px), px), SymplecticSpace(len(py), py)
        assert dense(X.negated().pairs) == negated_oracle(dense(px))
        assert dense(direct_sum(X, Y).pairs) == direct_sum_oracle(dense(px), dense(py))
        assert dense(correspondence_form(X, Y)) == direct_sum_oracle(negated_oracle(dense(px)), dense(py))

    @pytest.mark.parametrize("dim", [0, 2, 4, 8])
    def test_standard_form_matches_the_dense_oracle(self, dim):
        assert dense(standard_symplectic(dim).pairs) == standard_oracle(dim)

    def test_unit_space_is_strict_unit(self):
        X = standard_symplectic(4)
        assert direct_sum(X, unit_space()) == X
        assert direct_sum(unit_space(), X) == X


class TestIsLagrangian:
    def test_graph_of_identity(self):
        X = standard_symplectic(2)
        idc = identity_correspondence(X)
        assert idc.validate()

    def test_coordinate_block(self):
        # span{e1} in the standard plane pairs to zero with itself
        pairs = standard_symplectic(2).pairs
        assert is_lagrangian(pairs, [[F(1), F(0)]])

    def test_symplectic_plane_not_lagrangian(self):
        # span{e1, e3} in Q^4 pairs e1 with e3 nontrivially
        pairs = standard_symplectic(4).pairs
        v = is_lagrangian(pairs, [[F(1), F(0), F(0), F(0)], [F(0), F(0), F(1), F(0)]])
        assert not v

    def test_wrong_dimension_refuted(self):
        pairs = standard_symplectic(4).pairs
        v = is_lagrangian(pairs, [[F(1), F(0), F(0), F(0)]])
        assert not v
        assert v.witness["reason"] == "wrong dimension"


class TestComposition:
    def test_identity_laws(self):
        rng = random.Random(2)
        X = standard_symplectic(4)
        Y = standard_symplectic(2)
        L = random_correspondence(X, Y, rng)
        assert compose_lagrangian(identity_correspondence(X), L) == L
        assert compose_lagrangian(L, identity_correspondence(Y)) == L

    def test_associativity(self):
        rng = random.Random(3)
        X, Y, Z, W = (standard_symplectic(d) for d in (2, 4, 2, 4))
        L = random_correspondence(X, Y, rng)
        M = random_correspondence(Y, Z, rng)
        N = random_correspondence(Z, W, rng)
        lhs = compose_lagrangian(compose_lagrangian(L, M), N)
        rhs = compose_lagrangian(L, compose_lagrangian(M, N))
        assert lhs == rhs

    def test_middle_mismatch(self):
        X = standard_symplectic(2)
        Y = standard_symplectic(4)
        with pytest.raises(SpanlabError):
            compose_lagrangian(identity_correspondence(X), identity_correspondence(Y))

    def test_tensor_of_identities(self):
        X = standard_symplectic(2)
        Y = standard_symplectic(4)
        t = tensor_correspondence(identity_correspondence(X), identity_correspondence(Y))
        assert t.source.dim == 6
        assert t.validate()


class TestDuality:
    def test_evaluation_and_coevaluation_are_lagrangian(self):
        X = standard_symplectic(4)
        assert evaluation(X).validate()
        assert coevaluation(X).validate()

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_zigzags(self, dim):
        v = duality_zigzag_check(dim)
        assert v
        assert v.details["dim"] == dim


class TestRandomSampling:
    def test_random_correspondence_valid(self):
        rng = random.Random(10)
        for dx, dy in ((2, 2), (2, 4), (4, 6)):
            L = random_correspondence(
                standard_symplectic(dx), standard_symplectic(dy), rng
            )
            assert L.validate()

    def test_pair_battery_small(self):
        v = random_pair_check(trials=10, max_dim=6, seed=1)
        assert v
        assert v.details["trials"] == 10

    def test_sampling_deterministic(self):
        a = random_correspondence(
            standard_symplectic(4), standard_symplectic(2), random.Random(42)
        )
        b = random_correspondence(
            standard_symplectic(4), standard_symplectic(2), random.Random(42)
        )
        assert a == b


class TestSerialization:
    def test_roundtrip_with_fraction_strings(self):
        rng = random.Random(6)
        L = random_correspondence(standard_symplectic(2), standard_symplectic(2), rng)
        data = L.to_json()
        assert all(isinstance(v, str) for row in data["basis"] for v in row)
        assert [[F(v) for v in row] for row in data["basis"]] == [list(row) for row in L.basis]

    def test_nontrivial_denominators_survive(self):
        X = standard_symplectic(2)
        L = LagrangianCorrespondence(X, X, [[F(3), F(1), F(3), F(0)]])
        assert L.to_json()["basis"] == [["1", "1/3", "1", "0"]]


class TestBasesPinned:
    def test_seeded_bases_hash(self):
        """The canonical bases of L, M and their composite over 40 seeded
        random pairs of dimension at most 12, pinned byte for byte: lag
        reports carry no basis, so their hash pins cannot see a wrong
        subspace."""
        rng = random.Random(0)
        docs = []
        for _ in range(40):
            X, Y, Z = (standard_symplectic(2 * rng.randint(1, 6)) for _ in range(3))
            L = random_correspondence(X, Y, rng)
            M = random_correspondence(Y, Z, rng)
            docs.append([c.to_json() for c in (L, M, compose_lagrangian(L, M))])
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == (
            "fe32c6e36b86b2cfdd60873d99c867e038dd14a8f945d81144e92f154f342861"
        )
