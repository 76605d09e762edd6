"""Exact rational symplectic linear algebra and Lagrangian correspondences."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    rank,
    rref,
    standard_symplectic,
    tensor_correspondence,
    unit_space,
)
from spanlab.verdict import SpanlabError

F = Fraction


def apply_form_oracle(omega, u, v):
    """u^T . omega . v over every entry: the slow oracle of apply_form."""
    def dot(x, y):
        return sum((a * b for a, b in zip(x, y)), F(0))

    return sum((u[i] * dot(omega[i], v) for i in range(len(u))), F(0))


# entries that are often zero, as small integers or small fractions
ENTRIES = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


class TestLinearAlgebra:
    def test_rref_canonical(self):
        rows = [[F(2), F(4)], [F(1), F(2)]]
        red, pivots = rref(rows)
        assert red == [(F(1), F(2))]
        assert pivots == [0]

    def test_rank(self):
        assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert rank([[F(1), F(1)], [F(2), F(2)]]) == 1
        assert rank([]) == 0

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

    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(ENTRIES, min_size=n, max_size=n),
            st.lists(ENTRIES, min_size=n, max_size=n),
        )
    ))
    @settings(max_examples=200, deadline=None)
    def test_apply_form_matches_oracle(self, args):
        omega, u, v = args
        got = apply_form(omega, u, v)
        assert got == apply_form_oracle(omega, u, v)
        assert type(got) is Fraction

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_apply_form_on_standard_forms(self, dim):
        rng = random.Random(dim)
        omega = standard_symplectic(dim).omega
        for _ in range(20):
            u, v = ([F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)] for _ in "uv")
            assert apply_form(omega, u, v) == apply_form_oracle(omega, u, v)


class TestSymplecticSpaces:
    def test_standard_form_validates(self):
        for d in (2, 4, 6):
            assert standard_symplectic(d).validate()

    def test_degenerate_form_refuted(self):
        Z = SymplecticSpace(2, [[0, 0], [0, 0]])
        v = Z.validate()
        assert not v
        assert v.witness["reason"] == "degenerate form"

    def test_odd_dimension_rejected(self):
        with pytest.raises(SpanlabError):
            standard_symplectic(3)
        assert not SymplecticSpace(1, [[0]]).validate()

    def test_not_antisymmetric_refuted(self):
        S = SymplecticSpace(2, [[0, 1], [1, 0]])
        assert not S.validate()

    def test_direct_sum_block_diagonal(self):
        X = standard_symplectic(2)
        S = direct_sum(X, X)
        assert S.dim == 4
        assert S.omega[0][1] == 1 and S.omega[2][3] == 1 and S.omega[0][2] == 0

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
        omega = standard_symplectic(2).omega
        assert is_lagrangian(omega, [[F(1), F(0)]], 2)

    def test_symplectic_plane_not_lagrangian(self):
        # span{e1, e3} in Q^4 pairs e1 with e3 nontrivially
        omega = standard_symplectic(4).omega
        v = is_lagrangian(omega, [[F(1), F(0), F(0), F(0)], [F(0), F(0), F(1), F(0)]], 4)
        assert not v

    def test_wrong_dimension_refuted(self):
        omega = standard_symplectic(4).omega
        v = is_lagrangian(omega, [[F(1), F(0), F(0), F(0)]], 4)
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
        M = LagrangianCorrespondence.from_json(data)
        assert M == L

    def test_malformed_json(self):
        with pytest.raises(SpanlabError):
            LagrangianCorrespondence.from_json({"source_dim": 2})

    def test_nontrivial_denominators_survive(self):
        X = standard_symplectic(2)
        L = LagrangianCorrespondence(X, X, [[F(1, 3), F(0), F(1, 3), F(0)]])
        M = LagrangianCorrespondence.from_json(L.to_json())
        assert M.basis == L.basis
