"""Randomized property suites (hypothesis) plus library cross-checks."""

import itertools
from fractions import Fraction as F

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from blowdown import (
    IntMatrix,
    QDivisor,
    contract,
    euler_characteristic,
    h0_on_quadric,
    hirzebruch_jung_type,
    is_negative_definite,
    kollar_bound,
    new_quadric,
    signature,
    smith_normal_form,
    solve_linear,
)
from blowdown.errors import SingularMatrixError
from blowdown.exactlin import determinant, invert

ints = st.integers(min_value=-9, max_value=9)
small_rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
)


@st.composite
def int_matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [[draw(ints) for _ in range(cols)] for _ in range(rows)]


@st.composite
def square_rational_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    return [[draw(small_rationals) for _ in range(n)] for _ in range(n)]


@st.composite
def singular_rational_matrices(draw, max_dim=4):
    """n-1 free rows plus a rational combination of them, rows permuted."""
    n = draw(st.integers(1, max_dim))
    rows = [[draw(small_rationals) for _ in range(n)] for _ in range(n - 1)]
    coeffs = [draw(small_rationals) for _ in rows]
    rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), F(0)) for j in range(n)])
    return draw(st.permutations(rows))


@st.composite
def symmetric_int_matrices(draw, n=4):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(st.integers(-4, 4))
    return entries


class TestSmithNormalFormProperties:
    @given(int_matrices())
    def test_decomposition_invariants(self, m):
        snf = smith_normal_form(m)
        # invariants (U*M*V = D, unimodularity, chain) are re-validated
        # inside smith_normal_form; here we pin the canonical form itself
        diag = snf.d.diagonal()
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

    @given(int_matrices())
    def test_matches_independent_library(self, m):
        ours = smith_normal_form(m).invariant_factors()
        theirs = tuple(
            int(x)
            for x in sympy_snf(sympy.Matrix(m)).diagonal()
            if int(x) != 0
        )
        # sympy does not sign-normalize its diagonal
        assert tuple(abs(x) for x in theirs) == ours


class TestSolveProperties:
    @given(square_rational_matrices(), st.data())
    def test_solution_satisfies_system(self, g, data):
        assume(determinant(g) != 0)
        b = [data.draw(small_rationals) for _ in g]
        x = solve_linear(g, b)
        for row, target in zip(g, b):
            assert sum(a * v for a, v in zip(row, x)) == target

    @given(singular_rational_matrices())
    def test_singular_raises(self, g):
        with pytest.raises(SingularMatrixError):
            solve_linear(g, [1] * len(g))


class TestNegativeDefiniteProperties:
    @given(symmetric_int_matrices())
    def test_grid_oracle_necessary_condition(self, g):
        if is_negative_definite(g):
            n = len(g)
            for x in itertools.product((-2, -1, 0, 1, 2), repeat=n):
                if not any(x):
                    continue
                value = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
                assert value < 0

    @given(symmetric_int_matrices())
    def test_matches_independent_minor_recomputation(self, g):
        mat = sympy.Matrix(g)
        minors = [mat[:k, :k].det() for k in range(1, len(g) + 1)]
        oracle = all(
            m != 0 and (m > 0) == (k % 2 == 0)
            for k, m in enumerate(minors, start=1)
        )
        assert is_negative_definite(g) == oracle

    @given(symmetric_int_matrices())
    def test_signature_matches_definiteness(self, g):
        plus, minus, zero = signature(g)
        assert plus + minus + zero == len(g)
        assert is_negative_definite(g) == (minus == len(g))


def _sympy(g):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in g])


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _descartes_inertia(g):
    """(n_plus, n_minus, n_zero) from the characteristic polynomial; Descartes'
    rule of signs is exact because a symmetric matrix has only real roots."""
    coeffs = _sympy(g).charpoly().all_coeffs()  # leading coefficient first
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    plus = _sign_changes(coeffs)
    minus = _sign_changes([c * (-1) ** i for i, c in enumerate(coeffs)])
    return plus, minus, zero


@st.composite
def degenerate_symmetric_matrices(draw, max_dim=8):
    """Direct sums of random symmetric blocks, hyperbolic planes and zero
    blocks, so leading minors vanish and zero rows sit inside the matrix,
    then conjugated by a permutation and a few elementary unimodular moves."""
    n = draw(st.integers(1, max_dim))
    blocks = []
    while sum(len(b) for b in blocks) < n:
        kind = draw(st.sampled_from(["random", "hyperbolic", "zero"]))
        if kind == "hyperbolic":
            blocks.append([[0, 1], [1, 0]])
        elif kind == "zero":
            size = draw(st.integers(1, 2))
            blocks.append([[0] * size for _ in range(size)])
        else:
            blocks.append(draw(symmetric_int_matrices(n=draw(st.integers(1, 3)))))
    g = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                if offset + i < n and offset + j < n:
                    g[offset + i][offset + j] = x
        offset += len(block)
    order = draw(st.permutations(range(n)))
    g = [[g[i][j] for j in order] for i in order]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = draw(st.integers(-2, 2))
        if i != j:  # g <- E^T g E with E = I + t*e_j*e_i^T
            g[i] = [x + t * y for x, y in zip(g[i], g[j])]
            for row in g:
                row[i] += t * row[j]
    return g


class TestSympyOracles:
    """The elimination kernel against sympy at sizes up to 8x8."""

    @given(square_rational_matrices(max_dim=8))
    @settings(deadline=None)
    def test_determinant(self, g):
        assert determinant(g) == _sympy(g).det()

    @given(square_rational_matrices(max_dim=8))
    @settings(deadline=None)
    def test_invert(self, g):
        m = _sympy(g)
        if m.det() == 0:
            with pytest.raises(SingularMatrixError):
                invert(g)
            return
        inv = invert(g)
        assert all(type(x) is F for row in inv for x in row)
        assert _sympy(inv) == m.inv()

    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(deadline=None)
    def test_int_matrix_determinant(self, m):
        assert IntMatrix.from_rows(m).determinant() == sympy.Matrix(m).det()

    @given(st.one_of(symmetric_int_matrices(n=8), degenerate_symmetric_matrices()))
    @settings(deadline=None)
    def test_signature(self, g):
        assert signature(g) == _descartes_inertia(g)
        assert is_negative_definite(g) == (_descartes_inertia(g)[1] == len(g))


class TestMumfordPullbackProperties:
    @given(
        st.dictionaries(st.sampled_from(["E1", "E2", "E3"]), small_rationals, max_size=3),
        st.lists(st.integers(-3, 3), min_size=11, max_size=11),
    )
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_orthogonality_and_section_identity(self, ref, named, residual):
        d = QDivisor(named, residual)
        pullback = ref.contraction.pullback(d)
        for curve in ref.contraction.contracted:
            assert ref.model.intersect(pullback, curve) == 0
        assert ref.contraction.pushforward(pullback) == d

    @given(
        st.dictionaries(st.sampled_from(["E1", "E2", "E3"]), small_rationals, max_size=3),
        st.dictionaries(st.sampled_from(["E1", "E2", "E3"]), small_rationals, max_size=3),
    )
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_pullback_is_linear(self, ref, named_a, named_b):
        a, b = QDivisor(named_a), QDivisor(named_b)
        con = ref.contraction
        assert con.pullback(a + b) == con.pullback(a) + con.pullback(b)


class TestBlowUpSequenceProperties:
    @given(st.data())
    def test_random_valid_sequences(self, data):
        model = new_quadric()
        model.declare_curve("C", (1, 3))
        model.declare_curve("F", (1, 0))
        genus_before = {n: model.arithmetic_genus(n) for n in ("C", "F")}
        steps = data.draw(st.integers(0, 5))
        for step in range(steps):
            curves = list(model.prime_divisors)
            subset = data.draw(
                st.lists(st.sampled_from(curves), unique=True, max_size=3)
            )
            # keep only mult-1 incidences whose pairwise budgets survive
            valid = []
            for name in subset:
                if all(model.intersect(name, other) >= 1 for other in valid):
                    valid.append(name)
            before = {
                (a, b): model.intersect(a, b)
                for a in valid
                for b in valid
                if a < b
            }
            k_before = model.canonical_class
            model.blow_up(f"X{step}", [(n, 1) for n in valid])
            for (a, b), value in before.items():
                assert model.intersect(a, b) == value - 1
            # canonical bookkeeping: K_new = pullback(K_old) + e
            assert model.canonical_class == k_before + (1,)
            assert model.lattice_signature() == (1, model.rank - 1, 0)
        for name, genus in genus_before.items():
            assert model.arithmetic_genus(name) == genus


class TestRiemannRochProperties:
    def test_quadric_grid(self):
        model = new_quadric()
        for a in range(-3, 4):
            for b in range(-3, 4):
                chi = euler_characteristic(model, (a, b))
                assert chi == (a + 1) * (b + 1)
                if a >= 0 and b >= 0:
                    assert chi == h0_on_quadric(a, b)

    @given(st.lists(st.integers(-4, 4), min_size=11, max_size=11))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_serre_symmetry(self, ref, cls):
        d = QDivisor({}, cls)
        k_minus_d = ref.model.canonical_divisor() - d
        assert euler_characteristic(ref.model, d) == euler_characteristic(
            ref.model, k_minus_d
        )


class TestHirzebruchJungProperties:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_du_val_chain(self, k):
        assert hirzebruch_jung_type([2] * k) == (k + 1, k)

    @given(st.lists(st.integers(2, 6), min_size=1, max_size=6))
    def test_reversal_gives_same_singularity(self, bs):
        n1, q1 = hirzebruch_jung_type(bs)
        n2, q2 = hirzebruch_jung_type(list(reversed(bs)))
        assert (n1, q1) == (n2, q2)
        assert 0 < n1
        if n1 > 1:
            assert 1 <= q1 < n1
            from math import gcd

            assert gcd(n1, q1) == 1


class TestKollarBoundProperties:
    @given(
        st.integers(1, 9),
        st.integers(-9, 0),
    )
    def test_monotone_decreasing_in_p(self, l_dot, k_dot):
        values = [kollar_bound(2, p, l_dot, k_dot) for p in range(2, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        for p, value in zip(range(2, 12), values):
            if k_dot < 0:
                assert value < F(4, p - 1)


class TestConeLinearity:
    @given(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_r_scales_inversely(self, ref, s):
        from blowdown import build_cone

        assume(s != 0)
        base = build_cone(ref.contraction, ref.ample)
        scaled = build_cone(ref.contraction, ref.ample.scaled(s))
        assert scaled.r == base.r / s
        assert scaled.section_discrepancy == -(1 + scaled.r)
