"""Randomized property suites (hypothesis) plus library cross-checks."""

import collections
import enum
import itertools
import json
import math
import sys
import time
from fractions import Fraction as F

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from blowdown import (
    ClassGroupReport,
    IntMatrix,
    QDivisor,
    contract,
    euler_characteristic,
    explore_frobenius,
    frobenius_construction,
    h0_on_quadric,
    hirzebruch_jung_type,
    is_negative_definite,
    kollar_bound,
    new_plane,
    new_quadric,
    signature,
    smith_normal_form,
    solve_linear,
)
from blowdown.errors import GeometryError, NotContractibleError, SingularMatrixError
from blowdown.exactlin import (
    _certify_pivot_pass,
    determinant,
    divisor_chain,
    invert,
    sparse_pivot_pass,
)
from blowdown.scenario import EXPLORATION_SCHEMA, REPORT_SCHEMA, bundled_scenario, canonical_json
from blowdown.surface import _BASE_PART

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
def sparse_int_matrices(draw, max_dim=8):
    """Shaped like a class-group relation matrix: mostly 0 and +-1 entries,
    a few larger ones, and some rows and columns entirely zero."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows // 2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2))
    entries = st.one_of(st.sampled_from((0, 0, 0, 0, 1, -1)), st.integers(-12, 12))
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entries) for j in range(cols)]
        for i in range(rows)
    ]


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
    @pytest.mark.parametrize(
        "m, diagonal",
        [
            ([[2, 0], [0, 3]], (1, 6)),  # coprime pivots: the fold gives gcd and lcm
            ([[4, 6], [6, 1]], (1, 32)),  # smallest entry away from (0, 0)
            ([[0, 0, 0], [0, 0, 5], [0, 0, 0]], (5, 0, 0)),
            ([[4, 6, 10]], (2,)),
            ([[6], [-9], [15]], (3,)),
            ([[0, 0], [0, 0], [0, 0]], (0, 0)),
        ],
    )
    def test_explicit_shapes(self, m, diagonal):
        snf = smith_normal_form(m)
        assert (snf.d.rows, snf.d.cols) == (len(m), len(m[0]))
        assert snf.d.diagonal() == diagonal

    @given(st.one_of(int_matrices(), sparse_int_matrices()))
    def test_decomposition_invariants(self, m):
        snf = smith_normal_form(m)
        # invariants (U*M*V = D, unimodularity, chain) are re-validated
        # inside smith_normal_form; here we pin the canonical form itself
        diag = snf.d.diagonal()
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

    @given(st.one_of(int_matrices(), sparse_int_matrices()))
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
        assert determinant(m) == sympy.Matrix(m).det()

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


BASES = {
    "quadric": ([[0, 1], [1, 0]], {"C": (1, 3), "F": (1, 0), "G": (0, 1)}),
    "plane": ([[1]], {"L": (1,), "Q": (2,)}),
}


def random_tower(base, data, max_steps=8):
    """The base's starting curves and up to ``max_steps`` mult-1 blow-ups,
    each at a point on a random set of curves whose pairwise budgets allow it."""
    model = new_quadric() if base == "quadric" else new_plane()
    for name, cls in BASES[base][1].items():
        model.declare_curve(name, cls)
    for step in range(data.draw(st.integers(0, max_steps))):
        subset = data.draw(
            st.lists(st.sampled_from(list(model.prime_divisors)), unique=True, max_size=3)
        )
        valid = []
        for name in subset:
            if all(model.intersect(name, other) >= 1 for other in valid):
                valid.append(name)
        model.blow_up(f"X{step}", [(n, 1) for n in valid])
    return model


class TestBaseBlockPairing:
    """The stored base block plus exceptional -1s pair like the explicit
    dense Gram matrix ``base ⊕ −I``."""

    @staticmethod
    def _dense(model, d):
        if isinstance(d, str):
            return list(model.prime_divisors[d].class_vector)
        if isinstance(d, QDivisor):
            total = list(d.residual or [0] * model.rank)
            for name, c in d.named.items():
                for i, x in enumerate(model.prime_divisors[name].class_vector):
                    total[i] += c * x
            return total
        return list(d)

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_matches_explicit_gram(self, base, data):
        block = BASES[base][0]
        model = random_tower(base, data)
        n, r = model.rank, len(block)
        gram = [
            [block[i][j] if i < r and j < r else -1 if i == j else 0 for j in range(n)]
            for i in range(n)
        ]
        assert model.gram == tuple(tuple(row) for row in gram)

        divisors = self._divisors(model)
        for _ in range(5):
            d1, d2 = data.draw(divisors), data.draw(divisors)
            u, v = self._dense(model, d1), self._dense(model, d2)
            value = model.intersect(d1, d2)
            assert type(value) is F
            assert value == sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_kernel_matches_gram_block(self, base, data):
        # random sparse classes with int and Fraction entries, each base
        # coordinate present or absent, against u.G.v from the dense `gram`
        model = new_quadric() if base == "quadric" else new_plane()
        for i in range(data.draw(st.integers(0, 3))):
            model.blow_up(f"E{i}")
        n, r, gram = model.rank, model.base_rank, model.gram
        entries = st.one_of(ints.filter(bool), small_rationals.filter(bool))
        classes = st.dictionaries(st.integers(0, n - 1), entries)
        for _ in range(5):
            u, v = data.draw(classes), data.draw(classes)
            du, dv = model.total_class(u), model.total_class(v)
            assert _BASE_PART[base](u, v) == sum(
                du[i] * gram[i][j] * dv[j] for i in range(r) for j in range(r)
            )
            value = model.pairing(u, v)
            assert value == sum(du[i] * gram[i][j] * dv[j] for i in range(n) for j in range(n))
            if {*map(type, u.values()), *map(type, v.values())} <= {int}:
                assert type(value) is int

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_k_degree_matches_dense_canonical(self, base, data):
        model = random_tower(base, data)
        divisors = self._divisors(model)
        for _ in range(5):
            d = data.draw(divisors)
            assert model.k_degree(d) == model.pairing(d, model.canonical_class)

    @staticmethod
    def _divisors(model):
        """Names, rational class vectors and QDivisors on the model."""
        n = model.rank
        names = st.sampled_from(sorted(model.prime_divisors))
        vectors = st.lists(st.one_of(ints, small_rationals), min_size=n, max_size=n)
        qdivisors = st.builds(
            QDivisor,
            st.dictionaries(names, small_rationals, max_size=4),
            st.one_of(st.none(), st.lists(ints, min_size=n, max_size=n)),
        )
        return st.one_of(names, vectors, qdivisors)


class DenseLattice:
    """Reference lattice for the sparse model: every class a full list, one
    coordinate appended to every class per blow-up."""

    def __init__(self, base):
        self.block = BASES[base][0]
        self.canonical = [-2, -2] if base == "quadric" else [-3]
        self.classes = {}

    def pair(self, u, v):
        r = len(self.block)
        base = sum(u[i] * self.block[i][j] * v[j] for i in range(r) for j in range(r))
        return base - sum(x * y for x, y in zip(u[r:], v[r:]))

    def total(self, d):
        """The dense total class of a name, a QDivisor or a class vector."""
        if isinstance(d, str):
            return list(self.classes[d])
        if isinstance(d, QDivisor):
            total = list(d.residual or [0] * len(self.canonical))
            for name, c in d.named.items():
                total = [t + c * x for t, x in zip(total, self.classes[name])]
            return total
        return list(d)

    def twice_genus(self, u):
        return self.pair(u, u) + self.pair(u, self.canonical) + 2

    def blow_up_allowed(self, incident):
        if any(self.twice_genus(self.classes[x]) < m * (m - 1) for x, m in incident):
            return False
        return all(
            self.pair(self.classes[x], self.classes[y]) >= mx * my
            for i, (x, mx) in enumerate(incident)
            for y, my in incident[i + 1 :]
        )

    def blow_up(self, name, incident):
        mults = dict(incident)
        for other, cls in self.classes.items():
            cls.append(-mults.get(other, 0))
        self.canonical.append(1)
        self.classes[name] = [0] * (len(self.canonical) - 1) + [1]


#: starting curves of each base with genus enough for points of multiplicity 2 and 3
SPARSE_START = {
    "quadric": {"C": (1, 3), "N": (2, 2), "M": (3, 3)},
    "plane": {"L": (1,), "Cu": (3,), "Qr": (4,)},
}


class TestSparseClassesAgainstDenseReference:
    """Random declare/blow-up sequences on the sparse model agree entry for
    entry with a dense reference.  A blow-up updates the registered divisors
    in place: an object fetched before it is the registered one and reads as
    the strict transform, and a curve off the blown-up point keeps the same
    map with the same contents."""

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_random_sequences(self, base, data):
        model = new_quadric() if base == "quadric" else new_plane()
        dense = DenseLattice(base)
        for name, cls in SPARSE_START[base].items():
            model.declare_curve(name, cls)
            dense.classes[name] = list(cls)
        for step in range(data.draw(st.integers(1, 7))):
            if data.draw(st.booleans()):
                self._declare(model, dense, f"D{step}", data)
            else:
                self._blow_up(model, dense, f"X{step}", data)
            self._compare_classes(model, dense)
        self._compare_divisors(model, dense, data)

    @staticmethod
    def _declare(model, dense, name, data):
        r = model.base_rank
        cls = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)) + data.draw(
            st.lists(st.integers(-2, 1), min_size=model.rank - r, max_size=model.rank - r)
        )
        twice_genus = dense.twice_genus(cls)
        if any(cls) and twice_genus >= 0 and twice_genus % 2 == 0:
            assert model.declare_curve(name, cls).class_vector == tuple(cls)
            dense.classes[name] = cls
        else:
            with pytest.raises(GeometryError):
                model.declare_curve(name, cls)

    @staticmethod
    def _blow_up(model, dense, name, data):
        names = data.draw(st.lists(st.sampled_from(sorted(dense.classes)), unique=True, max_size=3))
        incident = [(n, data.draw(st.integers(1, 3))) for n in names]
        if not dense.blow_up_allowed(incident):
            with pytest.raises(GeometryError):
                model.blow_up(name, incident)
            return
        fetched = dict(model.prime_divisors)
        off = {n: (div.cls, dict(div.cls)) for n, div in fetched.items() if n not in dict(incident)}
        model.blow_up(name, incident)
        dense.blow_up(name, incident)
        for n, div in fetched.items():  # the strict transform, in the registered object
            cls = dense.classes[n]
            assert model.prime_divisors[n] is div
            assert div.class_vector == tuple(cls)
            assert (div.square, div.k_degree) == (dense.pair(cls, cls), dense.pair(cls, dense.canonical))
        for n, (cls, contents) in off.items():
            assert model.prime_divisors[n].cls is cls and cls == contents

    @staticmethod
    def _compare_classes(model, dense):
        assert model.canonical_class == tuple(dense.canonical)
        for name, cls in dense.classes.items():
            div = model.prime_divisors[name]
            assert type(div.cls) is dict and set(div.cls) <= set(range(model.rank))
            assert all(div.cls.values())  # only nonzero coordinates are stored
            assert div.class_vector == tuple(cls)
            assert (div.square, div.k_degree) == (dense.pair(cls, cls), dense.pair(cls, dense.canonical))
            assert model.arithmetic_genus(name) == F(dense.twice_genus(cls), 2)

    @staticmethod
    def _compare_divisors(model, dense, data):
        n = model.rank
        names = st.sampled_from(sorted(dense.classes))
        qdivisors = st.builds(
            QDivisor,
            st.dictionaries(names, small_rationals, max_size=4),
            st.one_of(st.none(), st.lists(ints, min_size=n, max_size=n)),
        )
        vectors = st.lists(st.one_of(ints, small_rationals), min_size=n, max_size=n)
        for _ in range(5):
            d1, d2 = data.draw(st.one_of(names, qdivisors, vectors)), data.draw(qdivisors)
            u, v = dense.total(d1), dense.total(d2)
            assert model.total_class(d2) == tuple(v)
            value = model.intersect(d1, d2)
            assert type(value) is F and value == dense.pair(u, v)
            assert model.arithmetic_genus(d2) == F(dense.twice_genus(v), 2)


class TestPairingsByName:
    """The exceptional parts the model keeps up to date: on the random
    declare/blow-up sequences of `TestSparseClassesAgainstDenseReference`
    (curves declared after blow-ups with exceptional entries included), two
    names pair like the dense reference after every step, and the sparse Gram
    rows of a random set of curves are its dense Gram matrix."""

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_pairings_and_gram_rows_match_dense_reference(self, base, data):
        model = new_quadric() if base == "quadric" else new_plane()
        dense = DenseLattice(base)
        for name, cls in SPARSE_START[base].items():
            model.declare_curve(name, cls)
            dense.classes[name] = list(cls)
        for step in range(data.draw(st.integers(1, 7))):
            if data.draw(st.booleans()):
                TestSparseClassesAgainstDenseReference._declare(model, dense, f"D{step}", data)
            else:
                TestSparseClassesAgainstDenseReference._blow_up(model, dense, f"X{step}", data)
            assert sorted(model.prime_divisors) == sorted(dense.classes)
            for a, u in dense.classes.items():
                for b, v in dense.classes.items():
                    value = model.pairing(a, b)
                    assert type(value) is int and value == dense.pair(u, v)
        names = data.draw(st.lists(st.sampled_from(sorted(dense.classes)), unique=True))
        gram = [[dense.pair(dense.classes[a], dense.classes[b]) for b in names] for a in names]
        assert model.gram_rows(names) == [
            {j: x for j, x in enumerate(row) if x or i == j} for i, row in enumerate(gram)
        ]
        if is_negative_definite(gram):
            assert contract(model, names).gram == tuple(tuple(row) for row in gram)

    def test_a_curve_declared_after_blow_ups_meets_the_exceptional_curves(self):
        model = new_quadric()
        model.declare_curve("C", (1, 1))
        model.blow_up("E1", [("C", 1)])
        model.blow_up("E2")
        model.declare_curve("D", (1, 1, -1, -1))  # through both blown-up points
        assert [model.pairing("D", x) for x in ("C", "E1", "E2", "D")] == [1, 1, 1, 0]
        model.blow_up("E3", [("C", 1), ("D", 1)])
        assert [model.pairing("D", x) for x in ("C", "E1", "E2", "E3")] == [0, 1, 1, 1]

    def test_unknown_name_raises(self):
        model = new_quadric()
        model.declare_curve("C", (1, 1))
        with pytest.raises(GeometryError, match="unknown divisor name 'X'"):
            model.pairing("C", "X")
        with pytest.raises(GeometryError, match="unknown divisor name 'X'"):
            model.pairing("X", "X")


def _blocks(gram):
    """Connected blocks of the curves that ``gram`` pairs, as index lists."""
    seen, blocks = set(), []
    for start in range(len(gram)):
        if start not in seen:
            block = [start]
            seen.add(start)
            for i in block:
                block += [j for j, x in enumerate(gram[i]) if x and j not in seen]
                seen.update(block)
            blocks.append(block)
    return blocks


def _is_reduced_chain(gram, block):
    degrees = [sum(1 for j in block if j != i and gram[i][j]) for i in block]
    ones = all(gram[i][j] in (0, 1) for i in block for j in block if i != j)
    return ones and max(degrees) <= 2 and sum(degrees) == 2 * len(block) - 2


def with_chain(model, data):
    """Blow up a point and then, 4 to 7 times, a point on the last exceptional
    curve alone, plus a few points on single curves of the chain: a reduced
    chain of 5 to 8 curves, each of square <= -2 but the last, so negative
    definite.  Returns the chain's names."""
    chain = []
    for i in range(data.draw(st.integers(5, 8))):
        model.blow_up(f"Y{i}", [(chain[-1], 1)] if chain else [])
        chain.append(f"Y{i}")
    for i, name in enumerate(data.draw(st.lists(st.sampled_from(chain), max_size=4))):
        model.blow_up(f"W{i}", [(name, 1)])
    return chain


def with_branch(model, base, data):
    """A base curve made to square <= -2 with three arms of exceptional
    (-2)-or-lower curves, of lengths (1, 1, r) or (1, 2, r): a D- or E-type
    tree, so negative definite.  Returns the tree's names, centre first."""
    centre = data.draw(st.sampled_from(sorted(BASES[base][1])))
    tree = [centre]
    arms = data.draw(st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
                                      (1, 2, 4)]))
    for a, length in enumerate(arms):
        previous = centre
        for i in range(length):
            model.blow_up(f"A{a}x{i}", [(previous, 1)])
            previous = f"A{a}x{i}"
            tree.append(previous)
        model.blow_up(f"B{a}", [(previous, 1)])  # the arm's last curve to -2
    for i in range(int(model.intersect(centre, centre)) + 2):
        model.blow_up(f"V{i}", [(centre, 1)])
    for i, name in enumerate(data.draw(st.lists(st.sampled_from(tree), max_size=3))):
        model.blow_up(f"W{i}", [(name, 1)])
    return tree


def with_disjoint(model, block, data):
    """``block`` plus a random set of curves meeting none of it, shuffled."""
    others = [n for n in sorted(model.prime_divisors)
              if n not in block and all(model.intersect(n, b) == 0 for b in block)]
    extra = data.draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return data.draw(st.permutations(block + extra))


class TestBlockwiseContraction:
    """Contraction works block by block, each by one sparse elimination; one
    dense elimination of the whole contracted Gram matrix is the oracle."""

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_matches_dense_gram(self, base, data):
        model = random_tower(base, data, max_steps=10)
        names = data.draw(st.lists(st.sampled_from(sorted(model.prime_divisors)), unique=True))
        self._compare(model, names, data)

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_long_chains_match_dense_gram(self, base, data):
        model = random_tower(base, data, max_steps=4)
        chain = with_chain(model, data)
        assert self._compare(model, data.draw(st.permutations(chain)), data)
        names = with_disjoint(model, chain, data)
        gram = [[model.intersect(a, b) for b in names] for a in names]
        assert any(len(b) >= 5 and _is_reduced_chain(gram, b) for b in _blocks(gram))
        self._compare(model, names, data)

    @given(st.sampled_from(sorted(BASES)), st.data())
    @settings(deadline=None)
    def test_branched_blocks_match_dense_gram(self, base, data):
        model = random_tower(base, data, max_steps=4)
        tree = with_branch(model, base, data)
        assert self._compare(model, data.draw(st.permutations(tree)), data)
        names = with_disjoint(model, tree, data)
        gram = [[model.intersect(a, b) for b in names] for a in names]
        assert any(sum(1 for x in row if x) >= 4 for row in gram)  # a curve meeting three
        self._compare(model, names, data)

    @staticmethod
    def _compare(model, names, data):
        """The dense-Gram assertions; whether the curves were contractible."""
        gram = [[model.intersect(a, b) for b in names] for a in names]
        if not is_negative_definite(gram):
            with pytest.raises(NotContractibleError, match="not contractible"):
                contract(model, names)
            return False
        con = contract(model, names)
        assert con.gram == tuple(tuple(row) for row in gram)
        kept = sorted(set(model.prime_divisors) - set(names))
        d = QDivisor(
            data.draw(st.dictionaries(st.sampled_from(kept), small_rationals)) if kept else {},
            data.draw(st.lists(ints, min_size=model.rank, max_size=model.rank)),
        )
        pairings = [model.intersect(d, n) for n in names]
        expected = solve_linear(gram, [-x for x in pairings]) if names else []
        pullback = con.pullback(d)
        assert [pullback.coefficient(n) for n in names] == expected
        nef, degrees = con.is_relatively_nef(d)
        assert degrees == dict(zip(names, pairings)) and nef == all(x >= 0 for x in pairings)
        return True


def _fraction_hj(bs):
    """The continued fraction b1 - 1/(b2 - 1/(...)) evaluated in Fractions,
    canonicalized like SingularPointReport; None where it is undefined or
    not positive."""
    value = F(bs[-1])
    for b in reversed(bs[:-1]):
        if value == 0:
            return None
        value = b - 1 / value
    if value <= 0:
        return None
    n, q = value.numerator, value.denominator % value.numerator
    return (n, min(q, pow(q, -1, n)))


def chain_model(bs):
    """Curves L0..L(k-1) on a blown-up quadric, k <= 5, with L_i^2 = -b_i
    (b_i >= 1), meeting their neighbours once and nothing else.  Even
    positions have class (1, 0) and odd ones (0, 1), so neighbours meet once
    on the base; two curves of opposite rulings that are not neighbours pass
    through one common blown-up point, and every curve through private ones
    until its square is -b_i."""
    k = len(bs)
    points = [[] for _ in range(k)]
    shared = [(i, j) for i in range(k) for j in range(i + 3, k, 2)]
    for x, (i, j) in enumerate(shared):
        points[i].append(x)
        points[j].append(x)
    for i, b in enumerate(bs):
        assert len(points[i]) <= b
        points[i] += [len(shared) + sum(bs[:i]) + m for m in range(b - len(points[i]))]
    model = new_quadric()
    rank = 2 + len(shared) + sum(bs)
    for x in range(rank - 2):
        model.blow_up(f"P{x}")
    for i, on in enumerate(points):
        cls = [1, 0] if i % 2 == 0 else [0, 1]
        cls += [-1 if x in on else 0 for x in range(rank - 2)]
        model.declare_curve(f"L{i}", cls)
    return model


class TestChainContinuants:
    """Chains with b_i >= 1, degenerate and indefinite ones included: the
    sparse elimination agrees with the dense elimination and its inverse."""

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.data())
    @example(bs=[1, 1], data=None)
    @example(bs=[1, 2, 1], data=None)
    @example(bs=[2, 1, 2], data=None)
    @settings(deadline=None)
    def test_matches_elimination(self, bs, data):
        model = chain_model(bs)
        chain = [f"L{i}" for i in range(len(bs))]
        names = data.draw(st.permutations(chain)) if data else chain
        gram = [[model.intersect(a, b) for b in names] for a in names]
        assert [model.intersect(c, c) for c in chain] == [-b for b in bs]
        assert all(model.intersect(a, b) == (abs(i - j) == 1)
                   for i, a in enumerate(chain) for j, b in enumerate(chain) if i != j)
        if not is_negative_definite(gram):
            with pytest.raises(NotContractibleError, match="not contractible"):
                contract(model, names)
            return
        con = contract(model, names)
        inverse = invert(gram)
        for d in [model.canonical_divisor(), QDivisor({}, [1] + [0] * (model.rank - 1)),
                  QDivisor({"P0": F(1, 3)}, [0, 2] + [0] * (model.rank - 2))]:
            pairings = [model.intersect(d, n) for n in names]
            expected = [-sum(g * x for g, x in zip(row, pairings)) for row in inverse]
            assert expected == solve_linear(gram, [-x for x in pairings])
            pullback = con.pullback(con.pushforward(d))
            assert [pullback.coefficient(n) for n in names] == expected
        if all(b >= 2 for b in bs):
            [report] = con.classify_singularities()
            assert report.hj_type == hirzebruch_jung_type(bs) == _fraction_hj(bs)
            # read from the end that comes first among the contracted names
            first = min(chain[0], chain[-1], key=names.index)
            assert report.component == tuple(chain if first == chain[0] else chain[::-1])
            squares = tuple(model.intersect(c, c) for c in report.component)
            assert report.self_intersections == tuple(-x for x in squares)

    @given(st.lists(st.integers(-2, 6), min_size=1, max_size=10))
    @example(bs=[1, 1])
    @example(bs=[2, 0])
    @example(bs=[2, -1])
    @example(bs=[-3])
    def test_type_matches_continued_fraction(self, bs):
        expected = _fraction_hj(bs)
        if expected is None:
            with pytest.raises(GeometryError):
                hirzebruch_jung_type(bs)
            return
        assert hirzebruch_jung_type(bs) == expected
        gram = [[-b if i == j else int(abs(i - j) == 1) for j in range(len(bs))]
                for i, b in enumerate(bs)]
        if is_negative_definite(gram):
            assert hirzebruch_jung_type(bs[::-1]) == expected


def _sympy_class_group(rows, ncols):
    factors = [abs(int(x)) for x in sympy_snf(sympy.Matrix(rows)).diagonal() if x != 0]
    return ClassGroupReport(ncols - len(factors), tuple(sorted(x for x in factors if x > 1)))


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("p", range(2, 8))
def test_explorer_pullback_and_class_group_at_scale(p, n):
    """The explorer family far past the reference scenario: the pullbacks of
    K and of a surviving divisor are orthogonal to every contracted curve,
    pullback is linear, and the class group, alone and modulo the integral
    class p times the surviving divisor, matches sympy's Smith normal form."""
    report = explore_frobenius(p, n)
    con, model = report.contraction, report.construction.model
    k_target = con.pushforward(model.canonical_divisor())
    survivor = QDivisor({f"E{n}": F(1, p)}, (1,) + (0,) * (model.rank - 1))
    k_pullback, s_pullback = con.pullback(k_target), con.pullback(survivor)
    for pullback in (k_pullback, s_pullback):
        assert all(model.intersect(pullback, c) == 0 for c in con.contracted)
    assert con.pullback(k_target + survivor.scaled(3)) == k_pullback + s_pullback.scaled(3)
    rows = [model.prime_divisors[c].class_vector for c in con.contracted]
    assert con.class_group() == _sympy_class_group(rows, model.rank)
    cls = [int(x) for x in model.total_class(survivor.scaled(p))]
    assert con.class_group([cls]) == _sympy_class_group(rows + [cls], model.rank)


@st.composite
def sparse_relations(draw):
    """(rows, extra rows, ncols): sparse rows shaped like class-group
    relations, 0..8 rows of 0..9 columns plus 0..2 extra rows.  Entries in
    -6..6, mostly 0 and +-1, some rows zero and some repeated, and some rows
    scaled so that their pivots are not units."""
    ncols = draw(st.integers(0, 9))
    entries = st.one_of(st.sampled_from((0, 0, 0, 1, -1, 1, -1)), st.integers(-6, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for i in draw(st.sets(st.integers(0, 7), max_size=3)):
        if i < len(rows):
            action = draw(st.sampled_from(("zero", "repeat", "scale")))
            if action == "zero":
                rows[i] = [0] * ncols
            elif action == "repeat":
                rows.append(list(rows[i]))
            else:
                k = draw(st.sampled_from((2, 3, -2)))
                rows[i] = [k * x for x in rows[i]]
    extra = draw(st.lists(row, max_size=2))
    return rows, extra, ncols


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense(rows, ncols):
    return IntMatrix(len(rows), ncols, tuple(row.get(j, 0) for row in rows for j in range(ncols)))


def _min_rule_pivots(rows):
    """The pivot sequence of `sparse_pivot_pass` as it was first written:
    in each row, min() over every candidate that divides its column, keyed
    by the column's live length."""
    a = [dict(row) for row in rows]
    live = collections.defaultdict(set)
    for i, row in enumerate(a):
        for j in row:
            live[j].add(i)
    pivots, done, progress = [], set(), True
    while progress:
        progress = False
        for p in sorted((i for i, row in enumerate(a) if row and i not in done), key=lambda i: len(a[i])):
            row = a[p]
            if not row:  # cancelled earlier in this round
                continue
            g = math.gcd(*row.values())
            c = min((j for j, x in row.items()
                     if abs(x) == g and (g == 1 or all(a[k][j] % g == 0 for k in live[j]))),
                    key=lambda j: len(live[j]), default=None)
            if c is None:
                continue
            pivots.append((p, c))
            done.add(p)
            progress = True
            for j in row:
                live[j].discard(p)
            for i in list(live[c]):
                q = a[i][c] // row[c]
                for j, x in row.items():
                    if y := a[i].get(j, 0) - q * x:
                        a[i][j] = y
                        live[j].add(i)
                    else:
                        del a[i][j]
                        live[j].discard(i)
    return tuple(pivots)


class TestSparsePivotPass:
    """The class group's elimination: the certified pivot pass, the Smith
    normal form of its remainder and the divisor chain of both."""

    @given(sparse_relations())
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, case):
        rows, extra, ncols = case
        pp = sparse_pivot_pass(_sparse(rows + extra), ncols)
        factors, rest, ncols_left = pp.split()
        # the remainder is the nonzero non-pivot rows on exactly the columns they meet
        pivot_rows = {i for i, _ in pp.pivots}
        left = [row for i, row in enumerate(pp.rows) if row and i not in pivot_rows]
        assert (len(rest), ncols_left) == (len(left), len({j for row in left for j in row}))
        assert {j for row in rest for j in row} == set(range(ncols_left))
        ours = divisor_chain(factors + smith_normal_form(_dense(rest, ncols_left)).invariant_factors())
        full = rows + extra
        theirs = () if not full or not ncols else tuple(sorted(
            abs(int(x)) for x in sympy_snf(sympy.Matrix(full)).diagonal() if x != 0
        ))
        assert ours == theirs

    @given(sparse_relations())
    @settings(max_examples=300, deadline=None)
    def test_pivots_follow_the_min_rule(self, case):
        # trying the candidates shortest live column first and stopping at the
        # first that qualifies takes the column that min() over all qualifying
        # candidates takes
        rows, _, ncols = case
        assert sparse_pivot_pass(_sparse(rows), ncols).pivots == _min_rule_pivots(_sparse(rows))

    @pytest.mark.parametrize(
        "factors, chain",
        [((), ()), ((2, 3), (1, 6)), ((6, 4), (2, 12)), ((0, 5, -5, 1), (1, 5, 5)),
         ((4, 6, 10), (2, 2, 60)), ((3, 3, 9), (3, 3, 9))],
    )
    def test_divisor_chain(self, factors, chain):
        assert divisor_chain(factors) == chain

    @staticmethod
    def _reference_pass(ref):
        rows = [ref.model.prime_divisors[c].class_vector for c in ref.contraction.contracted]
        return sparse_pivot_pass(_sparse(rows), ref.model.rank)

    def test_reference_pass_has_non_unit_pivots_and_no_remainder(self, ref):
        pp = self._reference_pass(ref)
        factors, rest, ncols = pp.split()
        assert sorted(factors) == [1] * 7 + [3] * 3
        assert (len(rest), ncols) == (0, 0)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda pp: pp.rows[0].update({0: pp.rows[0].get(0, 0) + 1}), r"U\*M != A"),
            (lambda pp: pp.matrix[1].update({1: pp.matrix[1].get(1, 0) + 1}), r"U\*M != A"),
            (lambda pp: pp.u_inverse[0].update({1: 5}), r"U\*U\^-1 != I"),
            (lambda pp: pp._replace(pivots=pp.pivots[::-1]), "triangular"),
            (lambda pp: pp._replace(pivots=(*pp.pivots[:-1], (pp.pivots[-1][0], 4))),
             "divide"),
            (lambda pp: pp._replace(pivots=(*pp.pivots, pp.pivots[0])), "share"),
            (lambda pp: pp._replace(
                matrix=(*pp.matrix, {2: 1}), rows=(*pp.rows, {2: 1}),
                u=(*pp.u, {len(pp.u): 1}), u_inverse=(*pp.u_inverse, {len(pp.u): 1})),
             "non-pivot row"),
        ],
    )
    def test_tampered_certificate_raises(self, ref, tamper, message):
        pp = self._reference_pass(ref)
        _certify_pivot_pass(pp)
        tampered = tamper(pp) or pp
        with pytest.raises(AssertionError, match=message):
            _certify_pivot_pass(tampered)


def _fresh_class_group(classes, extra, rank):
    """The class group as `Contraction.class_group` found it before it kept
    its pass: one fresh pass over the contracted and the extra classes, its
    split, the Smith normal form of its remainder and the divisor chain."""
    factors, rest, ncols = sparse_pivot_pass(classes + extra, rank).split()
    factors = divisor_chain(factors + smith_normal_form(_dense(rest, ncols)).invariant_factors())
    return ClassGroupReport(rank - len(factors), tuple(x for x in factors if x > 1))


@st.composite
def contracted_blow_ups(draw):
    """(model, contracted names, extra rows): the explorer's (p, n) surface
    for p in 2..4 and n in 1..3, blown up at up to three more points on
    random sets of its curves; contracted, its contracted curves less up to
    two (or, when that set is not negative definite, the exceptional curves
    among them); and zero to three integral extra rows, some of them a
    multiple of a contracted class plus a 0/1 row."""
    built = frobenius_construction(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    model, added = built.model, []
    for i in range(draw(st.integers(0, 3))):
        incident = draw(st.lists(st.sampled_from(sorted(model.prime_divisors)), unique=True, max_size=2))
        try:
            model.blow_up(f"Z{i}", [(name, 1) for name in incident])
        except GeometryError:  # the curves do not meet often enough there
            continue
        added.append(f"Z{i}")
    candidates = built.contracted_names + added
    dropped = draw(st.sets(st.sampled_from(candidates), max_size=2))
    names = [n for n in candidates if n not in dropped]
    try:
        contract(model, names)
    except NotContractibleError:  # the strict transforms of exceptional curves always contract
        names = [n for n in names if n != built.curve and n not in built.fibers]
    entries = st.one_of(st.sampled_from((0, 0, 0, 1, -1)), st.integers(-6, 6))
    extra = draw(st.lists(st.lists(entries, min_size=model.rank, max_size=model.rank), max_size=3))
    for row in extra:
        if names and draw(st.booleans()):
            k, g = draw(st.sampled_from((2, 3, -3))), model.prime_divisors[draw(st.sampled_from(names))]
            row[:] = [k * x + draw(st.sampled_from((0, 0, 1))) for x in g.class_vector]
    return model, names, extra


@given(contracted_blow_ups())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kept_pass_class_group_matches_a_fresh_pass(case):
    """`class_group` from the kept pass equals a fresh pass over the
    contracted and the extra classes, in either call order on one
    contraction, and again after a later blow-up of the model."""
    model, names, extra = case
    classes = [dict(model.sparse_class(n)) for n in names]
    rank, sparse_extra = model.rank, _sparse(extra)
    plain, with_extra = _fresh_class_group(classes, [], rank), _fresh_class_group(classes, sparse_extra, rank)
    first = contract(model, names)
    assert first.class_group() == plain
    assert first.class_group(extra) == with_extra
    second = contract(model, names)
    assert second.class_group(extra) == with_extra
    assert second.class_group() == plain
    model.blow_up("Z", [(names[0], 1)] if names else [])
    longer = [row + [3] for row in extra]
    assert first.class_group() == _fresh_class_group(classes, [], rank + 1)
    assert first.class_group(longer) == _fresh_class_group(classes, _sparse(longer), rank + 1)


@pytest.mark.parametrize("p, n", [(3, 3), (2, 5), (5, 4), (7, 3)])
def test_degree_against_is_pullback_pairing(p, n):
    _check_degrees(explore_frobenius(p, n).contraction, [f"E{n}"])


def test_degree_against_is_pullback_pairing_on_bundled_scenario():
    run = bundled_scenario().build()
    _check_degrees(run.contraction, list(run.divisors.values()) + ["E1", "E2"])


def _check_degrees(con, extra_witnesses):
    """D.W* with the cached corrected witness equals pullback(D).W, for the
    default witness, a named one, a tuple, a list and a QDivisor (the last
    two not cached), each asked twice."""
    model = con.source
    k_target = con.pushforward(model.canonical_divisor())
    survivor = QDivisor({"E1": F(1, 3), "E2": 2}, (0, 1) + (0,) * (model.rank - 2))
    vector = tuple((-1) ** j * (j % 3) for j in range(model.rank))
    witnesses = [None, (0, 1) + (0,) * (model.rank - 2), vector, list(vector), *extra_witnesses]
    for d in (k_target, -k_target, survivor):
        pulled = con.pullback(d)
        for w in witnesses:
            expected = model.intersect(pulled, (1,) + (0,) * (model.rank - 1) if w is None else w)
            assert con.degree_against(d, w) == expected
            assert con.degree_against(d, w) == expected


@pytest.mark.parametrize("source", ["bundled", "explorer-5-4"])
def test_degree_against_rational_and_uncached_witnesses(source):
    """The integer witness correction on rational input: divisors with a 1/2
    coefficient on a surviving curve, against a QDivisor witness with one (not
    cached) and a tuple witness holding a Fraction entry (cached), each asked
    twice.  The cached pair is the corrected witness W* in lowest terms, with
    W* solved here from the dense Gram matrix."""
    con = bundled_scenario().build().contraction if source == "bundled" else (
        explore_frobenius(5, 4).contraction)
    model = con.source
    survivor = next(n for n in sorted(model.prime_divisors) if n not in con.contracted)
    k_target = con.pushforward(model.canonical_divisor())
    half = QDivisor({survivor: F(1, 2)})
    rational = (F(1, 2), F(-1, 3)) + (0,) * (model.rank - 2)
    for d in (half, k_target + half, k_target.scaled(3) - half.scaled(5)):
        pulled = con.pullback(d)
        for w in (half, rational):
            expected = model.intersect(pulled, w)
            assert con.degree_against(d, w) == expected
            assert con.degree_against(d, w) == expected
    assert rational in con._witnesses
    for w in (half, rational):
        coeffs = solve_linear(con.gram, [-model.intersect(w, g) for g in con.contracted])
        star = list(model.total_class(w))
        for c, g in zip(coeffs, con.contracted):
            star = [x + c * y for x, y in zip(star, model.prime_divisors[g].class_vector)]
        scale = math.lcm(*(F(x).denominator for x in star))
        assert con._corrected_witness(w) == ({j: int(x * scale) for j, x in enumerate(star) if x}, scale)


@pytest.mark.parametrize("p, n, rank", [(5, 200, 1002), (11, 11, 123)], ids=["p5-n200", "p11-n11"])
def test_class_group_closed_form_at_rank_1002(p, n, rank):
    con = explore_frobenius(p, n).contraction
    assert con.source.rank == rank
    assert con.class_group() == ClassGroupReport(1, (p,) * n)


def _sum_of_towers(exploration):
    """The class of E_1 + ... + E_n, the last blow-up of each tower."""
    construction = exploration.construction
    return list(construction.model.total_class(QDivisor({tower[-1]: 1 for tower in construction.towers})))


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_class_group_modulo_the_sum_of_towers(p, n):
    """Cl(T)/<E_1 + ... + E_n> = (Z/p)^(n-1) + Z/(pn): the polarization meets
    every tower, so the kept pass leaves a remainder of n rows on n columns."""
    exploration = explore_frobenius(p, n)
    con, model = exploration.contraction, exploration.construction.model
    rows = [model.prime_divisors[c].class_vector for c in con.contracted]
    polarization = _sum_of_towers(exploration)
    expected = ClassGroupReport(0, (p,) * (n - 1) + (p * n,))
    assert con.class_group([polarization]) == _sympy_class_group(rows + [polarization], model.rank) == expected


def test_class_group_modulo_the_sum_of_towers_at_rank_10002():
    # the remainder meets 2000 columns; written out densely between the two
    # pivot passes it took about 0.6 s
    exploration = explore_frobenius(5, 2000)
    con, polarization = exploration.contraction, _sum_of_towers(exploration)
    assert con.class_group() == ClassGroupReport(1, (5,) * 2000)
    start = time.perf_counter()
    group = con.class_group([polarization])
    elapsed = time.perf_counter() - start
    assert group == ClassGroupReport(0, (5,) * 1999 + (10000,))
    assert elapsed < 0.3, elapsed


def _dense_transfer(con, d):
    """The oracle for a sparse transfer: D paired with every class the
    contraction keeps, and one dense solve over the whole contracted Gram
    matrix, so over every block, met or not.  (D.G for each G, a)."""
    model = con.source
    total = model.sparse_class(d)
    pairings = [model.pairing(total, cls) for cls in con._classes]
    return pairings, solve_linear(con.gram, [-x for x in pairings]) if pairings else []


@given(st.sampled_from(["explorer", "quadric", "plane"]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sparse_transfer_matches_dense_oracle(source, late, data):
    """`Contraction` pairs a divisor only with the contracted curves it meets
    and solves only their blocks.  Against `_dense_transfer`, on the
    explorer's surfaces with extra blow-ups and on plane and quadric towers
    with a chain or a branched block (and the curves disjoint from it), some
    with the model blown up after `contract`: the witness correction behind
    `degree_against` for the default witness first (the base alone), a
    caller's sparse map, a vector with Fraction entries and surviving names;
    `degree_against` itself on a rank-one target; `pullback` of -K and of a
    divisor with Fraction coefficients and a residual; `discrepancies`; and
    `is_relatively_nef` of all of these and of two contracted names."""
    if source == "explorer":
        model, names, _ = data.draw(contracted_blow_ups())
    else:
        model = random_tower(source, data, max_steps=4)
        block = with_chain(model, data) if data.draw(st.booleans()) else with_branch(model, source, data)
        names = with_disjoint(model, block, data)
        if not is_negative_definite([[model.intersect(a, b) for b in names] for a in names]):
            names = block
    con = contract(model, names)
    kept = sorted(set(model.prime_divisors) - set(names))
    if late:
        model.blow_up("Late", [(data.draw(st.sampled_from(sorted(model.prime_divisors))), 1)])
        kept.append("Late")
    rank, entries = model.rank, st.one_of(ints, small_rationals).filter(bool)
    divisors = [
        con.pushforward(model.canonical_divisor()),
        QDivisor(data.draw(st.dictionaries(st.sampled_from(kept), small_rationals)) if kept else {},
                 data.draw(st.lists(ints, min_size=rank, max_size=rank))),
    ]
    witnesses = [None, data.draw(st.dictionaries(st.integers(0, rank - 1), entries)),
                 tuple(data.draw(st.lists(st.one_of(ints, small_rationals), min_size=rank, max_size=rank))),
                 *kept[:2]]
    for w in witnesses:
        vector = model.total_class((1,) + (0,) * (rank - 1) if w is None else w)
        _, c = _dense_transfer(con, vector)
        star = list(vector)
        for x, cls in zip(c, con._classes):
            for j, y in cls.items():
                star[j] += x * y
        scale = math.lcm(*(F(x).denominator for x in star))
        assert con._corrected_witness(w) == ({j: int(x * scale) for j, x in enumerate(star) if x}, scale)
        if con.target_rank == 1:
            for d in divisors:
                pulled = QDivisor({**d.named, **dict(zip(names, _dense_transfer(con, d)[1]))}, d.residual)
                assert con.degree_against(d, w) == model.intersect(pulled, vector)
    for d in divisors:
        pullback = con.pullback(d)
        assert [pullback.coefficient(n) for n in names] == _dense_transfer(con, d)[1]
    discreps, _ = con.discrepancies()
    assert discreps == {n: -a for n, a in zip(names, _dense_transfer(con, divisors[0])[1])}
    assert all(type(a) is F for a in discreps.values())
    for d in [*divisors, *witnesses[1:], *names[:2]]:
        pairings, _ = _dense_transfer(con, d)
        assert con.is_relatively_nef(d) == (all(x >= 0 for x in pairings), dict(zip(names, pairings)))


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


# subclasses of the JSON types, which the stdlib writes as their base types
class Colour(enum.IntEnum):
    RED = 1


class Shade(str, enum.Enum):
    DARK = "dark"


class Ratio(float):
    pass


Pair = collections.namedtuple("Pair", "left right")

# every code point, lone surrogates and control characters included
json_text = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | st.floats()
    | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=20,
)


class TestCanonicalJson:
    """`canonical_json` writes the bytes of the stdlib's ``indent=2`` encoder."""

    @staticmethod
    def stdlib(value):
        return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    @given(json_values)
    @example(float("nan"))
    @example([float("inf"), float("-inf"), -0.0, 1e300])
    @example({"\ud800": "\x00\x1f\x7f\u2028\"\\", "": [], "a": {}, "b": ()})
    @example([Colour.RED, Shade.DARK, Ratio(0.5), Pair(1, "x"), collections.OrderedDict(b=1, a=())])
    # the keys of each dict are sorted once per call, by its key tuple: one key
    # set in two insertion orders, at two depths, and in an OrderedDict
    @example([{"b": 1, "a": 2}, {"a": 3, "b": 4}, {"b": [5], "a": None}])
    @example({"b": {"b": {"a": 1, "b": "x"}, "a": [{"b": True, "a": {}}]}, "a": 2})
    @example([collections.OrderedDict(b=1, a=2), {"b": 3, "a": 4}, {"a": 5, "b": 6}])
    @settings(max_examples=500)
    def test_matches_stdlib_bytes(self, value):
        assert canonical_json(value) == self.stdlib(value)

    @pytest.mark.parametrize("value", [object(), F(1, 2), {"a": [1, {2}]}])
    def test_unserialisable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            self.stdlib(value)
        with pytest.raises(TypeError):
            canonical_json(value)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no int-to-str digit limit",
    )
    def test_int_past_digit_limit_raises_value_error(self):
        value = [10 ** sys.get_int_max_str_digits()]
        with pytest.raises(ValueError):
            self.stdlib(value)
        with pytest.raises(ValueError):
            canonical_json(value)


def nested(value, depth):
    """``value`` inside ``depth`` containers, a dict and a list by turns, each
    with a scalar sibling."""
    for level in range(depth):
        value = {"k": value, "s": level} if level % 2 else [level, value]
    return value


class TestBufferWriter:
    """The shapes the one-buffer writer's head cache must tell apart, each
    against the stdlib's ``indent=2`` bytes."""

    @staticmethod
    def assert_stdlib_bytes(value):
        # compared line by line: pytest explains a mismatch of two lists by
        # the first index that differs, but diffs two long texts for minutes
        lines = canonical_json(value).split("\n")
        assert lines == TestCanonicalJson.stdlib(value).split("\n")

    @pytest.mark.parametrize("value", [
        # the key set {"a", "b"} at three depths, holding scalars at one and containers at others
        {"a": {"a": {"a": 1, "b": "x"}, "b": [{"b": None, "a": True}]}, "b": 2},
        [{"a": 1, "b": 2}, [{"b": [3], "a": {}}], [[{"a": {"a": 4, "b": 5}, "b": ()}]]],
        {"b": [{"a": [], "b": [{"a": "y", "b": 6}]}], "a": {"b": {"a": [7], "b": {"a": 8, "b": 9}}}},
    ])
    def test_one_key_set_at_three_depths(self, value):
        self.assert_stdlib_bytes(value)

    @pytest.mark.parametrize("empty", [{}, [], ()], ids=["dict", "list", "tuple"])
    @pytest.mark.parametrize("depth", range(6))
    def test_empty_container_at_every_depth(self, empty, depth):
        value = nested(empty, depth)
        self.assert_stdlib_bytes(value)
        value = [empty, value, empty]
        self.assert_stdlib_bytes(value)

    def test_nested_200_levels(self):
        value = nested("leaf", 200)
        self.assert_stdlib_bytes(value)

    def test_table_of_2000_rows(self):
        rows = [
            {"a": f"E{i}", "b": f"Cé{i % 7}", "expect": i - 1000} if i % 3
            else {"expect": f"{i}/3", "b": f"C{i}", "a": None}
            for i in range(2000)
        ]
        value = {"checks": [{"kind": "intersection-table", "entries": rows}]}
        self.assert_stdlib_bytes(value)

    def test_past_the_recursion_limit_raises_recursion_error(self):
        value = []
        for _ in range(sys.getrecursionlimit() + 10):
            value = [value]
        with pytest.raises(RecursionError):
            canonical_json(value)


# The shapes of the report (`Report.to_dict`, with each check kind's details)
# and of the exploration (`exploration_to_dict`), for generating values like
# them: the names of each object's fields, and which of them hold an object or
# a list of objects.  Any other field holds a ``VALUE``, any JSON value, and a
# ``RESULT`` is a check's result, whose details take its kind's shape.
VALUE, RESULT = "<value>", "<result>"


def fields(*names, **nested):
    """An object whose fields ``names`` hold a ``VALUE`` and whose fields
    ``nested`` hold the object or list of objects given."""
    return {**dict.fromkeys(names, VALUE), **nested}


REPORT_SHAPE = fields(
    "schema", "passed", "first_failure", scenario=fields("name", "digest"), checks=[RESULT]
)
POINT_SHAPE = fields("component", "self_intersections", "type", "label")
DIVISOR_SHAPE = fields("coefficients", "residual")
CLASS_GROUP_SHAPE = fields("rank", "torsion")
# a check that raised GeometryError has "error", its message, and no other field
DETAILS_SHAPES = {
    "intersection-table": fields("count", "error", entries=[fields("a", "b", "value")]),
    "canonical-pullback": fields(
        "pullback_corrections", "discrepancies", "classification", "min_discrepancy", "error"
    ),
    "rank-one-positivity": fields(
        "target_rank", "degrees", "proportionality", "ample", "error", class_group=CLASS_GROUP_SHAPE
    ),
    "singular-points": fields(
        "total", "error", census=[fields("n", "q", "count")], points=[POINT_SHAPE]
    ),
    "anticanonical-sections": fields(
        "identity_holds", "base_bidegree", "h0", "difference_class", "error"
    ),
    "kvv-failure": fields(
        "relatively_nef", "nef_degrees", "k_dot_floor", "floor_squared", "euler_characteristic",
        "h1_nonzero", "not_globally_f_split", "no_w2_liftable_log_resolution", "nef_hypothesis_note",
        "error", expansion=DIVISOR_SHAPE, floor=DIVISOR_SHAPE,
    ),
    "cone": fields(
        "r", "section_discrepancy", "q_gorenstein", "crepant_partial_resolution", "cm",
        "certificate_m", "klt_note", "error", class_group=CLASS_GROUP_SHAPE,
    ),
}
EXPLORATION_SHAPE = fields(
    "schema", "p", "points", "target_rank", "anticanonical_degree", "verdict", "census",
    "provenance", singular_points=[POINT_SHAPE],
)


# perturbations of a value of an output shape, each given the value and a junk
# JSON value; a perturbation that does not apply leaves the value as it is
PERTURBATIONS = (
    lambda v, junk: {**v, "zz-extra": junk} if type(v) is dict else v,  # an extra key
    lambda v, junk: {k: v[k] for k in sorted(v)[1:]} if type(v) is dict else v,  # a missing key
    lambda v, junk: junk,  # a wrong type
    lambda v, junk: bool(v % 2) if type(v) is int else v,  # a bool where an int goes
    lambda v, junk: Colour.RED if type(v) is int else v,  # an IntEnum
    lambda v, junk: Shade.DARK if type(v) is str else v,  # a str Enum
    lambda v, junk: collections.OrderedDict(reversed(v.items())) if type(v) is dict else v,
    lambda v, junk: Pair(*v) if type(v) is list and len(v) == 2 else v,  # a namedtuple
    lambda v, junk: {**v, "kind": "zz-unknown"} if type(v) is dict and "kind" in v else v,
)


def perturbed(strategy):
    """``strategy``, with about one value in five perturbed."""

    def pick(i):
        if i >= len(PERTURBATIONS):
            return strategy
        return st.tuples(strategy, json_values).map(lambda t: PERTURBATIONS[i](*t))

    return st.integers(0, 4 * len(PERTURBATIONS)).flatmap(pick)


def shaped(node):
    """Values of the output shape ``node``, each object holding any of its
    fields, any node of which may be perturbed; a check result's details may
    instead be the ``{"error": ...}`` of a check that raised."""
    if node == VALUE:
        strategy = json_values
    elif node == RESULT:
        strategy = st.one_of([
            st.fixed_dictionaries({
                "kind": st.just(kind),
                "passed": st.booleans(),
                "details": shaped(details) | st.fixed_dictionaries({"error": json_text}),
                "mismatches": st.lists(json_text, max_size=2),
            })
            for kind, details in DETAILS_SHAPES.items()
        ])
    elif type(node) is list:
        strategy = st.lists(shaped(node[0]), max_size=3)
    else:  # an object
        strategy = st.fixed_dictionaries({}, optional={k: shaped(v) for k, v in node.items()})
    return perturbed(strategy)


def tagged(node, tag):
    """`shaped` values of ``node`` that carry ``tag`` as their "schema", but for
    about one in ten."""
    return st.tuples(shaped(node), st.integers(0, 9)).map(
        lambda t: {**t[0], "schema": tag} if t[1] and type(t[0]) is dict else t[0]
    )


class TestCompiledOutputWriters:
    """`canonical_json` gives the stdlib's ``indent=2`` bytes for values shaped
    like a report or an exploration, tagged with their "schema" or not, and
    for any perturbation of them."""

    @given(tagged(REPORT_SHAPE, REPORT_SCHEMA) | tagged(EXPLORATION_SHAPE, EXPLORATION_SCHEMA))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_stdlib_bytes(self, value):
        assert canonical_json(value) == TestCanonicalJson.stdlib(value)
