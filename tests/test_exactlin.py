from fractions import Fraction as F

import pytest

from blowdown import exactlin
from blowdown.errors import SingularMatrixError
from blowdown.exactlin import (
    IntMatrix,
    determinant,
    invert,
    is_negative_definite,
    signature,
    smith_normal_form,
    solve_linear,
)


def test_solve_identity():
    assert solve_linear([[1, 0], [0, 1]], [5, -3]) == [F(5), F(-3)]


def test_solve_two_curve_chain_block():
    # the (-2,-2) chain block with right-hand side (0, -1)
    assert solve_linear([[-2, 1], [1, -2]], [0, -1]) == [F(1, 3), F(2, 3)]


def test_solve_single_minus_three_block():
    assert solve_linear([[-3]], [-1]) == [F(1, 3)]


def test_solve_exactness_on_fixed_system():
    g = [[F(1, 2), 3, -1], [2, F(-5, 7), 0], [1, 1, 1]]
    b = [F(9, 4), -3, F(1, 6)]
    x = solve_linear(g, b)
    for row, target in zip(g, b):
        assert sum(a * v for a, v in zip(row, x)) == target


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1, 2], [2, 4]], [1, 1])


def test_solve_shape_errors():
    with pytest.raises(ValueError):
        solve_linear([[1, 2, 3], [4, 5, 6]], [1, 2])
    with pytest.raises(ValueError):
        solve_linear([[1, 0], [0, 1]], [1, 2, 3])


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 2], [3]], "matrix is not square: 2 rows, row 1 of length 1"),
        ([[1], [2, 3]], "matrix is not square: 2 rows, row 0 of length 1"),
        ([[1, 2, 3], [4, 5, 6]], "matrix is not square: 2 rows, row 0 of length 3"),
    ],
    ids=["short-last-row", "short-first-row", "wide"],
)
def test_not_square_names_the_first_row_of_another_length(rows, message):
    with pytest.raises(ValueError) as info:
        solve_linear(rows, [1, 2])
    assert str(info.value) == message


def test_invert_round_trip():
    g = [[-2, 1], [1, -2]]
    inv = invert(g)
    assert inv == [[F(-2, 3), F(-1, 3)], [F(-1, 3), F(-2, 3)]]


def test_determinant():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([]) == 1


class TestNegativeDefinite:
    def test_single_minus_one(self):
        assert is_negative_definite([[-1]]) is True

    def test_fiber_class_zero(self):
        assert is_negative_definite([[0]]) is False

    def test_positive(self):
        assert is_negative_definite([[2]]) is False

    def test_empty_is_vacuously_definite(self):
        assert is_negative_definite([]) is True

    def test_chain_block(self):
        assert is_negative_definite([[-2, 1], [1, -2]]) is True

    def test_indefinite(self):
        assert is_negative_definite([[-1, 2], [2, -1]]) is False

    def test_parabolic_cycle(self):
        cycle = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
        assert is_negative_definite(cycle) is False

    def test_non_symmetric_raises(self):
        with pytest.raises(ValueError):
            is_negative_definite([[1, 2], [3, 4]])

    def test_ten_curve_configuration(self):
        # Gram of {C} + three blocks {F_i} + {G_i, H_i} after the nine blow-ups
        gram = [[0] * 10 for _ in range(10)]
        gram[0][0] = -3  # C
        for i in range(3):
            f, g, h = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
            gram[f][f] = -3
            gram[g][g] = gram[h][h] = -2
            gram[g][h] = gram[h][g] = 1
        assert is_negative_definite(gram) is True


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_zero_pivot_with_cancelling_complement(self):
        assert signature([[0, 1], [1, -2]]) == (1, 1, 0)

    def test_degenerate(self):
        assert signature([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == (1, 1, 1)

    def test_empty(self):
        assert signature([]) == (0, 0, 0)


class TestIntMatrix:
    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_integer_entries_validated(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, (F(1, 2),))

    def test_bareiss_determinant(self):
        m = IntMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert determinant(m.to_rows()) == 4
        assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]]).to_rows()) == 0

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).to_rows() == [[2, 1], [4, 3]]


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.d.diagonal() == (1, 1)

    def test_reduction(self):
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.d.diagonal() == (2, 4)

    def test_zero(self):
        assert smith_normal_form([[0]]).d.diagonal() == (0,)

    def test_rectangular(self):
        snf = smith_normal_form([[1, 2, 3], [4, 5, 6]])
        assert snf.invariant_factors() == (1, 3)
        assert snf.rank() == 2

    def test_negative_entries(self):
        snf = smith_normal_form([[-4, 0], [0, -6]])
        assert snf.d.diagonal() == (2, 12)

    def test_empty_relation_matrix(self):
        snf = smith_normal_form(IntMatrix(0, 5, ()))
        assert snf.invariant_factors() == ()

    def test_transforms_certify_decomposition(self):
        m = IntMatrix.from_rows([[6, 10, 15], [10, 15, 6], [15, 6, 10]])
        snf = smith_normal_form(m)
        assert (snf.u @ m @ snf.v).entries == snf.d.entries
        assert abs(determinant(snf.u.to_rows())) == 1
        assert abs(determinant(snf.v.to_rows())) == 1

    @pytest.mark.parametrize(
        "arg, i, j, entry, message",
        [
            (4, 0, 0, lambda x: x + 1, r"U\*U\^-1 != I"),
            (5, 2, 1, lambda x: x - 1, r"V\*V\^-1 != I"),
            (0, 1, 2, lambda x: x + 1, r"U\*M\*V != D"),
            (2, 0, 1, lambda x: 1, "D is not diagonal"),
            (2, 0, 0, lambda x: -1, "D has a negative entry"),
            (2, 1, 1, lambda x: 2, "divisibility chain broken"),
            (2, 1, 1, lambda x: 0, "zero before nonzero"),
        ],
        ids=["u-inverse", "v-inverse", "product", "off-diagonal", "negative", "chain", "zero-first"],
    )
    def test_tampered_certificate_raises(self, monkeypatch, arg, i, j, entry, message):
        # the arguments (M, U, D, V, U^-1, V^-1) that smith_normal_form hands
        # to its check, D = diag(1, 1, 1891), with one entry changed
        seen = []
        validate = exactlin._validate_snf
        monkeypatch.setattr(exactlin, "_validate_snf", lambda *args: seen.append(args) or validate(*args))
        smith_normal_form([[6, 10, 15], [10, 15, 6], [15, 6, 10]])
        args = list(seen[0])
        assert args[2].diagonal() == (1, 1, 1891)
        rows = args[arg].to_rows()
        rows[i][j] = entry(rows[i][j])
        args[arg] = IntMatrix.from_rows(rows)
        with pytest.raises(AssertionError, match=message):
            validate(*args)

    def test_contracted_class_relation_matrix(self):
        # rows: F_i, G_i, H_i for i = 1..3 and C, in the rank-11 basis;
        # golden invariant factors fixed by an independent pre-build oracle
        def row(fx, fy, block, triple):
            v = [0] * 11
            v[0], v[1] = fx, fy
            for offset, value in triple:
                v[2 + 3 * block + offset] = value
            return v

        rows = []
        for i in range(3):
            rows.append(row(1, 0, i, [(0, -1), (1, -1), (2, -1)]))  # F_i
            rows.append(row(0, 0, i, [(0, 1), (1, -1)]))  # G_i
            rows.append(row(0, 0, i, [(1, 1), (2, -1)]))  # H_i
        c = [1, 3] + [-1] * 9
        rows.append(c)
        snf = smith_normal_form(rows)
        assert snf.invariant_factors() == (1, 1, 1, 1, 1, 1, 1, 3, 3, 3)
