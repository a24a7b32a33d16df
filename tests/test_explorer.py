import sys
from fractions import Fraction as F

import pytest

import blowdown.explorer as explorer_module
from blowdown import ClassGroupReport, GeometryError, SingClass, explore_frobenius
from blowdown.cli import main
from blowdown.explorer import (
    EXTRAPOLATED_PROVENANCE,
    MAX_LATTICE_RANK,
    REFERENCE_PROVENANCE,
    _curve_square,
    frobenius_construction,
    tower_names,
)


def test_tower_names():
    assert tower_names(3, 1) == ["G1", "H1", "E1"]
    assert tower_names(2, 2) == ["H2", "E2"]
    assert tower_names(5, 1) == ["G1x1", "G1x2", "G1", "H1", "E1"]


def test_reference_parameters_rebuild_the_bundled_surface(ref):
    construction = frobenius_construction(3, 3)
    assert construction.model.gram == ref.model.gram
    assert construction.model.canonical_class == ref.model.canonical_class
    assert construction.contracted_names == list(ref.contraction.contracted)
    assert {
        n: d.class_vector for n, d in construction.model.prime_divisors.items()
    } == {n: d.class_vector for n, d in ref.model.prime_divisors.items()}


def test_explore_reference():
    report = explore_frobenius(3, 3)
    assert report.target_rank == 1
    assert report.anticanonical_degree == 1
    assert report.verdict == "del_pezzo"
    assert report.census == ((3, 1, 4), (3, 2, 3))
    assert len(report.singular_points) == 7
    assert report.provenance == REFERENCE_PROVENANCE


def test_explore_p5():
    # degree solved by hand before the build: correction (p-2)/p on the
    # curve, degree 2 - p*(p-2)/p = 4 - p = -1
    report = explore_frobenius(5, 3)
    assert report.anticanonical_degree == -1
    assert report.verdict == "canonically_ample"
    assert report.target_rank == 1
    assert report.census == ((5, 1, 4), (5, 4, 3))
    assert report.provenance == EXTRAPOLATED_PROVENANCE


def test_explore_p4_is_k_trivial():
    report = explore_frobenius(4, 3)
    assert report.anticanonical_degree == 0
    assert report.verdict == "K_trivial"


def test_explore_p2():
    # no reference expectation for p = 2; the engine's own exact output:
    # seven A_1 points and anticanonical degree 2
    report = explore_frobenius(2, 3)
    assert report.anticanonical_degree == 2
    assert report.verdict == "del_pezzo"
    assert report.census == ((2, 1, 7),)
    assert report.provenance == EXTRAPOLATED_PROVENANCE


def test_explore_more_points():
    # degree formula 2 - p + 2/(n-2): zero at (3, 4), fractional at (3, 5)
    report = explore_frobenius(3, 4)
    assert report.target_rank == 1
    assert report.anticanonical_degree == 0
    assert report.verdict == "K_trivial"
    report5 = explore_frobenius(3, 5)
    assert report5.anticanonical_degree == F(-1, 3)
    assert report5.verdict == "canonically_ample"


def test_explore_too_few_points():
    with pytest.raises(GeometryError, match="not contractible"):
        explore_frobenius(3, 2)
    with pytest.raises(GeometryError, match="not contractible"):
        explore_frobenius(5, 1)


def test_too_few_points_are_refused_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(explorer_module, "frobenius_construction", lambda *args: calls.append(args))
    for p, n, square in [(3, 2, 0), (5, 1, 5), (50_000, 2, 0)]:
        with pytest.raises(GeometryError) as info:
            explore_frobenius(p, n)
        assert str(info.value) == f"C not contractible (C^2 = {square} >= 0); need n_points >= 3"
    assert calls == []


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("p", [2, 3, 7])
def test_curve_square_closed_form(p, n):
    assert _curve_square(p, n) == frobenius_construction(p, n).model.intersect("C", "C")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_explore_out_writes_the_bytes_stdout_gives(tmp_path, capsys, fmt):
    args = ["explore", "--p", "5", "--points", "5", "--format", fmt]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / f"explore.{fmt}"
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode("utf-8")


def test_explore_unwritable_out_exits_two(capsys):
    assert main(["explore", "--p", "3", "--points", "3", "--out", "/nonexistent-dir/x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_explore_parameter_validation():
    with pytest.raises(GeometryError, match="p must be"):
        explore_frobenius(1, 3)
    with pytest.raises(GeometryError, match="n_points"):
        explore_frobenius(3, 0)


@pytest.mark.parametrize("build", [explore_frobenius, frobenius_construction])
@pytest.mark.parametrize(
    "p, n, message",
    [
        (3, True, "n_points must be an integer >= 1, got True"),
        (True, 3, "p must be an integer >= 2, got True"),
    ],
    ids=["n", "p"],
)
def test_bool_parameters_are_refused(build, p, n, message):
    # True == 1 as an int, but a flag is no point count: (3, True) used to build
    with pytest.raises(GeometryError) as info:
        build(p, n)
    assert str(info.value) == message


class TestRankLimit:
    """The rank 2 + n*p is checked before anything is built: no test here
    builds a pair past the limit."""

    class Built(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        def refuse():
            raise self.Built

        monkeypatch.setattr(explorer_module, "new_quadric", refuse)

    @pytest.mark.parametrize("p, n", [(2, 100_000), (100_000, 2), (5, 40_000)])
    def test_largest_rank_is_accepted(self, p, n):
        assert 2 + n * p == MAX_LATTICE_RANK
        with pytest.raises(self.Built):
            frobenius_construction(p, n)

    @pytest.mark.parametrize("p, n", [(2, 100_001), (3, 66_667), (99999999999999999999, 3)])
    def test_past_the_limit_raises_with_the_estimate(self, p, n):
        rank = 2 + n * p
        message = (
            f"(p, n_points) = ({p}, {n}) needs lattice rank 2 + n_points*p = {rank},"
            f" past the limit {MAX_LATTICE_RANK}"
        )
        with pytest.raises(GeometryError) as info:
            explore_frobenius(p, n)
        assert str(info.value) == message

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no int-to-str digit limit in this interpreter")
    @pytest.mark.parametrize(
        "p, n, message",
        [
            (10**5000, 3, "(p, n_points) = (<int too large to print>, 3) needs lattice rank"
                          " 2 + n_points*p = <int too large to print>, past the limit 200002"),
            (-10**5000, 3, "p must be an integer >= 2, got <int too large to print>"),
            (3, 10**5000, "(p, n_points) = (3, <int too large to print>) needs lattice rank"
                          " 2 + n_points*p = <int too large to print>, past the limit 200002"),
        ],
        ids=["huge-p", "huge-negative-p", "huge-n"],
    )
    def test_integers_past_the_digit_limit_raise_geometry_error(self, p, n, message):
        with pytest.raises(GeometryError) as info:
            frobenius_construction(p, n)
        assert str(info.value) == message

    def test_cli_exits_two_with_one_line(self, capsys):
        assert main(["explore", "--p", "99999999999999999999", "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: (p, n_points) = (99999999999999999999, 3) needs lattice rank"
            f" 2 + n_points*p = 299999999999999999999, past the limit {MAX_LATTICE_RANK}\n"
        )


def closed_form_census(p, n):
    """n fibre points 1/p(1,1), n chain points 1/p(1,p-1) and the curve's
    point 1/(p(n-2))(1,1), with q = min(q, q^-1 mod N), equal types merged
    and smooth points (N = 1) dropped."""
    counts = {}
    for big_n, q, count in ((p, 1, n), (p, p - 1, n), (p * (n - 2), 1, 1)):
        if big_n == 1:
            continue
        q %= big_n
        key = (big_n, min(q, pow(q, -1, big_n)))
        counts[key] = counts.get(key, 0) + count
    return tuple(sorted((big_n, q, c) for (big_n, q), c in counts.items()))


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("p", range(2, 8))
def test_explore_matches_closed_forms(p, n):
    # the closed forms check the arithmetic, not geometric realizability
    report = explore_frobenius(p, n)
    assert report.target_rank == 1
    assert report.anticanonical_degree == F(2, n - 2) + 2 - p
    assert report.census == closed_form_census(p, n)
    reference = (p, n) == (3, 3)
    assert report.provenance == (REFERENCE_PROVENANCE if reference else EXTRAPOLATED_PROVENANCE)


@pytest.mark.parametrize(
    "p, n", [*((p, n) for p in range(2, 8) for n in range(3, 10)), (200, 3), (7, 40), (1000, 3)]
)
def test_discrepancies_match_closed_forms(p, n):
    # a(C) = -1 + 2/(p(n-2)), a(F_i) = -1 + 2/p and 0 along every (-2)-chain;
    # all three are 0 only at (2, 3), whose seven points are A_1
    report = explore_frobenius(p, n)
    discrepancies, singularity_class = report.contraction.discrepancies()
    construction = report.construction
    assert discrepancies[construction.curve] == -1 + F(2, p * (n - 2))
    assert all(discrepancies[f] == -1 + F(2, p) for f in construction.fibers)
    assert all(discrepancies[x] == 0 for tower in construction.towers for x in tower[:-1])
    assert singularity_class is (SingClass.CANONICAL if (p, n) == (2, 3) else SingClass.KLT)
    if (p, n) == (3, 3):
        assert min(discrepancies.values()) == F(-1, 3)


def test_class_group_with_thousands_of_equal_factors():
    # Z + (Z/p)^n with p = 2, n = 5000: 5000 pivots 2 that already form a
    # divisor chain, in the rows of 5000 fibres that share the base columns
    group = explore_frobenius(2, 5000).contraction.class_group()
    assert group == ClassGroupReport(1, (2,) * 5000)
