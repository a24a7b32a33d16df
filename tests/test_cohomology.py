import time
from fractions import Fraction as F

import pytest

from blowdown import (
    GeometryError,
    LerayHypothesisError,
    QDivisor,
    VanishingVerdict,
    contract,
    euler_characteristic,
    explore_frobenius,
    h0_on_quadric,
    kollar_bound,
    new_quadric,
    vanishing_case_analysis,
    verify_h0_anticanonical_zero,
    verify_kvv_failure,
)
from blowdown.cohomology import NEF_HYPOTHESIS_NOTE
from blowdown.explorer import frobenius_construction


class TestEulerCharacteristic:
    def test_trivial_divisor(self, ref):
        assert euler_characteristic(ref.model, QDivisor({})) == 1

    def test_canonical(self, ref):
        assert euler_characteristic(ref.model, ref.model.canonical_divisor()) == 1

    def test_floor_of_ample_pullback(self, ref):
        floor = ref.contraction.pullback(-ref.ample).floor()
        assert ref.model.intersect(ref.model.canonical_divisor(), floor) == -2
        assert ref.model.intersect(floor, floor) == -6
        assert euler_characteristic(ref.model, floor) == -1

    def test_non_integral_rejected(self, ref):
        with pytest.raises(GeometryError, match="non-integral"):
            euler_characteristic(ref.model, QDivisor({"C": F(1, 3)}))

    def test_quadric_formula(self):
        m = new_quadric()
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert euler_characteristic(m, (a, b)) == (a + 1) * (b + 1)


def test_h0_on_quadric():
    assert h0_on_quadric(-2, -1) == 0
    assert h0_on_quadric(0, 0) == 1
    assert h0_on_quadric(1, 2) == 6
    assert h0_on_quadric(3, -1) == 0
    assert h0_on_quadric(-1, 4) == 0


class TestAnticanonicalSections:
    def test_reference_identity(self, ref):
        report = verify_h0_anticanonical_zero(
            ref.contraction,
            fibers=["F1", "F2", "F3"],
            curve="C",
            towers=[["G1", "H1", "E1"], ["G2", "H2", "E2"], ["G3", "H3", "E3"]],
        )
        assert report.identity_holds
        assert report.base_bidegree == (-2, -1)
        assert report.h0 == 0
        assert report.passed

    def test_missing_tower_breaks_identity(self, ref):
        # check data authored for two points only: the third tower's classes
        # are missing from the right-hand side and the identity fails
        report = verify_h0_anticanonical_zero(
            ref.contraction,
            fibers=["F1", "F2", "F3"],
            curve="C",
            towers=[["G1", "H1", "E1"], ["G2", "H2", "E2"]],
        )
        assert not report.identity_holds
        assert report.difference_class is not None
        assert any(report.difference_class)
        assert not report.passed

    def test_missing_tower_difference_is_the_dense_one(self, ref):
        # the failing identity's difference class, against a dense computation
        # over total class vectors
        fibers, towers = ["F1", "F2", "F3"], [["G1", "H1", "E1"], ["G2", "H2", "E2"]]
        report = verify_h0_anticanonical_zero(ref.contraction, fibers, "C", towers)
        model = ref.model
        lhs = [-x for x in model.canonical_class]
        for name in fibers + ["C"]:
            lhs = [x - y for x, y in zip(lhs, model.total_class(name))]
        rhs = [lhs[0], lhs[1]] + [0] * (model.rank - 2)
        for tower in towers:
            for weight, name in enumerate(tower, start=1):
                rhs = [x + weight * y for x, y in zip(rhs, model.total_class(name))]
        difference = tuple(x - y for x, y in zip(lhs, rhs))
        assert report.difference_class == difference
        assert all(type(x) is int for x in report.difference_class)
        assert report.base_bidegree == (-2, -1) and report.h0 == 0

    def test_sparse_at_rank_10002(self):
        # (p, n) = (5, 2000): -K - sum F_i - C has base bidegree (1 - n, 2 - p);
        # a dense vector per class would cost O(rank^2), seconds here
        exploration = explore_frobenius(5, 2000)
        construction = exploration.construction
        start = time.perf_counter()
        report = verify_h0_anticanonical_zero(
            exploration.contraction, construction.fibers, construction.curve, construction.towers
        )
        assert time.perf_counter() - start < 0.5
        assert report.identity_holds and report.difference_class is None
        assert report.base_bidegree == (-1999, -3) and report.h0 == 0

    def test_omitted_blow_up_is_a_scenario_encoding_bug(self):
        # the model omits the last blow-up but the check data still references
        # it: the dangling name surfaces immediately
        m = new_quadric()
        m.declare_curve("C", (1, 3))
        for i in (1, 2, 3):
            m.declare_curve(f"F{i}", (1, 0))
        for i in (1, 2, 3):
            m.blow_up(f"G{i}", [("C", 1), (f"F{i}", 1)])
            m.blow_up(f"H{i}", [("C", 1), (f"F{i}", 1), (f"G{i}", 1)])
            if i != 3:
                m.blow_up(f"E{i}", [("C", 1), (f"F{i}", 1), (f"H{i}", 1)])
        con = contract(m, ["C", "F1", "F2", "F3", "G1", "H1", "G2", "H2", "G3"])
        with pytest.raises(GeometryError, match="unknown divisor"):
            verify_h0_anticanonical_zero(
                con,
                fibers=["F1", "F2", "F3"],
                curve="C",
                towers=[["G1", "H1", "E1"], ["G2", "H2", "E2"], ["G3", "H3", "E3"]],
            )

    def test_requires_quadric_base(self):
        from blowdown import new_plane

        m = new_plane()
        m.declare_curve("L", (1,))
        con = contract(m, [])
        with pytest.raises(GeometryError, match="quadric"):
            verify_h0_anticanonical_zero(con, fibers=[], curve="L", towers=[])


class TestKvvFailure:
    def test_reference_report(self, ref):
        report = verify_kvv_failure(ref.contraction, ref.ample)
        assert report.pullback_expansion.named == {
            "E1": 1, "F1": F(1, 3), "H1": F(2, 3), "G1": F(1, 3),
            "E2": -1, "F2": F(-1, 3), "H2": F(-2, 3), "G2": F(-1, 3),
            "E3": -1, "F3": F(-1, 3), "H3": F(-2, 3), "G3": F(-1, 3),
            "C": F(-1, 3),
        }
        assert report.floor.named == {
            "E1": 1, "E2": -1, "F2": -1, "H2": -1, "G2": -1,
            "E3": -1, "F3": -1, "H3": -1, "G3": -1, "C": -1,
        }
        assert report.relatively_nef
        assert report.nef_degrees["C"] == 2
        assert report.k_dot_floor == -2
        assert report.floor_squared == -6
        assert report.euler_char == -1
        assert report.h1_nonzero
        assert report.not_globally_f_split
        assert report.no_w2_liftable_log_resolution
        assert report.nef_hypothesis_note == NEF_HYPOTHESIS_NOTE

    def test_surviving_exceptional_curve(self, ref):
        # pipeline for A = E1; expected values fixed by a hand-run of the
        # orthogonality system before the build: chi = 0, so no conclusion
        report = verify_kvv_failure(ref.contraction, QDivisor({"E1": 1}))
        assert report.pullback_expansion.named == {
            "E1": -1, "C": F(-1, 3), "F1": F(-1, 3), "G1": F(-1, 3), "H1": F(-2, 3),
        }
        assert report.floor.named == {
            "E1": -1, "C": -1, "F1": -1, "G1": -1, "H1": -1,
        }
        assert report.relatively_nef
        assert report.nef_degrees == {
            "C": 2, "F1": 2, "G1": 1, "H1": 0,
            "F2": 0, "G2": 0, "H2": 0, "F3": 0, "G3": 0, "H3": 0,
        }
        assert report.k_dot_floor == -1
        assert report.floor_squared == -3
        assert report.euler_char == 0
        assert not report.h1_nonzero
        assert not report.not_globally_f_split
        assert not report.no_w2_liftable_log_resolution

    def test_zero_divisor(self, ref):
        report = verify_kvv_failure(ref.contraction, QDivisor({}))
        assert report.euler_char == 1
        assert not report.h1_nonzero

    def test_rank_one_required(self, ref):
        con = contract(ref.model, [])
        with pytest.raises(GeometryError, match="rank"):
            verify_kvv_failure(con, ref.ample)

    def test_leray_hypothesis_abort(self):
        # deeper towers produce longer chains; against the middle of a chain
        # of three (-2)-curves the floor of -psi*(-2E1) has degree -1
        # (independently verified before the build)
        construction = frobenius_construction(4, 3)
        con = contract(construction.model, construction.contracted_names)
        assert con.target_rank == 1
        with pytest.raises(LerayHypothesisError, match="Leray degeneration"):
            verify_kvv_failure(con, QDivisor({"E1": -2}))


class TestKollarBound:
    def test_plugin_example(self):
        assert kollar_bound(2, 5, 1, -1) == F(4, 5)

    def test_limit_bound(self):
        # for L.D > 0 and K.D < 0 the threshold is strictly below 4/(p-1)
        for p in (2, 3, 5, 7, 11):
            for l_dot in (1, 2, 5):
                for k_dot in (-1, -3):
                    bound = kollar_bound(2, p, l_dot, k_dot)
                    assert bound < F(4, p - 1)

    def test_p3_threshold(self):
        assert F(4, 3 - 1) == 2

    def test_hypothesis_violation(self):
        with pytest.raises(GeometryError, match="positive"):
            kollar_bound(2, 2, 1, 5)


class TestVanishingCaseAnalysis:
    def test_part_two_p_at_least_five(self):
        assert vanishing_case_analysis(5, 1) is VanishingVerdict.CONTRADICTION
        assert vanishing_case_analysis(7, 1) is VanishingVerdict.CONTRADICTION

    def test_part_three_p_three_doubled(self):
        assert vanishing_case_analysis(3, 2) is VanishingVerdict.CONTRADICTION

    def test_part_four_p_two_quadrupled(self):
        assert vanishing_case_analysis(2, 4) is VanishingVerdict.CONTRADICTION

    def test_no_contradiction(self):
        assert vanishing_case_analysis(3, 0, 5) is VanishingVerdict.NO_CONTRADICTION
        assert vanishing_case_analysis(3, 1) is VanishingVerdict.NO_CONTRADICTION

    def test_explicit_threshold(self):
        assert vanishing_case_analysis(5, 1, 1) is VanishingVerdict.CONTRADICTION
        assert vanishing_case_analysis(5, F(1, 2), 1) is VanishingVerdict.NO_CONTRADICTION
