import itertools
import time
from fractions import Fraction as F

import pytest

from blowdown import (
    ChainLabel,
    ClassGroupReport,
    GeometryError,
    NotContractibleError,
    QDivisor,
    SingClass,
    contract,
    explore_frobenius,
    frobenius_construction,
    hirzebruch_jung_type,
    new_quadric,
    solve_linear,
)
from blowdown.cone import build_cone
from blowdown.exactlin import smith_normal_form
from blowdown.scenario import run_repro


def star_model(arms, centre_square=-2):
    """A curve D of class (1, 1) meeting one end of each arm, a chain of
    (-2)-curves A<a>x0, A<a>x1, ..., and blown up at further points of its
    own until D^2 = centre_square: a star whose names come centre first."""
    m = new_quadric()
    m.declare_curve("D", (1, 1))
    names = ["D"]
    for a, length in enumerate(arms):
        previous = "D"
        for i in range(length):
            m.blow_up(f"A{a}x{i}", [(previous, 1)])
            previous = f"A{a}x{i}"
            names.append(previous)
        m.blow_up(f"B{a}", [(previous, 1)])  # the arm's last curve to -2
    for i in range(int(m.intersect("D", "D")) - centre_square):
        m.blow_up(f"V{i}", [("D", 1)])
    assert m.intersect("D", "D") == centre_square
    return m, names


def triangle_model():
    """Three (-3)-curves, each meeting the other two once: a cycle."""
    m = new_quadric()
    shape = (("T1", (1, 1), 5), ("T2", (1, 0), 3), ("T3", (0, 1), 3))
    for name, cls, _ in shape:
        m.declare_curve(name, cls)
    for name, _, points in shape:
        for step in range(points):
            m.blow_up(f"{name}p{step}", [(name, 1)])
    return m, [name for name, _, _ in shape]


def double_model():
    """Two (-3)-curves of class (1, 1) meeting twice."""
    m = new_quadric()
    names = ["D1", "D2"]
    for name in names:
        m.declare_curve(name, (1, 1))
    for name in names:
        for step in range(5):
            m.blow_up(f"{name}p{step}", [(name, 1)])
    return m, names


def test_reference_contraction_target_rank(ref):
    assert ref.contraction.target_rank == 1
    assert ref.contraction.contracted == (
        "C", "F1", "F2", "F3", "G1", "H1", "G2", "H2", "G3", "H3",
    )


def test_empty_contraction_is_identity(ref):
    con = contract(ref.model, [])
    assert con.target_rank == ref.model.rank
    d = QDivisor({"E1": 1})
    assert con.pullback(d) == d
    assert con.pushforward(d) == d
    assert con.class_group() == ClassGroupReport(rank=11, torsion=())


def test_contract_fiber_rejected():
    m = new_quadric()
    m.declare_curve("F", (1, 0))
    with pytest.raises(NotContractibleError, match="not contractible"):
        contract(m, ["F"])


def test_blocks_from_the_base_form_alone():
    # F.G = 1 on the quadric, and no blow-up lies on both curves
    m = new_quadric()
    m.declare_curve("F", (1, 0))
    m.declare_curve("G", (0, 1))
    m.declare_curve("H", (1, 0))
    for i in range(2):
        m.blow_up(f"A{i}", [("F", 1)])
        m.blow_up(f"B{i}", [("G", 1)])
    con = contract(m, ["F", "G"])
    assert con.gram == ((-2, 1), (1, -2))
    [report] = con.classify_singularities()
    assert report.component == ("F", "G") and report.hj_type == (3, 2)
    # only the failing block is named: Z meets none of F, G and H (H^2 = 0)
    m.blow_up("Z")
    with pytest.raises(NotContractibleError, match=r"not contractible.*block \['F', 'G', 'H'\] is"):
        contract(m, ["Z", "F", "G", "H"])


def test_contraction_keeps_its_classes_across_a_later_blow_up():
    # a blow-up updates the model's classes in place, so a contraction copies
    # its curves' classes: blowing up a point on C afterwards adds one free
    # coordinate to the lattice and changes nothing else it reports
    def results(con, model):
        pullback = con.pullback(con.pushforward(model.canonical_divisor()))
        return con.gram, pullback.named, con.discrepancies(), con.class_group()

    built = [frobenius_construction(3, 3) for _ in range(2)]
    queried, fresh = [contract(b.model, b.contracted_names) for b in built]
    gram, named, discrepancies, group = results(queried, built[0].model)
    for b in built:
        b.model.blow_up("Z", [("C", 1)])
    for con, b in ((queried, built[0]), (fresh, built[1])):
        assert results(con, b.model) == (gram, named, discrepancies, group._replace(rank=group.rank + 1))
        assert con.pullback(con.pushforward(b.model.canonical_divisor())).residual == b.model.canonical_class
    assert built[0].model.intersect("C", "C") == gram[0][0] - 1  # the model itself moved on


def test_contract_validation():
    m = new_quadric()
    m.declare_curve("F", (1, 0))
    with pytest.raises(GeometryError, match="unknown curve"):
        contract(m, ["missing"])
    with pytest.raises(GeometryError, match="distinct"):
        contract(m, ["F", "F"])


def test_pullback_of_canonical(ref):
    pullback = ref.contraction.pullback(ref.k_target)
    expected = {"C": F(1, 3), "F1": F(1, 3), "F2": F(1, 3), "F3": F(1, 3)}
    assert pullback.named == expected
    assert pullback.residual == ref.model.canonical_class
    # orthogonality against every contracted curve, exactly
    for name in ref.contraction.contracted:
        assert ref.model.intersect(pullback, name) == 0


def test_pullback_of_ample_divisor(ref):
    expansion = ref.contraction.pullback(-ref.ample)
    assert expansion.named == {
        "E1": 1, "F1": F(1, 3), "H1": F(2, 3), "G1": F(1, 3),
        "E2": -1, "F2": F(-1, 3), "H2": F(-2, 3), "G2": F(-1, 3),
        "E3": -1, "F3": F(-1, 3), "H3": F(-2, 3), "G3": F(-1, 3),
        "C": F(-1, 3),
    }


def test_pullback_requires_support_off_contracted(ref):
    with pytest.raises(GeometryError, match="contracted"):
        ref.contraction.pullback(QDivisor({"C": 1}))
    # an explicitly zero coefficient on a contracted curve is fine
    assert ref.contraction.pullback(QDivisor({"C": 0, "E1": 1})).coefficient("E1") == 1


def test_pullback_disjoint_divisor_is_unchanged():
    m = new_quadric()
    m.declare_curve("F", (1, 0))
    m.blow_up("E")  # general point, not on F
    con = contract(m, ["E"])
    d = QDivisor({"F": 1})
    assert con.pullback(d) == d


def test_pullback_is_independent_of_representative(ref):
    # the fibre class f_x and 3*E1 differ by F1 + G1 + 2*H1 (all contracted),
    # so they represent the same divisor on the target and must pull back to
    # the same total class
    con = ref.contraction
    fiber_class = QDivisor({}, (1, 0) + (0,) * 9)
    triple_e1 = QDivisor({"E1": 3})
    assert ref.model.total_class(fiber_class) != ref.model.total_class(triple_e1)
    pb1 = ref.model.total_class(con.pullback(fiber_class))
    pb2 = ref.model.total_class(con.pullback(triple_e1))
    assert pb1 == pb2


def test_pushforward(ref):
    con = ref.contraction
    assert con.pushforward(QDivisor({"C": 1})) == QDivisor({})
    mixed = QDivisor({"E2": 1, "E3": 1, "E1": -1, "C": 7})
    assert con.pushforward(mixed) == ref.ample
    for d in (ref.ample, QDivisor({"E1": 2}, residual=(1, 0) + (0,) * 9)):
        assert con.pushforward(con.pullback(d)) == d


def test_discrepancies_reference(ref):
    discreps, classification = ref.contraction.discrepancies()
    assert classification is SingClass.KLT
    for name in ("C", "F1", "F2", "F3"):
        assert discreps[name] == F(-1, 3)
    for name in ("G1", "H1", "G2", "H2", "G3", "H3"):
        assert discreps[name] == 0
    assert min(discreps.values()) == F(-1, 3)


def test_discrepancy_single_minus_one_curve():
    m = new_quadric()
    m.blow_up("E")
    discreps, classification = contract(m, ["E"]).discrepancies()
    assert discreps == {"E": 1}
    assert classification is SingClass.TERMINAL


def test_discrepancy_single_minus_two_curve():
    m = new_quadric()
    m.blow_up("E")
    m.blow_up("E2", [("E", 1)])
    assert m.intersect("E", "E") == -2
    discreps, classification = contract(m, ["E"]).discrepancies()
    assert discreps == {"E": 0}
    assert classification is SingClass.CANONICAL


@pytest.mark.parametrize(
    "bidegree, points, discrepancy, classification",
    [((2, 2), 9, -1, SingClass.LC), ((3, 3), 19, -7, SingClass.NOT_LC)],
)
def test_discrepancy_of_a_curve_of_higher_genus(bidegree, points, discrepancy, classification):
    # a (d, d) curve on the quadric has genus (d - 1)^2 and C^2 = 2d^2; blown up
    # at that many points less one, C^2 = -1, K.C = 2g - 2 - C^2 and the
    # discrepancy is a = K.C / C^2: g = 1 gives -1 (lc), g = 4 gives -7 (not lc)
    m = new_quadric()
    m.declare_curve("C", bidegree)
    for step in range(points):
        m.blow_up(f"P{step}", [("C", 1)])
    assert m.intersect("C", "C") == -1
    discreps, cls = contract(m, ["C"]).discrepancies()
    assert discreps == {"C": m.intersect(m.canonical_divisor(), "C") / F(-1)} == {"C": discrepancy}
    assert cls is classification


@pytest.mark.parametrize("n", range(2, 10))
def test_discrepancy_single_minus_n_curve(n):
    # fiber blown up n times becomes a (-n)-curve; adjunction oracle:
    # a solves (K + a*F).F = 0 up to sign, i.e. a = -1 + 2/n
    m = new_quadric()
    m.declare_curve("F", (1, 0))
    for step in range(n):
        m.blow_up(f"P{step}", [("F", 1)])
    assert m.intersect("F", "F") == -n
    discreps, _ = contract(m, ["F"]).discrepancies()
    k_dot_f = m.intersect(m.canonical_divisor(), "F")
    oracle = -(-k_dot_f / F(-n))  # a = -K.F / F^2, negated into discrepancy
    assert discreps["F"] == oracle == F(-1) + F(2, n)


class TestClassifySingularities:
    def test_reference_census(self, ref):
        reports = ref.contraction.classify_singularities()
        assert len(reports) == 7
        by_type = {}
        for r in reports:
            by_type.setdefault(r.hj_type, []).append(r)
        assert len(by_type[(3, 1)]) == 4
        assert len(by_type[(3, 2)]) == 3
        components_31 = sorted(r.component for r in by_type[(3, 1)])
        assert components_31 == [("C",), ("F1",), ("F2",), ("F3",)]
        for r in by_type[(3, 2)]:
            assert r.self_intersections == (2, 2)
            assert r.label is ChainLabel.A_N_CHAIN
        for r in by_type[(3, 1)]:
            assert r.self_intersections == (3,)
            assert r.label is ChainLabel.WEIGHTED_CYCLIC

    def test_minus_one_curve_contracts_to_smooth_point(self):
        m = new_quadric()
        m.blow_up("E")
        assert contract(m, ["E"]).classify_singularities() == []

    def test_branch_vertex_rejected(self):
        # D4 configuration: a (-2)-curve meeting three disjoint (-2)-curves
        con = contract(*star_model((1, 1, 1)))
        with pytest.raises(GeometryError, match=r"component \['A0x0', 'A1x0', 'A2x0', 'D'\] is not a chain"):
            con.classify_singularities()

    def test_cycle_rejected(self):
        # triangle of (-3)-curves: contractible but not a chain
        con = contract(*triangle_model())
        assert con.gram == ((-3, 1, 1), (1, -3, 1), (1, 1, -3))
        with pytest.raises(GeometryError, match="not a chain"):
            con.classify_singularities()

    def test_minus_one_curve_in_a_singular_chain_rejected(self):
        # F(-1) - E1(-3): continuant 1*3 - 1 = 2, so the chain contracts to a
        # singular point, but a (-1)-curve inside it is not a minimal resolution
        m = new_quadric()
        m.declare_curve("F", (1, 0))
        m.blow_up("E1", [("F", 1)])
        m.blow_up("E2", [("E1", 1)])
        m.blow_up("E3", [("E1", 1)])
        con = contract(m, ["F", "E1"])
        assert con.gram == ((-1, 1), (1, -3))
        with pytest.raises(GeometryError, match=r"chain \['F', 'E1'\] mixes a \(-1\)-curve"):
            con.classify_singularities()

    def test_double_intersection_rejected(self):
        m, names = double_model()
        con = contract(m, names)
        assert m.intersect("D1", "D2") == 2
        with pytest.raises(GeometryError, match="reduced chains"):
            con.classify_singularities()


class TestHirzebruchJung:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_du_val_chains(self, k):
        assert hirzebruch_jung_type([2] * k) == (k + 1, k)

    def test_single_curves(self):
        assert hirzebruch_jung_type([3]) == (3, 1)
        assert hirzebruch_jung_type([1]) == (1, 0)

    def test_orientation_canonicalized(self):
        assert hirzebruch_jung_type([2, 3]) == hirzebruch_jung_type([3, 2]) == (5, 2)

    def test_empty_chain_rejected(self):
        with pytest.raises(GeometryError):
            hirzebruch_jung_type([])

    @pytest.mark.parametrize(
        "bs", [[2.5, 2], [F(5, 2), 2], [2, F(7, 3)], [float("nan"), 2], [2, float("inf")]]
    )
    def test_non_integral_entry_rejected(self, bs):
        # int() would read 2.5 and 5/2 as 2, and [2, 2] is the chain of type (3, 2)
        with pytest.raises(GeometryError, match="not an integer"):
            hirzebruch_jung_type(bs)

    def test_integral_entries_of_any_type_accepted(self):
        assert hirzebruch_jung_type([F(2), 3.0]) == hirzebruch_jung_type([2, 3]) == (5, 2)


def test_class_group_reference(ref):
    group = ref.contraction.class_group()
    assert group == ClassGroupReport(rank=1, torsion=(3, 3, 3))


def test_class_group_single_blow_down():
    m = new_quadric()
    m.blow_up("E")
    group = contract(m, ["E"]).class_group()
    assert group == ClassGroupReport(rank=2, torsion=())


def pairwise_block(curves, private):
    """``curves`` curves of class (1, 1) on the quadric, blown up at one shared
    point for each pair and at ``private`` points of each curve alone: one
    negative definite block in which every two curves meet."""
    m = new_quadric()
    names = [f"D{i}" for i in range(curves)]
    for name in names:
        m.declare_curve(name, (1, 1))
    for a, b in itertools.combinations(names, 2):
        m.blow_up(f"P{a}{b}", [(a, 1), (b, 1)])
    for name in names:
        for k in range(private):
            m.blow_up(f"Q{name}x{k}", [(name, 1)])
    return m, names


def plain_blow_ups(count):
    m = new_quadric()
    for i in range(count):
        m.blow_up(f"E{i}")
    return m


@pytest.mark.parametrize(
    "group, expected",
    [
        (lambda: contract(plain_blow_ups(1200), []).class_group(), (1202, ())),
        (lambda: contract(*pairwise_block(25, 40)).class_group(), (1277, ())),
        (lambda: contract(plain_blow_ups(400), []).class_group([[1] * 402]), (401, ())),
    ],
    ids=["empty-rank-1202", "pairwise-block-rank-1302", "dense-extra-rank-402"],
)
def test_smith_form_sees_only_the_columns_its_rows_meet(monkeypatch, group, expected):
    # every column the pivot pass leaves untouched is a free summand, so the
    # Smith normal form of these three gets no column at all
    widths = []

    def recording(m):
        widths.append(m.cols)
        return smith_normal_form(m)

    monkeypatch.setattr("blowdown.contraction.smith_normal_form", recording)
    assert group() == ClassGroupReport(*expected)
    assert widths == [0]


class TestClassGroupExtraClasses:
    def test_polarization_quotient(self, ref):
        polarization = ref.model.total_class(ref.ample)
        assert ref.contraction.class_group([polarization]) == ClassGroupReport(0, (3, 3, 3))
        three_times = [3 * x for x in polarization]
        assert ref.contraction.class_group([three_times]) == ClassGroupReport(0, (3, 3, 3, 3))

    @pytest.mark.parametrize("entry", [F(1, 2), 1.7, F(-7, 3)])
    def test_non_integral_entry_rejected(self, ref, entry):
        for position in (0, 10):
            cls = [0] * 11
            cls[position] = entry
            with pytest.raises(GeometryError, match="not integral"):
                ref.contraction.class_group([cls])

    @pytest.mark.parametrize("length", [0, 10, 12])
    def test_wrong_length_rejected(self, ref, length):
        with pytest.raises(GeometryError, match="rank-11"):
            ref.contraction.class_group([[1] * length])

    @pytest.mark.parametrize(
        "entry, shown",
        [("a", "'a'"), (None, "None"), (F(10**5000, 3), "<Fraction too large to print>")],
        ids=["str", "none", "huge-fraction"],
    )
    def test_entry_that_is_not_an_integer_rejected(self, ref, entry, shown):
        # a str or None failed in `x % 1` with TypeError, and the huge
        # Fraction while its message was written, with ValueError
        cls = [0] * 11
        cls[4] = entry
        with pytest.raises(GeometryError, match=f"extra class entry 4, {shown}, is not integral"):
            ref.contraction.class_group([cls])
        with pytest.raises(GeometryError, match="is not integral"):
            ref.contraction.class_group([[entry] * 11])


class TestKeptPivotPass:
    """The contraction keeps one pivot pass over its contracted classes and
    writes each call's extra classes in its basis."""

    def test_repro_makes_one_pass_over_the_contracted_classes(self, monkeypatch):
        import blowdown.contraction
        import blowdown.exactlin

        passes, certified = [], []
        pivot_pass = blowdown.contraction.sparse_pivot_pass
        certify = blowdown.exactlin._certify_pivot_pass

        def counting(rows, ncols):
            result = pivot_pass(rows, ncols)
            passes.append(result)
            return result

        def recording(pp):
            certified.append(pp)
            return certify(pp)

        monkeypatch.setattr(blowdown.contraction, "sparse_pivot_pass", counting)
        monkeypatch.setattr(blowdown.exactlin, "_certify_pivot_pass", recording)
        assert run_repro().passed
        over_contracted = [pp for pp in passes if len(pp.matrix) == 10]
        assert len(over_contracted) == 1
        assert any(pp is over_contracted[0] for pp in certified)
        # every other pass is over the small remainder of one call
        assert all(len(pp.matrix) <= 4 for pp in passes if pp is not over_contracted[0])

    def test_repeated_class_group_and_ten_cones_at_rank_10002(self):
        con = explore_frobenius(5, 2000).contraction
        assert con.class_group() == ClassGroupReport(1, (5,) * 2000)
        start = time.perf_counter()
        assert con.class_group() == ClassGroupReport(1, (5,) * 2000)
        repeat = time.perf_counter() - start
        start = time.perf_counter()
        cones = [build_cone(con, QDivisor({f"E{i}": 1})) for i in range(1, 11)]
        ten = time.perf_counter() - start
        # a pass per call took about 0.12 s each: 0.12 s and 1.3 s
        assert repeat < 0.02, repeat
        assert ten < 0.5, ten
        assert all(cone.class_group == ClassGroupReport(0, (5,) * 2000) for cone in cones)

    def test_later_blow_up_adds_one_free_rank(self):
        built = frobenius_construction(3, 3)  # not the shared fixture: this blows its model up
        model, con = built.model, contract(built.model, built.contracted_names)
        polarization = list(model.total_class(QDivisor({"E2": 1, "E3": 1, "E1": -1})))
        assert con.class_group([polarization]) == ClassGroupReport(0, (3, 3, 3))
        model.blow_up("Z")
        assert con.class_group() == ClassGroupReport(2, (3, 3, 3))
        assert con.class_group([polarization + [0]]) == ClassGroupReport(1, (3, 3, 3))
        assert con.class_group([polarization + [1]]) == ClassGroupReport(1, (3, 3, 3))
        assert con.class_group([polarization + [0], [0] * 11 + [3]]) == ClassGroupReport(0, (3,) * 4)

    def test_extra_row_replay_is_checked(self, ref, monkeypatch):
        import blowdown.exactlin

        con = ref.contraction
        polarization = ref.model.total_class(ref.ample)
        assert con.class_group([polarization]) == ClassGroupReport(0, (3, 3, 3))
        subtract = blowdown.exactlin._subtract
        monkeypatch.setattr(blowdown.exactlin, "_subtract",
                            lambda target, q, source: subtract(target, q + 1, source))
        with pytest.raises(AssertionError, match=r"b\*W \+ r != a"):
            con.class_group([polarization])


class TestRankOnePositivity:
    def test_degrees(self, ref):
        con = ref.contraction
        assert con.degree_against(-ref.k_target) == 1
        assert con.degree_against(QDivisor({"E1": 1})) == 1
        assert con.degree_against(ref.ample) == 1
        assert con.is_ample_rank1(ref.ample)
        assert not con.is_ample_rank1(ref.k_target)

    def test_requires_rank_one(self, ref):
        con = contract(ref.model, [])
        with pytest.raises(GeometryError, match="rank"):
            con.degree_against(ref.ample)

    def test_representative_on_contracted_rejected(self, ref):
        for witness in (None, "E1"):
            with pytest.raises(GeometryError, match="nonzero coefficient on contracted"):
                ref.contraction.degree_against(QDivisor({"C": 1}), witness)

    def test_contracted_witness_rejected(self, ref):
        with pytest.raises(GeometryError, match="witness"):
            ref.contraction.degree_against(ref.ample, witness="C")

    def test_explicit_witness(self, ref):
        # a surviving (-1)-curve works as a witness up to scale
        assert ref.contraction.degree_against(ref.ample, witness="E1") != 0

    def test_anticanonical_is_numerically_a_surviving_curve(self, ref):
        r = ref.contraction.numerically_proportional(
            -ref.k_target, QDivisor({"E1": 1})
        )
        assert r == 1

    def test_numerically_proportional(self, ref):
        con = ref.contraction
        assert con.numerically_proportional(ref.k_target, ref.ample) == -1
        assert con.numerically_proportional(ref.ample, ref.ample) == 1
        assert con.numerically_proportional(QDivisor({}), ref.ample) == 0
        assert con.numerically_proportional(ref.ample, QDivisor({})) is None


class TestRelativeNef:
    def test_zero_divisor(self, ref):
        nef, degrees = ref.contraction.is_relatively_nef(QDivisor({}))
        assert nef and all(v == 0 for v in degrees.values())

    def test_negated_exceptional_class_fails(self, ref):
        neg_e1 = [0] * 11
        neg_e1[ref.model.basis_labels.index("E1")] = -1
        nef, degrees = ref.contraction.is_relatively_nef(neg_e1)
        assert not nef
        assert degrees["H1"] == -1

    def test_floor_of_ample_pullback(self, ref):
        floor = ref.contraction.pullback(-ref.ample).floor()
        nef, degrees = ref.contraction.is_relatively_nef(floor)
        assert nef
        assert degrees == {
            "C": 2, "F1": 1, "H1": 1, "G1": 0,
            "F2": 2, "H2": 0, "G2": 1,
            "F3": 2, "H3": 0, "G3": 1,
        }


SHAPES = {
    "D4": lambda: star_model((1, 1, 1)),
    "D5": lambda: star_model((1, 1, 2)),
    "D8": lambda: star_model((1, 1, 5)),
    "E6": lambda: star_model((1, 2, 2)),
    "E7": lambda: star_model((1, 2, 3)),
    "E8": lambda: star_model((1, 2, 4)),
    "star with a (-3) centre": lambda: star_model((2, 3, 4), -3),
    "cycle": triangle_model,
    "pair meeting twice": double_model,
}


class TestEveryBlockShape:
    """Branched, cyclic and multiply meeting blocks go through the same
    sparse elimination as chains; dense `solve_linear` on the Gram matrix is
    the oracle, and the dense `invert` and `is_negative_definite` are never
    called."""

    @pytest.fixture(autouse=True)
    def no_dense_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense elimination called")

        for name in ("invert", "is_negative_definite"):
            monkeypatch.setattr(f"blowdown.contraction.{name}", refuse)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_pullback_matches_dense_solve(self, shape):
        m, names = SHAPES[shape]()
        con = contract(m, names)
        gram = [[m.intersect(a, b) for b in names] for a in names]
        assert con.gram == tuple(map(tuple, gram))
        kept = next(n for n in m.prime_divisors if n not in names)
        for d in (con.pushforward(m.canonical_divisor()), QDivisor({kept: F(2, 3)}),
                  QDivisor({}, [1, -2] + [(-1) ** i for i in range(m.rank - 2)])):
            pullback = con.pullback(d)
            expected = solve_linear(gram, [-m.intersect(d, n) for n in names])
            assert [pullback.coefficient(n) for n in names] == expected
            assert all(m.intersect(pullback, n) == 0 for n in names)

    def test_non_definite_branched_block_rejected(self):
        # the D4 star with a (-1) centre: -G has 1 - 3/2 < 0 as its last pivot
        m, names = star_model((1, 1, 1), -1)
        with pytest.raises(NotContractibleError, match=r"^not contractible \(numerical criterion\): the "
                           r"Gram matrix of the block \['D', 'A0x0', 'A1x0', 'A2x0'\] is not negative definite$"):
            contract(m, names)

    def test_long_star(self):
        # arms (1, 1, 197) of (-2)-curves around a (-3) centre: a tree, so no
        # fill-in, and 200 pivots; the dense inverse took over a second
        m, names = star_model((1, 1, 197), -3)
        start = time.perf_counter()
        con = contract(m, names)
        pullback = con.pullback(QDivisor({"B2": 1}))
        assert time.perf_counter() - start < 1
        assert [m.intersect(pullback, n) for n in names] == [0] * 200  # so it is the pullback
