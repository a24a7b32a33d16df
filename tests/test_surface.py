from fractions import Fraction as F

import pytest

from blowdown import GeometryError, QDivisor, SurfaceModel, contract, new_plane, new_quadric
from blowdown.exactlin import signature
from blowdown.scenario import bundled_scenario
from blowdown.surface import BASE_SIGNATURES


def test_quadric_lattice():
    m = new_quadric()
    assert m.rank == 2
    assert m.intersect((1, 0), (1, 0)) == 0
    assert m.intersect((1, 0), (0, 1)) == 1
    assert m.canonical_class == (-2, -2)
    k = m.canonical_divisor()
    assert m.intersect(k, k) == 8
    assert m.chi_structure_sheaf == 1


def test_plane_lattice():
    m = new_plane()
    assert m.rank == 1
    assert m.canonical_class == (-3,)
    assert m.arithmetic_genus((1,)) == 0  # a line
    assert m.arithmetic_genus((3,)) == 1  # a plane cubic
    m.declare_curve("L", (1,))
    m.blow_up("E", [("L", 1)])
    assert m.intersect("L", "L") == 0
    assert m.intersect("L", "E") == 1


def test_declare_curve_triple_tangent_class():
    m = new_quadric()
    c = m.declare_curve("C", (1, 3))
    assert c.class_vector == (1, 3)
    assert m.intersect("C", "C") == 6
    m.declare_curve("F", (1, 0))
    assert m.intersect("C", "F") == 3
    assert m.intersect("F", "F") == 0


def test_declare_curve_rejections():
    m = new_quadric()
    with pytest.raises(GeometryError, match="not effective-irreducible"):
        m.declare_curve("D", (0, -1))
    with pytest.raises(GeometryError, match="genus"):
        m.declare_curve("D", (2, 0))  # two fibers, genus -1
    m.declare_curve("C", (1, 3))
    with pytest.raises(GeometryError, match="already in use"):
        m.declare_curve("C", (1, 0))
    with pytest.raises(GeometryError, match="rank"):
        m.declare_curve("D", (1, 0, 0))


def _blown_up_quadric():
    """The quadric with fibres F, G of the two rulings, each blown up once: rank 4."""
    m = new_quadric()
    m.declare_curve("F", (1, 0))
    m.declare_curve("G", (0, 1))
    m.blow_up("E1", [("F", 1)])
    m.blow_up("E2", [("G", 1)])
    return m


@pytest.mark.parametrize(
    "name, vector, message",
    [
        ("F", (0.5,), "name 'F' already in use"),
        ("D", (1, 0.5, 0, 0), "curve classes are integral lattice vectors"),
        ("D", (F(1, 2), 0), "curve classes are integral lattice vectors"),
        ("D", (1, 0), "class vector of length 2 on a rank-4 lattice"),
        ("D", (), "class vector of length 0 on a rank-4 lattice"),
        ("D", (-1, 0), "class vector of length 2 on a rank-4 lattice"),
        ("D", (-1, 1, 0, 0), "class (-1, 1, 0, 0) is not effective-irreducible on the quadric base"),
        ("D", (-1.0, 0, 0, 0), "class (-1, 0, 0, 0) is not effective-irreducible on the quadric base"),
        ("D", (0, 0, 0, 0), "class (0, 0, 0, 0) is not effective-irreducible on the quadric base"),
        ("D", (2, 0, 0, 0), "class (2, 0, 0, 0) has arithmetic genus -1; no irreducible curve represents it"),
        ("D", (1, 1, 1, 0), "class (1, 1, 1, 0) has arithmetic genus -1; no irreducible curve represents it"),
        ("D", (F(2), 0, 0, 0), "class (2, 0, 0, 0) has arithmetic genus -1; no irreducible curve represents it"),
    ],
)
def test_declare_curve_messages_in_order(name, vector, message):
    """Each rejection's message, the first one that applies in the order: name,
    non-integral entry, length, negative base entry or zero class, genus."""
    m = _blown_up_quadric()
    with pytest.raises(GeometryError) as info:
        m.declare_curve(name, vector)
    assert str(info.value) == message
    assert set(m.prime_divisors) == {"F", "G", "E1", "E2"}  # nothing registered


@pytest.mark.parametrize("vector", [(2, 1, -1, 0), (F(2), True, -1.0, F(0)), (0, 0, 1, 0), (1, 1, -1, -1)])
def test_declare_curve_accepts_integral_values_and_pairs_exceptional_entries(vector):
    """A Fraction(2), a bool or a float with an integral value is accepted as an
    int; D.D, D.K and the pairing with every registered divisor are those of
    the dense class."""
    m = _blown_up_quadric()
    d = m.declare_curve("D", vector)
    dense = tuple(int(x) for x in vector)
    assert d.class_vector == dense and all(type(x) is int for x in d.cls.values())
    assert (d.square, d.k_degree) == (m.pairing(dense, dense), m.k_degree(dense))
    for other in ("F", "G", "E1", "E2"):
        assert m.pairing("D", other) == m.pairing(other, "D") == m.pairing(dense, m.sparse_class(other))


def nine_blowup_model():
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    for i in (1, 2, 3):
        m.declare_curve(f"F{i}", (1, 0))
    for i in (1, 2, 3):
        m.blow_up(f"G{i}", [("C", 1), (f"F{i}", 1)])
        m.blow_up(f"H{i}", [("C", 1), (f"F{i}", 1), (f"G{i}", 1)])
        m.blow_up(f"E{i}", [("C", 1), (f"F{i}", 1), (f"H{i}", 1)])
    return m


def test_nine_step_sequence_intersection_table():
    m = nine_blowup_model()
    assert m.rank == 11
    assert m.intersect("C", "C") == -3
    for i in (1, 2, 3):
        F_, G, H, E = f"F{i}", f"G{i}", f"H{i}", f"E{i}"
        assert m.intersect(H, H) == -2
        assert m.intersect(G, G) == -2
        assert m.intersect(F_, F_) == -3
        assert m.intersect(E, E) == -1
        assert m.intersect("C", E) == 1
        assert m.intersect(E, F_) == 1
        assert m.intersect(E, H) == 1
        assert m.intersect(H, G) == 1
        for a, b in (("C", F_), ("C", G), ("C", H), (F_, G), (F_, H), (G, E)):
            assert m.intersect(a, b) == 0, (a, b)


def test_nine_step_canonical_and_adjunction():
    m = nine_blowup_model()
    assert m.canonical_class == (-2, -2) + (1,) * 9
    assert m.intersect(m.canonical_divisor(), "F1") == 1  # 2g - 2 - F^2
    assert m.lattice_signature() == (1, 10, 0)
    # total transforms pair as on the base: f*f_x squares to zero
    fx = (1, 0) + (0,) * 9
    fy = (0, 1) + (0,) * 9
    assert m.intersect(fx, fx) == 0
    assert m.intersect(fx, fy) == 1


@pytest.mark.parametrize("new_model", [new_quadric, new_plane])
def test_lattice_signature_reads_the_base_block(monkeypatch, new_model):
    # 300 blow-ups: the dense Gram matrix of that rank took about a second
    m = new_model()
    for i in range(300):
        m.blow_up(f"E{i}")
    assert BASE_SIGNATURES[m.base] == signature(m.base_gram)

    def dense_gram(self):
        raise AssertionError("lattice_signature built the dense Gram matrix")

    monkeypatch.setattr(SurfaceModel, "gram", property(dense_gram))
    assert m.lattice_signature() == (1, m.rank - 1, 0)


def test_blow_up_general_point_keeps_classes():
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    before = m.prime_divisors["C"].class_vector
    m.blow_up("E")
    assert m.prime_divisors["C"].class_vector == before + (0,)
    assert m.intersect("E", "E") == -1
    assert m.arithmetic_genus("E") == 0
    assert m.canonical_class == (-2, -2, 1)


def test_blow_up_strict_transform_formula():
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    m.declare_curve("F", (1, 0))
    assert m.intersect("C", "F") == 3
    m.blow_up("E1", [("C", 1), ("F", 1)])
    assert m.intersect("C", "F") == 2
    assert m.intersect("C", "E1") == 1
    assert m.intersect("F", "E1") == 1


def test_blow_up_budget_violation():
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    m.declare_curve("F", (1, 0))
    for step in range(3):
        m.blow_up(f"X{step}", [("C", 1), ("F", 1)])
    assert m.intersect("C", "F") == 0
    with pytest.raises(GeometryError, match="incidence budget"):
        m.blow_up("X3", [("C", 1), ("F", 1)])


def test_blow_up_validation_errors():
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    with pytest.raises(GeometryError, match="unknown curve"):
        m.blow_up("E", [("missing", 1)])
    with pytest.raises(GeometryError, match="multiplicity"):
        m.blow_up("E", [("C", 0)])
    with pytest.raises(GeometryError, match="twice"):
        m.blow_up("E", [("C", 1), ("C", 1)])
    with pytest.raises(GeometryError, match="genus budget"):
        m.blow_up("E", [("C", 2)])  # a double point on a rational curve
    m.blow_up("E", [("C", 1)])
    with pytest.raises(GeometryError, match="already in use"):
        m.blow_up("E", [])


@pytest.mark.parametrize("mult", [True, False, 1.0, "1"])
def test_blow_up_rejects_a_multiplicity_that_is_not_an_int(mult):
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    with pytest.raises(GeometryError, match=r"multiplicity of 'C' must be an integer >= 1"):
        m.blow_up("E", [("C", mult)])
    assert m.rank == 2 and "E" not in m.prime_divisors and m.pairing("C", "C") == 6


def model_state(m):
    """Everything a construction step may change: the lattice, each record's
    numbers and every pairing by name."""
    names = list(m.prime_divisors)
    records = {n: (dict(d.cls), d.square, d.k_degree) for n, d in m.prime_divisors.items()}
    pairings = {(a, b): m.pairing(a, b) for a in names for b in names}
    return m.rank, list(m.basis_labels), records, pairings, m.gram_rows(names)


#: Construction steps the bundled model refuses, each after some valid input
REJECTED_STEPS = {
    "incidence-budget": lambda m: m.blow_up("X", [("E1", 1), ("C", 1), ("F2", 1)]),
    "unknown-after-valid": lambda m: m.blow_up("X", [("E1", 1), ("C", 1), ("nope", 1)]),
    "listed-twice": lambda m: m.blow_up("X", [("E1", 1), ("C", 1), ("E1", 1)]),
    "genus-budget": lambda m: m.blow_up("X", [("E1", 1), ("C", 2)]),
    "blow-up-name-in-use": lambda m: m.blow_up("E1", [("C", 1)]),
    "curve-name-in-use": lambda m: m.declare_curve("C", (1, 0) + (0,) * 9),
    "wrong-length": lambda m: m.declare_curve("X", (1, 0)),
    "not-effective": lambda m: m.declare_curve("X", (-1, 1) + (0,) * 9),
    "negative-genus": lambda m: m.declare_curve("X", (1, 0, 1) + (0,) * 8),
}


@pytest.mark.parametrize("step", REJECTED_STEPS)
def test_a_rejected_construction_step_changes_nothing(step):
    m = bundled_scenario().build().model
    before = model_state(m)
    with pytest.raises(GeometryError):
        REJECTED_STEPS[step](m)
    assert model_state(m) == before


def test_multiplicity_two_on_positive_genus_curve():
    m = new_quadric()
    m.declare_curve("N", (2, 2))  # genus (2-1)(2-1) = 1
    assert m.arithmetic_genus("N") == 1
    m.blow_up("E", [("N", 2)])
    assert m.arithmetic_genus("N") == 0
    assert m.intersect("N", "N") == 4
    assert m.intersect("N", "E") == 2


def test_arithmetic_genus_values():
    m = new_quadric()
    assert m.arithmetic_genus((1, 3)) == 0
    # the formula applied to K itself: K.(2K)/2 + 1 = K^2 + 1
    assert m.arithmetic_genus(m.canonical_divisor()) == 9


class TestQDivisor:
    def test_zero_coefficients_dropped(self):
        d = QDivisor({"A": 0, "B": F(1, 3)})
        assert d.named == {"B": F(1, 3)}

    def test_floor(self):
        d = QDivisor({"H": F(2, 3), "G": F(1, 3)})
        assert d.floor() == QDivisor({})
        e = QDivisor({"A": F(-1, 3), "B": 2, "C": F(-5, 3)})
        assert e.floor() == QDivisor({"A": -1, "B": 2, "C": -2})

    def test_floor_keeps_integral_divisor(self):
        d = QDivisor({"A": 2, "B": -1}, residual=(1, 0))
        assert d.floor() == d

    def test_arithmetic(self):
        a = QDivisor({"X": 1})
        b = QDivisor({"X": F(1, 2), "Y": -1})
        assert a + b == QDivisor({"X": F(3, 2), "Y": -1})
        assert a - a == QDivisor({})
        assert -b == QDivisor({"X": F(-1, 2), "Y": 1})
        assert b.scaled(2) == QDivisor({"X": 1, "Y": -2})

    def test_residual_handling(self):
        a = QDivisor({}, residual=(1, 2))
        b = QDivisor({}, residual=(0, 0))
        assert a != b
        assert b == QDivisor({})  # zero residual is no residual
        assert (a + a).residual == (2, 4)
        with pytest.raises(GeometryError):
            QDivisor({}, residual=(F(1, 2), 0))
        with pytest.raises(GeometryError):
            a.scaled(F(1, 2))

    @pytest.mark.parametrize(
        "residual, stored",
        [
            ((1, -2), (1, -2)),
            ([3, 0], (3, 0)),
            ((), ()),
            ((F(2), 2.0, True), (2, 2, 1)),
            ((1, F(-4, 2)), (1, -2)),
        ],
    )
    def test_residual_stored_as_exact_ints(self, residual, stored):
        kept = QDivisor({}, residual=residual).residual
        assert kept == stored
        assert all(type(x) is int for x in kept)

    @pytest.mark.parametrize("residual", [(F(1, 2),), (1, 0.5), (2, F(-3, 2), 0)])
    def test_non_integral_residual_rejected(self, residual):
        with pytest.raises(GeometryError, match="residual class must be integral"):
            QDivisor({}, residual=residual)

    def test_is_integral(self):
        assert QDivisor({"A": 2}).is_integral
        assert not QDivisor({"A": F(1, 3)}).is_integral


#: Each entry point that takes a class or coefficient, with the message it
#: gives a nan or an infinity: an integral one its message for a non-integer.
NON_FINITE_ENTRY_POINTS = {
    "declare_curve": (lambda x: new_quadric().declare_curve("C", (x, 1)),
                      "curve classes are integral lattice vectors"),
    "class_group": (lambda x: contract(new_quadric(), []).class_group([[x, 0]]),
                    "is not integral"),
    "residual": (lambda x: QDivisor({}, residual=(x, 0)), "residual class must be integral"),
    "coefficient": (lambda x: QDivisor({"C": x}), "is not a finite rational"),
    "sparse_class": (lambda x: new_quadric().sparse_class((x, 0)), "is not a finite rational"),
}


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("entry", NON_FINITE_ENTRY_POINTS)
def test_non_finite_entries_raise_geometry_error(entry, x):
    call, message = NON_FINITE_ENTRY_POINTS[entry]
    with pytest.raises(GeometryError, match=message):
        call(x)


def quadric_with_c():
    m = new_quadric()
    m.declare_curve("C", (1, 1))
    return m


#: Each query that takes a caller's sparse class as it is, with a foreign entry
FOREIGN_SPARSE_CLASSES = {
    "pairing-nan": lambda m: m.pairing({0: float("nan")}, "C"),
    "pairing-float": lambda m: m.pairing({0: 0.5}, "C"),
    "pairing-both": lambda m: m.pairing("C", {1: 0.25, 0: F(1, 2)}),
    "k_degree-float": lambda m: m.k_degree({0: 0.5}),
    "intersect-nan": lambda m: m.intersect({0: float("nan")}, "C"),
    "arithmetic_genus-nan": lambda m: m.arithmetic_genus({0: float("nan")}),
}


@pytest.mark.parametrize("query", FOREIGN_SPARSE_CLASSES)
def test_foreign_sparse_class_entry_raises_geometry_error(query):
    with pytest.raises(GeometryError, match="is not an exact rational"):
        FOREIGN_SPARSE_CLASSES[query](quadric_with_c())


#: Each query that walks a caller's sparse class, with a key off the rank-2
#: lattice or an inexact entry, and the message it gives
OFF_LATTICE_SPARSE_CLASSES = {
    "total_class-negative": (lambda m: m.total_class({-1: 1}), "index -1 is not a coordinate 0..1"),
    "total_class-past-rank": (lambda m: m.total_class({7: 1}), "index 7 is not a coordinate 0..1"),
    "total_class-float": (lambda m: m.total_class({0: 0.5}), "0.5 is not an exact rational"),
    "k_degree-negative": (lambda m: m.k_degree({-1: 1}), "index -1 is not a coordinate 0..1"),
    "k_degree-past-rank": (lambda m: m.k_degree({7: 1}), "index 7 is not a coordinate 0..1"),
    "k_degree-str": (lambda m: m.k_degree({"0": 1}), "index '0' is not a coordinate 0..1"),
}


@pytest.mark.parametrize("query", OFF_LATTICE_SPARSE_CLASSES)
def test_off_lattice_sparse_class_raises_geometry_error(query):
    call, message = OFF_LATTICE_SPARSE_CLASSES[query]
    with pytest.raises(GeometryError, match=message):
        call(quadric_with_c())


def test_exact_sparse_classes_still_pair():
    m = quadric_with_c()
    assert m.pairing({0: F(1, 2)}, "C") == F(1, 2)
    assert type(m.pairing({0: 1, 1: 2}, "C")) is int
    assert m.k_degree({0: F(1, 2)}) == -1
    assert m.arithmetic_genus({0: 1, 1: 1}) == 0


def test_total_class_resolution():
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    d = QDivisor({"C": F(1, 3)}, residual=(1, 0))
    assert m.total_class(d) == (F(4, 3), 1)
    # an integral coefficient keeps the entries ints
    assert [type(x) for x in m.total_class(QDivisor({"C": 2}, residual=(1, 0)))] == [int, int]
    with pytest.raises(GeometryError, match="unknown divisor"):
        m.total_class("missing")
    with pytest.raises(GeometryError, match="unknown divisor"):
        m.total_class(QDivisor({"missing": 1}))
    with pytest.raises(GeometryError, match="rank"):
        m.total_class(QDivisor({}, residual=(1, 0, 0)))


@pytest.mark.parametrize(
    "divisor, expected",
    [
        ("C", {0: 1, 1: 3, 2: -1}),
        (QDivisor({"C": 1, "E": F(1, 2)}), {0: 1, 1: 3, 2: F(-1, 2)}),
        (QDivisor({"C": 1, "E": 1}, residual=(0, -3, 0)), {0: 1}),  # cancelled entries dropped
        ((2, 0, F(1, 2)), {0: 2, 2: F(1, 2)}),
        ({1: 5}, {1: 5}),
    ],
    ids=["name", "qdivisor", "qdivisor-residual", "vector", "dict"],
)
def test_sparse_class_is_one_map(divisor, expected):
    m = new_quadric()
    m.declare_curve("C", (1, 3))
    m.blow_up("E", [("C", 1)])
    cls = m.sparse_class(divisor)
    assert type(cls) is dict and cls == expected
    if type(divisor) is dict:
        assert cls is divisor  # a sparse class passes through, not copied
