"""Combinatorial model of an iterated blow-up of a rational surface.

The model tracks three things exactly: the divisor lattice, the canonical
class, and a registry of named prime divisors with their integer classes.
The lattice is always ``base ⊕ −I``: the base surface's Gram block, then one
basis class per blow-up with square -1, orthogonal to everything else.  A
blow-up point is never a coordinate pair; it is specified purely by
incidences `(curve_name, multiplicity)`, and the engine validates the
numerical budget `X.Y >= m_X * m_Y` for every pair of incident curves.
Linear equivalence is identified with equality of class vectors, which is
sound on a rational surface (torsion-free Picard group).

Only the base block is stored, and classes are sparse: a *sparse class* is
one dict ``{coordinate index: nonzero value}``, base coordinates included.
One other module splits a class into base and exceptional parts:
`cohomology.verify_h0_anticanonical_zero` reads coordinates 0 and 1 of a
quadric class as its bidegree and zeroes them.  A blow-up updates each incident
curve's record in place: one entry added to its map, D.D and D.K adjusted, and
the kept nonzero *exceptional parts* E(X, Y) = -sum X_c*Y_c (c exceptional) of
its pairings, by -m_X*m_Y for incident X, Y, with E(E, X) = m_X for the new
curve.  So two names pair in O(1) (one kernel per base gives the base part), a
blow-up costs O(incidences^2) and copies no map, and other classes walk the
shorter map.  Dense vectors (``class_vector``, ``total_class``, ``gram``,
``canonical_class``) are built on demand.  The canonical class is stored as its
base part: each exceptional coordinate is 1.

Conventions:
  * quadric base: basis starts with the two ruling fibre classes ``f_x``,
    ``f_y`` with Gram block [[0,1],[1,0]] and canonical class (-2,-2);
  * plane base: basis is the line class, Gram [[1]], canonical class (-3);
  * each blow-up appends one basis class ``e`` with ``e^2 = -1``, replaces
    every incident curve's class by ``class - m*e`` (strict transform), and
    sends the canonical class to ``K + e`` (total-transform rule).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import GeometryError

QUADRIC = "quadric"
PLANE = "plane"
#: basis labels, Gram block and canonical class of each base surface
BASES = {QUADRIC: (("f_x", "f_y"), ((0, 1), (1, 0)), (-2, -2)), PLANE: (("l",), ((1,),), (-3,))}
#: The inertia (n_plus, n_minus, n_zero) of each base block: the hyperbolic
#: plane and the line's square 1.
BASE_SIGNATURES = {QUADRIC: (1, 1, 0), PLANE: (1, 0, 0)}

#: {coordinate index: nonzero coefficient}, base coordinates included
SparseClass = dict[int, Union[int, Fraction]]


def _kernel(links: list[tuple[int, int, int]]):
    """G_base on the base coordinates of sparse classes x, y: one closure per
    nonzero entry (i, j, g) of the block, so a call builds no list."""
    (i, j, g), *rest = links
    if not rest:
        return lambda x, y: g * x.get(i, 0) * y.get(j, 0)
    tail = _kernel(rest)
    return lambda x, y: g * x.get(i, 0) * y.get(j, 0) + tail(x, y)


#: the nonzero entries (i, j, g) of each base's Gram block, and its kernel
_LINKS = {base: [(i, j, g) for i, row in enumerate(gram) for j, g in enumerate(row) if g]
          for base, (_, gram, _) in BASES.items()}
_BASE_PART = {base: _kernel(links) for base, links in _LINKS.items()}


def _dense(cls: SparseClass, rank: int) -> tuple[int | Fraction, ...]:
    """The dense vector of a sparse class; GeometryError for a key that is not a
    coordinate 0..rank-1 or an entry that is not an int or a Fraction."""
    vec = [0] * rank
    for i, x in cls.items():
        if type(i) is not int or not 0 <= i < rank:
            raise GeometryError(f"sparse class index {i!r} is not a coordinate 0..{rank - 1}")
        vec[i] = x if type(x) is int else _exact(x)
    return tuple(vec)  # of a list: tuples grown from a generator linger in free lists


class PrimeDivisor:
    """A named irreducible curve: its sparse class ``cls`` over all coordinates,
    D.D and D.K cached as ``square`` and ``k_degree``, and ``_parts``, its nonzero
    exceptional pairings E(D, Y) by name.  A blow-up through it updates all of
    them in place, to the strict transform's, so ``sparse_class(name)`` returns
    the live map: a caller who needs a fixed class copies it."""

    __slots__ = ("name", "cls", "square", "k_degree", "_basis", "_parts")

    def __init__(self, name: str, cls: SparseClass, square: int, k_degree: int, basis: list[str]):
        self.name, self.cls = name, cls
        self.square, self.k_degree = square, k_degree
        self._basis = basis  # the model's labels, so class_vector reads its current rank
        self._parts: dict[str, int] = {}  # filled by the model

    @property
    def class_vector(self) -> tuple[int, ...]:
        return _dense(self.cls, len(self._basis))


def _fraction(x: int | Fraction | str) -> Fraction:
    """Fraction(x); GeometryError for what it cannot convert (nan, an infinity)."""
    try:
        return Fraction(x)
    except (ValueError, OverflowError):
        raise GeometryError(f"{x!r} is not a finite rational") from None


def _rational(x: int | Fraction | str) -> int | Fraction:
    """``x`` as an int when it is integral, else as a Fraction (see `_fraction`)."""
    if type(x) is int:
        return x
    x = x if type(x) is Fraction else _fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact(value: object) -> int | Fraction:
    """``value``, an int or a Fraction; anything else (a float, say) can only come
    from a caller's sparse class with such an entry, which `sparse_class` passes
    through unscanned: GeometryError."""
    if type(value) is int or type(value) is Fraction:
        return value
    raise GeometryError(f"{value!r} is not an exact rational: a sparse class entry is "
                        "not an int or a Fraction")


class QDivisor:
    """Formal rational combination of named prime divisors, plus an integral
    residual lattice class for divisors (like the canonical class) that have
    no preferred expression in named curves.

    Zero coefficients are dropped on construction, so two combinations are
    equal exactly when they have the same nonzero coefficients and residual.
    ``named`` holds each coefficient as an int when it is integral, else as
    a Fraction.
    """

    __slots__ = ("named", "residual")

    def __init__(self, named: Mapping[str, int | Fraction | str] | None = None,
                 residual: Sequence[int] | None = None):
        self.named: dict[str, int | Fraction] = {
            n: c for n, x in (named or {}).items() if (c := _rational(x))}
        if residual is not None:
            residual = tuple(residual)
            if {*map(type, residual)} - {int}:  # an all-int residual is kept as it is
                if any(x % 1 for x in residual):  # nonzero, or nan for nan and inf
                    raise GeometryError("residual class must be integral")
                residual = tuple(map(int, residual))
        self.residual = residual

    def coefficient(self, name: str) -> int | Fraction:
        return self.named.get(name, 0)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.named.values())

    def floor(self) -> "QDivisor":
        """Coefficient-wise floor of the named part, in ints; residual untouched."""
        floored = {n: c.numerator // c.denominator for n, c in self.named.items()}
        return QDivisor(floored, self.residual)

    def _combine(self, other: "QDivisor", sign: int) -> "QDivisor":
        named = dict(self.named)
        for n, c in other.named.items():
            named[n] = named.get(n, 0) + sign * c
        res = None
        if self.residual is not None or other.residual is not None:
            a = self.residual or (0,) * len(other.residual)
            b = other.residual or (0,) * len(a)
            if len(a) != len(b):
                raise GeometryError("residual classes live in different lattices")
            res = tuple(x + sign * y for x, y in zip(a, b))
        return QDivisor(named, res)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        return self._combine(other, 1)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self._combine(other, -1)

    def __neg__(self) -> "QDivisor":
        return self.scaled(-1)

    def scaled(self, s: int | Fraction) -> "QDivisor":
        """``s`` times the divisor; the residual must stay integral (an all-int
        residual times an int stays all-int and skips the integrality test)."""
        s = _rational(s)
        res = None if self.residual is None else [s * x for x in self.residual]
        return QDivisor({n: s * c for n, c in self.named.items()}, res)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QDivisor):
            return NotImplemented
        a = self.residual if self.residual and any(self.residual) else None
        b = other.residual if other.residual and any(other.residual) else None
        return a == b and self.named == other.named

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*{n}" for n, c in sorted(self.named.items())) or "0"
        if self.residual is not None and any(self.residual):
            terms += f" + residual{self.residual}"
        return f"QDivisor({terms})"


DivisorLike = Union[QDivisor, str, Sequence[Union[int, Fraction]]]


class SurfaceModel:
    """Blown-up rational surface: lattice, canonical class, named divisors.

    Built single-threaded through `declare_curve` / `blow_up`; treat as
    immutable once the construction is finished (all query methods are pure).
    """

    #: Euler characteristic of the structure sheaf of any rational surface,
    #: consumed by the Riemann-Roch routines.
    chi_structure_sheaf = 1

    def __init__(self, base: str):
        if base not in BASES:
            raise GeometryError(f"unknown base surface {base!r}")
        labels, gram, self._k_base = BASES[base]
        self.basis_labels = list(labels)
        self.base, self.base_gram, self.base_rank = base, gram, len(labels)
        self._k_dual = [sum(g * k for g, k in zip(row, self._k_base)) for row in gram]  # G K_base
        self.prime_divisors: dict[str, PrimeDivisor] = {}

    # -- construction -----------------------------------------------------

    def declare_curve(self, name: str, class_vector: Sequence[int]) -> PrimeDivisor:
        """Register an irreducible curve by its class vector.

        Rejects classes no irreducible curve can have: the arithmetic genus
        must be a nonnegative integer and the base-degree part nonnegative
        and nonzero (numerical effectivity screen).  Exceptional entries are
        paired once with every registered divisor: only this costs O(#divisors).
        One pass makes the class integral and sparse; D.D is the base kernel
        less the exceptional squares, and D.K is G_base K_base less their sum.
        """
        self._check_fresh(name)
        cls, exc, r, k_dual = {}, [], self.base_rank, self._k_dual
        i, negative, exc_square, k_degree = -1, False, 0, 0
        for i, x in enumerate(class_vector):
            if type(x) is not int:
                if x % 1:  # nonzero, or nan for nan and inf
                    raise GeometryError("curve classes are integral lattice vectors")
                x = int(x)
            if not x:
                continue
            cls[i] = x
            if i < r:
                negative = negative or x < 0
                k_degree += k_dual[i] * x
            else:
                exc.append((i, x))
                exc_square, k_degree = exc_square + x * x, k_degree - x
        if i + 1 != self.rank:
            raise GeometryError(f"class vector of length {i + 1} on a rank-{self.rank} lattice")
        if negative or not cls:
            raise GeometryError(f"class {_dense(cls, i + 1)} is not effective-irreducible "
                                f"on the {self.base} base")
        square = _BASE_PART[self.base](cls, cls) - exc_square
        if (twice_genus := square + k_degree + 2) % 2 or twice_genus < 0:
            raise GeometryError(f"class {_dense(cls, i + 1)} has arithmetic genus "
                                f"{Fraction(twice_genus, 2)}; no irreducible curve represents it")
        new = PrimeDivisor(name, cls, square, k_degree, self.basis_labels)
        if exc:
            for other in self.prime_divisors.values():
                if meets := -sum([x * other.cls[i] for i, x in exc if i in other.cls]):
                    new._parts[other.name] = other._parts[name] = meets
        self.prime_divisors[name] = new
        return new

    def blow_up(
        self, exceptional_name: str, incident: Iterable[tuple[str, int]] = ()
    ) -> PrimeDivisor:
        """Blow up a point specified by its incident curves and multiplicities.

        Validates the intersection budget `X.Y >= m_X*m_Y` (read in O(1)) for
        every pair of incident curves and the genus budget `p_a(X) >= m(m-1)/2`
        for every multiplicity.  Appends a new (-1) basis class and takes strict
        transforms of the incident curves; the canonical class gains a 1 on
        the new class.
        """
        self._check_fresh(exceptional_name)
        divisors, base_part = self.prime_divisors, _BASE_PART[self.base]
        seen: dict[str, int] = {}
        kept = []  # (X, Y, E(X, Y) after the blow-up) for each incident pair
        for x, mx in incident:
            if (dx := divisors.get(x)) is None:
                raise GeometryError(f"unknown curve {x!r} in incidence list")
            if x in seen:
                raise GeometryError(f"curve {x!r} listed twice in incidence list")
            if type(mx) is not int or mx < 1:  # a bool is no multiplicity
                raise GeometryError(f"multiplicity of {x!r} must be an integer >= 1")
            if (twice_genus := dx.square + dx.k_degree + 2) < mx * (mx - 1):
                raise GeometryError(f"curve {x!r} cannot have a point of multiplicity {mx} "
                                    f"(genus budget {Fraction(twice_genus, 2)})")
            for y, my in seen.items():
                e, dy = dx._parts.get(y, 0), divisors[y]
                if (meets := e + base_part(dx.cls, dy.cls)) < my * mx:
                    raise GeometryError(f"incidence budget violated: {y}.{x} = {meets} < "
                                        f"{my}*{mx}; the declared point cannot exist numerically")
                kept.append((dx, dy, e - mx * my))
            seen[x] = mx

        index, basis = self.rank, self.basis_labels
        basis.append(exceptional_name)
        exc = divisors[exceptional_name] = PrimeDivisor(exceptional_name, {index: 1}, -1, -1, basis)
        for dx, dy, e in kept:
            if e:
                dx._parts[dy.name] = dy._parts[dx.name] = e
            else:
                del dx._parts[dy.name], dy._parts[dx.name]
        for name, m in seen.items():  # strict transforms, in place; no other divisor changes
            div = divisors[name]
            div.cls[index] = -m
            div.square, div.k_degree = div.square - m * m, div.k_degree + m
            div._parts[exceptional_name] = exc._parts[name] = m
        return exc

    def _check_fresh(self, name: str) -> None:
        # every exceptional label is also a registered divisor
        if name in self.prime_divisors or name in BASES[self.base][0]:
            raise GeometryError(f"name {name!r} already in use")

    # -- queries ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix ``base ⊕ −I``, built on demand."""
        r, n = self.base_rank, self.rank
        rows = [row + (0,) * (n - r) for row in self.base_gram]
        rows += [(0,) * i + (-1,) + (0,) * (n - i - 1) for i in range(r, n)]
        return tuple(rows)

    @property
    def canonical_class(self) -> tuple[int, ...]:
        """The dense canonical class: K's base part, then 1 per blow-up."""
        return (*self._k_base, *[1] * (self.rank - self.base_rank))

    def canonical_divisor(self) -> QDivisor:
        """The canonical class as a QDivisor (pure residual, no named part)."""
        return QDivisor({}, self.canonical_class)

    def sparse_class(self, d: DivisorLike | SparseClass) -> SparseClass:
        """Resolve a divisor to its sparse class: a registered name gives its stored
        class (the live map, not a copy), a QDivisor its residual plus its named classes
        (an integral coefficient stays an ``int``), a class vector its nonzero
        entries, and a sparse class itself, unscanned.  Entries are ``int`` or
        ``Fraction``: `pairing`, `k_degree` and `total_class` refuse another type.
        `k_degree` and `total_class` refuse a key that is not a coordinate 0..rank-1;
        `pairing` trusts a caller's map for its keys."""
        if isinstance(d, str):
            if (div := self.prime_divisors.get(d)) is None:
                raise GeometryError(f"unknown divisor name {d!r}")
            return div.cls
        if type(d) is dict:
            return d
        if isinstance(d, QDivisor):
            cls = {} if d.residual is None else self.sparse_class(d.residual)
            for name, c in d.named.items():
                for i, x in self.sparse_class(name).items():
                    cls[i] = cls.get(i, 0) + c * x
            return {i: x for i, x in cls.items() if x}
        vec = [x if type(x) is int else _fraction(x) for x in d]
        if len(vec) != self.rank:
            raise GeometryError(f"class vector of length {len(vec)} on a rank-{self.rank} lattice")
        return {i: x for i, x in enumerate(vec) if x}

    def total_class(self, d: DivisorLike) -> tuple[int | Fraction, ...]:
        """The dense class vector: `sparse_class` with the zero coordinates filled in."""
        return _dense(self.sparse_class(d), self.rank)

    def pairing(self, u: DivisorLike | SparseClass, v: DivisorLike | SparseClass) -> int | Fraction:
        """Intersection form on two classes (anything `sparse_class` resolves):
        two names give ``square`` or their base part plus the kept E part, in
        O(1); other classes their base part less the exceptional dot product,
        walked over the shorter map.  Integral classes give an int.  A caller's
        map is trusted for its keys: checking them would double a dict pairing."""
        divisors = self.prime_divisors
        if type(u) is str and type(v) is str and u in divisors and v in divisors:
            du, dv = divisors[u], divisors[v]
            return du.square if du is dv else du._parts.get(v, 0) + _BASE_PART[self.base](du.cls, dv.cls)
        u, v = self.sparse_class(u), self.sparse_class(v)
        if len(u) > len(v):
            u, v = v, u
        r, base_part = self.base_rank, _BASE_PART[self.base]
        return _exact(base_part(u, v) - sum([x * v[i] for i, x in u.items() if i >= r and i in v]))

    def gram_rows(self, names: Sequence[str]) -> list[dict[int, int]]:
        """Sparse Gram rows of distinct registered curves (row i maps j to
        names[i].names[j] if nonzero, its diagonal first), pairing only curves
        with a kept exceptional part or base coordinates that G_base links."""
        where = {n: i for i, n in enumerate(names)}
        records, base_part = [self.prime_divisors[n] for n in names], _BASE_PART[self.base]
        on_base = [[i for i, d in enumerate(records) if k in d.cls] for k in range(self.base_rank)]
        rows = [{i: d.square} for i, d in enumerate(records)]
        for i, d in enumerate(records):
            linked = {where[m] for m in d._parts if m in where}
            linked.update(j for k, l, _ in _LINKS[self.base] if k in d.cls for j in on_base[l])
            for j in sorted(linked):
                if j > i and (meets := d._parts.get(names[j], 0) + base_part(d.cls, records[j].cls)):
                    rows[i][j] = rows[j][i] = meets
        return rows

    def k_degree(self, d: DivisorLike | SparseClass) -> int | Fraction:
        """D.K for anything `sparse_class` resolves: G_base K_base on the base
        coordinates, less the exceptional ones (K has 1 on each)."""
        k, r, n, cls = self._k_dual, self.base_rank, self.rank, self.sparse_class(d)
        terms = [x * k[i] if i < r else -x for i, x in cls.items() if type(i) is int and 0 <= i < n]
        if len(terms) < len(cls):
            _dense(cls, n)  # raises GeometryError naming a key off the lattice
        return _exact(sum(terms))

    def intersect(self, a: DivisorLike | SparseClass, b: DivisorLike | SparseClass) -> Fraction:
        """Intersection number of two divisors: `pairing` as a Fraction."""
        return Fraction(self.pairing(a, b))

    def arithmetic_genus(self, d: DivisorLike) -> Fraction:
        """Adjunction genus D.(D + K)/2 + 1."""
        cls = self.sparse_class(d)
        return Fraction(self.pairing(cls, cls) + self.k_degree(cls), 2) + 1

    def lattice_signature(self) -> tuple[int, int, int]:
        """Inertia of the Gram matrix ``base ⊕ −I``: the base block's, plus
        one negative square per blow-up, so (1, rank-1, 0) on either base."""
        plus, minus, zero = BASE_SIGNATURES[self.base]
        return plus, minus + self.rank - self.base_rank, zero


def new_quadric() -> SurfaceModel:
    """Fresh model of the smooth quadric (product of two lines)."""
    return SurfaceModel(QUADRIC)


def new_plane() -> SurfaceModel:
    """Fresh model of the projective plane."""
    return SurfaceModel(PLANE)
