"""Combinatorial model of an iterated blow-up of a rational surface.

The model tracks three things exactly: the divisor lattice, the canonical
class, and a registry of named prime divisors with their integer class
vectors.  The lattice is always ``base ⊕ −I``: the base surface's Gram block,
then one basis class per blow-up with square -1, orthogonal to everything
else.  Only the base block is stored, and the pairing is computed from that
structure.  A blow-up point is never a coordinate pair; it is specified
purely by incidences `(curve_name, multiplicity)`, and the engine validates
the numerical budget `X.Y >= m_X * m_Y` for every pair of incident curves.
Linear equivalence is identified with equality of class vectors, which is
sound on a rational surface (torsion-free Picard group).

Conventions:
  * quadric base: basis starts with the two ruling fibre classes ``f_x``,
    ``f_y`` with Gram block [[0,1],[1,0]] and canonical class (-2,-2);
  * plane base: basis is the line class, Gram [[1]], canonical class (-3);
  * each blow-up appends one basis class ``e`` with ``e^2 = -1``, replaces
    every incident curve's class by ``class - m*e`` (strict transform), and
    sends the canonical class to ``K + e`` (total-transform rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import GeometryError
from .exactlin import signature

QUADRIC = "quadric"
PLANE = "plane"


@dataclass(frozen=True)
class PrimeDivisor:
    """A named irreducible curve (or divisor) with its lattice class."""

    name: str
    class_vector: tuple[int, ...]
    is_curve: bool = True


class QDivisor:
    """Formal rational combination of named prime divisors, plus an integral
    residual lattice class for divisors (like the canonical class) that have
    no preferred expression in named curves.

    Zero coefficients are dropped on construction, so two combinations are
    equal exactly when they have the same nonzero coefficients and residual.
    """

    __slots__ = ("named", "residual")

    def __init__(
        self,
        named: Mapping[str, int | Fraction | str] | None = None,
        residual: Sequence[int] | None = None,
    ):
        coeffs = {}
        for name, c in (named or {}).items():
            c = Fraction(c)
            if c != 0:
                coeffs[name] = c
        self.named: dict[str, Fraction] = coeffs
        if residual is not None:
            if any(x != int(x) for x in residual):
                raise GeometryError("residual class must be integral")
            self.residual: tuple[int, ...] | None = tuple(int(x) for x in residual)
        else:
            self.residual = None

    def coefficient(self, name: str) -> Fraction:
        return self.named.get(name, Fraction(0))

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.named.values())

    def floor(self) -> "QDivisor":
        """Coefficient-wise floor of the named part; residual untouched."""
        floored = {n: Fraction(c.numerator // c.denominator) for n, c in self.named.items()}
        return QDivisor(floored, self.residual)

    def _combine(self, other: "QDivisor", sign: int) -> "QDivisor":
        named = dict(self.named)
        for n, c in other.named.items():
            named[n] = named.get(n, Fraction(0)) + sign * c
        if self.residual is None and other.residual is None:
            res = None
        else:
            a = self.residual or (0,) * len(other.residual or ())
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
        s = Fraction(s)
        named = {n: s * c for n, c in self.named.items()}
        res = self.residual
        if res is not None:
            scaled_res = [s * x for x in res]
            if any(x.denominator != 1 for x in scaled_res):
                raise GeometryError("scaling makes the residual class non-integral")
            res = tuple(int(x) for x in scaled_res)
        return QDivisor(named, res)

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
        if base == QUADRIC:
            self.basis_labels = ["f_x", "f_y"]
            self._base_gram = ((0, 1), (1, 0))
            self._canonical = [-2, -2]
        elif base == PLANE:
            self.basis_labels = ["l"]
            self._base_gram = ((1,),)
            self._canonical = [-3]
        else:
            raise GeometryError(f"unknown base surface {base!r}")
        self.base = base
        self.base_rank = len(self.basis_labels)
        self.prime_divisors: dict[str, PrimeDivisor] = {}

    # -- construction -----------------------------------------------------

    def declare_curve(self, name: str, class_vector: Sequence[int]) -> PrimeDivisor:
        """Register an irreducible curve by its class vector.

        Rejects classes no irreducible curve can have: the arithmetic genus
        must be a nonnegative integer and the base-degree part nonnegative
        and nonzero (numerical effectivity screen).
        """
        self._check_fresh(name)
        if any(x != int(x) for x in class_vector):
            raise GeometryError("curve classes are integral lattice vectors")
        vec = tuple(int(x) for x in class_vector)
        if len(vec) != self.rank:
            raise GeometryError(
                f"class vector of length {len(vec)} on a rank-{self.rank} lattice"
            )
        base_part = vec[: self.base_rank]
        if any(x < 0 for x in base_part) or not any(vec):
            raise GeometryError(
                f"class {vec} is not effective-irreducible on the {self.base} base"
            )
        genus = self.arithmetic_genus(vec)
        if genus.denominator != 1 or genus < 0:
            raise GeometryError(
                f"class {vec} has arithmetic genus {genus}; "
                "no irreducible curve represents it"
            )
        divisor = PrimeDivisor(name, vec, is_curve=True)
        self.prime_divisors[name] = divisor
        return divisor

    def blow_up(
        self,
        exceptional_name: str,
        incident: Iterable[tuple[str, int]] = (),
    ) -> PrimeDivisor:
        """Blow up a point specified by its incident curves and multiplicities.

        Validates the intersection budget `X.Y >= m_X*m_Y` for every pair of
        incident curves and the genus budget `p_a(X) >= m(m-1)/2` for every
        multiplicity.  Appends a new (-1) basis class, takes strict
        transforms of the incident curves, and updates the canonical class.
        """
        self._check_fresh(exceptional_name)
        incident = list(incident)
        seen: dict[str, int] = {}
        for name, mult in incident:
            if name not in self.prime_divisors:
                raise GeometryError(f"unknown curve {name!r} in incidence list")
            if not self.prime_divisors[name].is_curve:
                raise GeometryError(f"{name!r} is not a tracked curve")
            if name in seen:
                raise GeometryError(f"curve {name!r} listed twice in incidence list")
            if not isinstance(mult, int) or mult < 1:
                raise GeometryError(f"multiplicity of {name!r} must be an integer >= 1")
            seen[name] = mult
        for i, (x, mx) in enumerate(incident):
            gx = self.arithmetic_genus(x)
            if gx - Fraction(mx * (mx - 1), 2) < 0:
                raise GeometryError(
                    f"curve {x!r} cannot have a point of multiplicity {mx} "
                    f"(genus budget {gx})"
                )
            for y, my in incident[i + 1 :]:
                if self.intersect(x, y) < mx * my:
                    raise GeometryError(
                        f"incidence budget violated: {x}.{y} = {self.intersect(x, y)} "
                        f"< {mx}*{my}; the declared point cannot exist numerically"
                    )

        n = self.rank
        self.basis_labels.append(exceptional_name)
        self._canonical.append(1)
        updated = {}
        for name, div in self.prime_divisors.items():
            updated[name] = PrimeDivisor(
                name, div.class_vector + (-seen.get(name, 0),), div.is_curve
            )
        self.prime_divisors = updated
        exc = PrimeDivisor(exceptional_name, (0,) * n + (1,), is_curve=True)
        self.prime_divisors[exceptional_name] = exc
        return exc

    def _check_fresh(self, name: str) -> None:
        if name in self.prime_divisors or name in self.basis_labels:
            raise GeometryError(f"name {name!r} already in use")

    # -- queries ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix ``base ⊕ −I``, built on demand."""
        r, n = self.base_rank, self.rank
        rows = [row + (0,) * (n - r) for row in self._base_gram]
        rows += [(0,) * i + (-1,) + (0,) * (n - i - 1) for i in range(r, n)]
        return tuple(rows)

    @property
    def canonical_class(self) -> tuple[int, ...]:
        return tuple(self._canonical)

    def canonical_divisor(self) -> QDivisor:
        """The canonical class as a QDivisor (pure residual, no named part)."""
        return QDivisor({}, self.canonical_class)

    def total_class(self, d: DivisorLike) -> tuple[int | Fraction, ...]:
        """Resolve a divisor (QDivisor, registered name, or raw class vector)
        to its total class vector in the current basis, with exact ``int`` or
        ``Fraction`` entries (a name gives its stored integer vector)."""
        if isinstance(d, str):
            try:
                return self.prime_divisors[d].class_vector
            except KeyError:
                raise GeometryError(f"unknown divisor name {d!r}") from None
        if isinstance(d, QDivisor):
            total: list[int | Fraction] = [0] * self.rank if d.residual is None else list(d.residual)
            if len(total) != self.rank:
                raise GeometryError(
                    f"residual class of length {len(total)} on a rank-{self.rank} lattice"
                )
            for name, coeff in d.named.items():
                if name not in self.prime_divisors:
                    raise GeometryError(f"unknown divisor name {name!r}")
                for i, x in enumerate(self.prime_divisors[name].class_vector):
                    if x:
                        total[i] += coeff * x
            return tuple(total)
        # tuple() of a list, not of a generator: CPython grows a generator's
        # tuple by resizing, and once freed such tuples pile up in its
        # per-length free lists instead of being reused
        vec = tuple([x if type(x) is int else Fraction(x) for x in d])
        if len(vec) != self.rank:
            raise GeometryError(
                f"class vector of length {len(vec)} on a rank-{self.rank} lattice"
            )
        return vec

    def pairing(
        self, u: Sequence[int | Fraction], v: Sequence[int | Fraction]
    ) -> int | Fraction:
        """Intersection form on two class vectors in the current basis: the
        base block's form on the first ``base_rank`` coordinates minus the dot
        product of the exceptional coordinates.  Integer vectors give an int."""
        r = self.base_rank
        base = sum(x * g * y for x, row in zip(u, self._base_gram) for g, y in zip(row, v))
        return base - sum(x * y for x, y in zip(u[r:], v[r:]) if x and y)

    def intersect(self, a: DivisorLike, b: DivisorLike) -> Fraction:
        """Intersection number of two divisors: `pairing` of their total classes."""
        return Fraction(self.pairing(self.total_class(a), self.total_class(b)))

    def arithmetic_genus(self, d: DivisorLike) -> Fraction:
        """Adjunction genus D.(D + K)/2 + 1."""
        d_vec = self.total_class(d)
        return Fraction(self.pairing(d_vec, d_vec) + self.pairing(d_vec, self._canonical), 2) + 1

    def lattice_signature(self) -> tuple[int, int, int]:
        """Inertia of the Gram matrix; stays (1, rank-1, 0) under blow-ups."""
        return signature(self.gram)


def new_quadric() -> SurfaceModel:
    """Fresh model of the smooth quadric (product of two lines)."""
    return SurfaceModel(QUADRIC)


def new_plane() -> SurfaceModel:
    """Fresh model of the projective plane."""
    return SurfaceModel(PLANE)
