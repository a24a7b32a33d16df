"""Contraction of a negative-definite curve configuration.

Given a `SurfaceModel` and a set of tracked curves whose Gram matrix is
negative definite, this module computes the numerical pullback of divisors
from the contracted surface (the unique correction supported on the
contracted curves that is orthogonal to all of them), pushforwards,
discrepancies with their singularity classification, the cyclic-quotient
type of every contracted chain, the divisor class group of the target, and
rank-one positivity tests against a witness curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GeometryError, NotContractibleError
from .exactlin import IntMatrix, invert, is_negative_definite, smith_normal_form
from .surface import DivisorLike, QDivisor, SurfaceModel


class SingClass(enum.Enum):
    """Discrepancy-based singularity classes, strongest first."""

    TERMINAL = "terminal"
    CANONICAL = "canonical"
    KLT = "klt"
    LC = "lc"
    NOT_LC = "not_lc"


class ChainLabel(enum.Enum):
    A_N_CHAIN = "A_n_chain"
    WEIGHTED_CYCLIC = "weighted_cyclic"


@dataclass(frozen=True)
class SingularPointReport:
    """One contracted chain and its cyclic quotient type 1/n(1, q).

    ``n/q`` is the continued fraction b1 - 1/(b2 - 1/(...)) of the negated
    self-intersections along the chain.  The two orientations of a chain give
    inverse weights q, q' with q*q' = 1 mod n and label the same singularity;
    reports always carry the smaller of the two.
    """

    component: tuple[str, ...]
    self_intersections: tuple[int, ...]
    hj_type: tuple[int, int]
    label: ChainLabel


@dataclass(frozen=True)
class ClassGroupReport:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...]


def hirzebruch_jung_type(bs: Sequence[int]) -> tuple[int, int]:
    """(n, q) with n/q = b1 - 1/(b2 - 1/(...)), canonicalized as documented
    on SingularPointReport.  n = 1 means the chain contracts to a smooth
    point (reported as (1, 0))."""
    bs = [int(b) for b in bs]
    if not bs:
        raise GeometryError("empty chain")
    value: Fraction | None = None
    for b in reversed(bs):
        if value is None:
            value = Fraction(b)
        elif value == 0:
            raise GeometryError(f"chain {bs} is degenerate (zero continuant)")
        else:
            value = b - 1 / value
    n, q = value.numerator, value.denominator
    if n <= 0:
        raise GeometryError(f"chain {bs} does not contract to a quotient point")
    if n == 1:
        return (1, 0)
    q %= n
    q_inv = pow(q, -1, n)
    return (n, min(q, q_inv))


class Contraction:
    """A validated contraction with cached Gram data.

    Immutable after construction; the Gram inverse is computed eagerly so
    every later pullback is a single exact matrix-vector product.
    """

    def __init__(self, model: SurfaceModel, curve_names: Iterable[str]):
        names = list(curve_names)
        if len(set(names)) != len(names):
            raise GeometryError("contracted curve names must be distinct")
        for name in names:
            div = model.prime_divisors.get(name)
            if div is None:
                raise GeometryError(f"unknown curve {name!r}")
            if not div.is_curve:
                raise GeometryError(f"{name!r} is not a tracked curve")
        gram = [[model.intersect(a, b) for b in names] for a in names]
        if not is_negative_definite(gram):
            raise NotContractibleError(
                "not contractible (numerical criterion): the Gram matrix of "
                f"{names} is not negative definite"
            )
        self.source = model
        self.contracted = tuple(names)
        self.gram = tuple(tuple(row) for row in gram)
        self._gram_inverse = invert(gram) if names else []

    @property
    def target_rank(self) -> int:
        return self.source.rank - len(self.contracted)

    # -- transfer of divisors ----------------------------------------------

    def _corrections(self, d: DivisorLike) -> dict[str, Fraction]:
        """Coefficients a_j with (D + sum a_j G_j).G_k = 0 for all k."""
        pairings = [self.source.intersect(d, name) for name in self.contracted]
        coeffs = [-sum(g * x for g, x in zip(row, pairings)) for row in self._gram_inverse]
        return dict(zip(self.contracted, coeffs))

    def pullback(self, d_on_target: QDivisor) -> QDivisor:
        """Numerical pullback: the representative plus the unique correction
        on contracted curves that is orthogonal to every contracted curve.

        The representative must be supported off the contracted curves."""
        touching = [n for n in self.contracted if d_on_target.coefficient(n) != 0]
        if touching:
            raise GeometryError(
                f"representative has nonzero coefficient on contracted {touching}"
            )
        named = dict(d_on_target.named)
        named.update(self._corrections(d_on_target))
        return QDivisor(named, d_on_target.residual)

    def pushforward(self, d: QDivisor) -> QDivisor:
        """Drop coefficients on contracted curves, keep everything else."""
        named = {n: c for n, c in d.named.items() if n not in self.contracted}
        return QDivisor(named, d.residual)

    # -- discrepancies -------------------------------------------------------

    def discrepancies(self) -> tuple[dict[str, Fraction], SingClass]:
        """a(G) for each contracted curve, and the classification from the
        minimum: terminal a > 0, canonical a >= 0, klt a > -1, lc a >= -1."""
        k_target = self.pushforward(self.source.canonical_divisor())
        corrections = self.pullback(k_target).named
        discreps = {n: -corrections.get(n, Fraction(0)) for n in self.contracted}
        if not discreps:
            return discreps, SingClass.TERMINAL
        worst = min(discreps.values())
        if worst > 0:
            cls = SingClass.TERMINAL
        elif worst >= 0:
            cls = SingClass.CANONICAL
        elif worst > -1:
            cls = SingClass.KLT
        elif worst >= -1:
            cls = SingClass.LC
        else:
            cls = SingClass.NOT_LC
        return discreps, cls

    # -- singular points ------------------------------------------------------

    def classify_singularities(self) -> list[SingularPointReport]:
        """Hirzebruch-Jung type of every contracted chain.

        Chains contracting to smooth points (n = 1, e.g. a single (-1)-curve)
        are omitted.  Components with a branch vertex, a cycle, a pairwise
        intersection > 1, or a (-1)-curve inside a genuinely singular chain
        are rejected as unsupported configurations.
        """
        names = self.contracted
        index = {n: i for i, n in enumerate(names)}
        adj: dict[str, list[str]] = {n: [] for n in names}
        for i, a in enumerate(names):
            for j, b in enumerate(names[i + 1 :], start=i + 1):
                meets = self.gram[i][j]
                if meets == 0:
                    continue
                if meets != 1:
                    raise GeometryError(
                        f"unsupported configuration: {a}.{b} = {meets} "
                        "(only reduced chains are classified)"
                    )
                adj[a].append(b)
                adj[b].append(a)

        reports = []
        seen: set[str] = set()
        for start in names:
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            for cur in component:  # grows while it is walked
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        component.append(nxt)
            edges = sum(len(adj[n]) for n in component) // 2
            if edges != len(component) - 1 or any(len(adj[n]) > 2 for n in component):
                raise GeometryError(
                    f"unsupported configuration: component {sorted(component)} "
                    "is not a chain"
                )
            ordered = [min((n for n in component if len(adj[n]) <= 1), key=index.__getitem__)]
            while len(ordered) < len(component):
                ordered.append(next(n for n in adj[ordered[-1]] if n not in ordered[-2:]))
            bs = [-int(self.gram[index[n]][index[n]]) for n in ordered]
            n_val, q_val = hirzebruch_jung_type(bs)
            if n_val == 1:
                continue  # contracts to a smooth point
            if any(b < 2 for b in bs):
                raise GeometryError(
                    f"unsupported configuration: chain {ordered} mixes a "
                    "(-1)-curve into a singular contraction"
                )
            label = ChainLabel.A_N_CHAIN if all(b == 2 for b in bs) else ChainLabel.WEIGHTED_CYCLIC
            reports.append(
                SingularPointReport(tuple(ordered), tuple(bs), (n_val, q_val), label)
            )
        return reports

    # -- class group ------------------------------------------------------------

    def class_group(self, extra_classes: Sequence[Sequence[int]] = ()) -> ClassGroupReport:
        """Quotient of the source lattice by the contracted classes (plus any
        extra integral classes), via Smith normal form."""
        rows = [list(self.source.prime_divisors[n].class_vector) for n in self.contracted]
        rows.extend(list(int(x) for x in extra) for extra in extra_classes)
        matrix = IntMatrix.from_rows(rows) if rows else IntMatrix(0, self.source.rank, ())
        snf = smith_normal_form(matrix)
        factors = snf.invariant_factors()
        return ClassGroupReport(
            rank=self.source.rank - len(factors),
            torsion=tuple(x for x in factors if x > 1),
        )

    # -- positivity ---------------------------------------------------------------

    def is_relatively_nef(self, d: DivisorLike) -> tuple[bool, dict[str, Fraction]]:
        """D.G >= 0 for every contracted G, with all degrees reported."""
        degrees = {n: self.source.intersect(d, n) for n in self.contracted}
        return all(v >= 0 for v in degrees.values()), degrees

    def _default_witness(self) -> tuple[int, ...]:
        # pullback class of a general fibre of the first ruling (line on plane)
        return (1,) + (0,) * (self.source.rank - 1)

    def degree_against(
        self, d_on_target: QDivisor, witness: DivisorLike | None = None
    ) -> Fraction:
        """Degree of a divisor on the rank-one target against a witness curve
        (projection formula: pair the pullback with the witness class)."""
        if self.target_rank != 1:
            raise GeometryError(
                f"target Picard rank is {self.target_rank}, not 1; "
                "rank-one degree undefined"
            )
        if witness is None:
            witness = self._default_witness()
        if isinstance(witness, str) and witness in self.contracted:
            raise GeometryError(f"witness curve {witness!r} is contracted")
        return self.source.intersect(self.pullback(d_on_target), witness)

    def is_ample_rank1(
        self, d_on_target: QDivisor, witness: DivisorLike | None = None
    ) -> bool:
        return self.degree_against(d_on_target, witness) > 0

    def numerically_proportional(
        self,
        d1: QDivisor,
        d2: QDivisor,
        witness: DivisorLike | None = None,
    ) -> Fraction | None:
        """r with d1 = r*d2 numerically on the rank-one target; None when d2
        is numerically trivial."""
        deg2 = self.degree_against(d2, witness)
        if deg2 == 0:
            return None
        return self.degree_against(d1, witness) / deg2


def contract(model: SurfaceModel, curve_names: Iterable[str]) -> Contraction:
    """Contract the named curves; raises NotContractibleError unless their
    Gram matrix is negative definite."""
    return Contraction(model, curve_names)
