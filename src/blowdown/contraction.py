"""Contraction of a negative-definite curve configuration.

Given a `SurfaceModel` and tracked curves whose Gram matrix is negative
definite, this module computes the numerical pullback of divisors from the
contracted surface (the unique correction supported on the contracted curves
that is orthogonal to all of them, solved per connected block: Mumford 1961,
Artin 1962), pushforwards, discrepancies and their singularity class, the
cyclic-quotient type of every contracted chain, the divisor class group of
the target, and rank-one positivity tests against a witness curve.
"""

from __future__ import annotations

import enum
from collections import Counter
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
    value = Fraction(bs[-1])
    for b in reversed(bs[:-1]):
        if value == 0:
            raise GeometryError(f"chain {bs} is degenerate (zero continuant)")
        value = b - 1 / value
    n, q = value.numerator, value.denominator
    if n <= 0:
        raise GeometryError(f"chain {bs} does not contract to a quotient point")
    q %= n  # n = 1 gives (1, 0)
    return (n, min(q, pow(q, -1, n)))


def singular_point_census(
    reports: Iterable[SingularPointReport],
) -> tuple[tuple[int, int, int], ...]:
    """(n, q, count) for each type 1/n(1, q) among ``reports``, sorted."""
    counts = Counter(report.hj_type for report in reports)
    return tuple(sorted((n, q, c) for (n, q), c in counts.items()))


class Contraction:
    """A validated contraction, immutable once built.  Construction tests
    and inverts the Gram matrix of each connected block of the contracted
    curves on its own (the Gram matrix is block diagonal along them); a
    pullback then pairs the divisor with every contracted curve once and
    multiplies by each block's inverse.
    """

    def __init__(self, model: SurfaceModel, curve_names: Iterable[str]):
        names = list(curve_names)
        if len(set(names)) != len(names):
            raise GeometryError("contracted curve names must be distinct")
        if unknown := [n for n in names if n not in model.prime_divisors]:
            raise GeometryError(f"unknown curve {unknown[0]!r}")
        self._classes = [model.sparse_class(n) for n in names]
        support: dict[int, list[int]] = {}  # coordinate -> the curves nonzero there
        for i, (base, exceptional) in enumerate(self._classes):
            for j in [*(j for j, x in enumerate(base) if x), *exceptional]:
                support.setdefault(j, []).append(i)
        # curves meet only where the form pairs their coordinates (SurfaceModel.pairing)
        links = [(j, j) for j in support if j >= model.base_rank]
        links += [(j, k) for j, row in enumerate(model.base_gram) for k, g in enumerate(row) if g]
        pairs = {(min(a, b), max(a, b)) for j, k in links
                 for a in support.get(j, ()) for b in support.get(k, ()) if a != b}
        # sparse Gram rows: the diagonal, then the nonzero entries off it
        self._rows = [{i: model.prime_divisors[n].square} for i, n in enumerate(names)]
        for i, j in sorted(pairs):
            if meets := model.pairing(self._classes[i], self._classes[j]):
                self._rows[i][j] = self._rows[j][i] = meets

        self._blocks: list[tuple[list[int], list[list[Fraction]]]] = []
        seen: set[int] = set()
        for start in range(len(names)):
            if start in seen:
                continue
            block = [start]
            for cur in block:  # grows while it is walked
                block += [j for j in self._rows[cur] if j not in block]
            seen.update(block)
            block.sort()
            gram = [[self._rows[i].get(j, 0) for j in block] for i in block]
            if not is_negative_definite(gram):
                raise NotContractibleError(
                    "not contractible (numerical criterion): the Gram matrix of "
                    f"the block {[names[i] for i in block]} is not negative definite"
                )
            self._blocks.append((block, invert(gram)))
        self.source = model
        self.contracted = tuple(names)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix of the contracted curves, built on demand."""
        k = len(self.contracted)
        return tuple(tuple(row.get(j, 0) for j in range(k)) for row in self._rows)

    @property
    def target_rank(self) -> int:
        return self.source.rank - len(self.contracted)

    # -- transfer of divisors ----------------------------------------------

    def _pairings(self, d: DivisorLike) -> list[int | Fraction]:
        """D.G for every contracted G, resolving D once."""
        total = self.source.sparse_class(d)
        return [self.source.pairing(total, cls) for cls in self._classes]

    def _corrections(self, d: DivisorLike) -> dict[str, Fraction]:
        """Coefficients a_j with (D + sum a_j G_j).G_k = 0 for all k."""
        pairings = self._pairings(d)
        coeffs: list[Fraction] = [Fraction(0)] * len(self.contracted)
        for block, inverse in self._blocks:
            for i, row in zip(block, inverse):
                coeffs[i] = -sum(g * pairings[j] for g, j in zip(row, block))
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
        named = {**d_on_target.named, **self._corrections(d_on_target)}
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
        discreps = {n: -a for n, a in self._corrections(k_target).items()}
        worst = min(discreps.values(), default=1)  # nothing contracted: smooth
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
        are omitted.  Blocks with a branch vertex, a cycle, a pairwise
        intersection > 1, or a (-1)-curve inside a genuinely singular chain
        are rejected as unsupported configurations.
        """
        names, rows = self.contracted, self._rows
        for i, row in enumerate(rows):
            for j, meets in row.items():
                if i < j and meets != 1:
                    raise GeometryError(
                        f"unsupported configuration: {names[i]}.{names[j]} = {meets} "
                        "(only reduced chains are classified)"
                    )
        reports = []
        for block, _ in self._blocks:
            degrees = [len(rows[i]) - 1 for i in block]  # a row holds its diagonal
            if sum(degrees) != 2 * len(block) - 2 or max(degrees) > 2:
                raise GeometryError(
                    f"unsupported configuration: component {sorted(names[i] for i in block)} "
                    "is not a chain"
                )
            ordered = [min(i for i in block if len(rows[i]) <= 2)]
            while len(ordered) < len(block):
                ordered.append(next(j for j in rows[ordered[-1]] if j not in ordered[-2:]))
            bs = [-rows[i][i] for i in ordered]
            n_val, q_val = hirzebruch_jung_type(bs)
            if n_val == 1:
                continue  # contracts to a smooth point
            chain = tuple(names[i] for i in ordered)
            if any(b < 2 for b in bs):
                raise GeometryError(
                    f"unsupported configuration: chain {list(chain)} mixes a "
                    "(-1)-curve into a singular contraction"
                )
            label = ChainLabel.A_N_CHAIN if all(b == 2 for b in bs) else ChainLabel.WEIGHTED_CYCLIC
            reports.append(SingularPointReport(chain, tuple(bs), (n_val, q_val), label))
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
        degrees = {n: Fraction(x) for n, x in zip(self.contracted, self._pairings(d))}
        return all(v >= 0 for v in degrees.values()), degrees

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
            # pullback class of a general fibre of the first ruling (line on plane)
            witness = (1,) + (0,) * (self.source.rank - 1)
        if isinstance(witness, str) and witness in self.contracted:
            raise GeometryError(f"witness curve {witness!r} is contracted")
        return self.source.intersect(self.pullback(d_on_target), witness)

    def is_ample_rank1(
        self, d_on_target: QDivisor, witness: DivisorLike | None = None
    ) -> bool:
        return self.degree_against(d_on_target, witness) > 0

    def numerically_proportional(
        self, d1: QDivisor, d2: QDivisor, witness: DivisorLike | None = None
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
