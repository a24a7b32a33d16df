"""Euler characteristics and the vanishing / non-vanishing pipelines.

All cohomology here is forced by exact lattice data: Riemann-Roch on a
rational surface (chi(O) = 1), section counts of split line bundles on the
quadric, and the two diagnostic pipelines:

  * `verify_h0_anticanonical_zero` checks an exact class-vector identity and
    reads off the anticanonical section count on the base quadric;
  * `verify_kvv_failure` expands the numerical pullback of an ample divisor,
    floors it, certifies the floor relatively nef (the hypothesis under which
    higher direct images vanish, so cohomology can be computed upstairs; cf.
    the birational vanishing theorem [Kol13, Thm 10.4]), and concludes
    h^1 != 0 from chi <= -1 since h^0, h^2 >= 0.

Nothing here computes sheaf cohomology directly; a report only ever asserts
what Riemann-Roch and nonnegativity force.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .contraction import Contraction
from .errors import GeometryError, LerayHypothesisError
from .surface import QUADRIC, DivisorLike, QDivisor, SurfaceModel

NEF_HYPOTHESIS_NOTE = "hypothesis of [Kol13, Thm 10.4] verified numerically"


def euler_characteristic(model: SurfaceModel, d: DivisorLike) -> Fraction:
    """Riemann-Roch: chi(D) = chi(O) + (D.D - D.K)/2, for integral classes."""
    cls = model.sparse_class(d)
    if any(x.denominator != 1 for x in cls.values()):
        raise GeometryError(f"Euler characteristic of a non-integral class {model.total_class(d)}")
    return model.chi_structure_sheaf + Fraction(model.pairing(cls, cls) - model.k_degree(cls), 2)


def h0_on_quadric(a: int, b: int) -> int:
    """Global sections of the split bundle of bidegree (a, b) on the quadric."""
    if a >= 0 and b >= 0:
        return (a + 1) * (b + 1)
    return 0


class AnticanonicalSectionsReport(NamedTuple):
    """Result of the anticanonical-section check on a blown-up quadric."""

    identity_holds: bool
    difference_class: tuple[int, ...] | None
    base_bidegree: tuple[int, int]
    h0: int

    @property
    def passed(self) -> bool:
        return self.identity_holds and self.h0 == 0


def verify_h0_anticanonical_zero(
    contraction: Contraction,
    fibers: list[str],
    curve: str,
    towers: list[list[str]],
) -> AnticanonicalSectionsReport:
    """Check, exactly, that -K_S - sum(F_i) - C equals the pullback of its
    base part plus the weighted exceptional towers (weights 1..len(tower)),
    then count sections of the base part on the quadric.

    An identity failure is reported (with the differing class), not raised:
    it signals a scenario-encoding bug, which is data for the caller.  Every
    class summed is integral, so the sums stay ints.
    """
    model = contraction.source
    if model.base != QUADRIC:
        raise GeometryError("anticanonical-section check requires a quadric base")
    # lhs - rhs, summed over sparse classes into -K, the one dense class read
    difference = {i: -x for i, x in enumerate(model.canonical_class)}
    for name in fibers + [curve]:
        for i, x in model.sparse_class(name).items():
            difference[i] -= x
    bidegree = (difference[0], difference[1])
    difference[0] = difference[1] = 0  # less the pullback of the base part
    for tower in towers:
        for weight, name in enumerate(tower, start=1):
            for i, x in model.sparse_class(name).items():
                difference[i] -= weight * x

    identity_holds = not any(difference.values())
    return AnticanonicalSectionsReport(
        identity_holds=identity_holds,
        difference_class=None if identity_holds else model.total_class(difference),
        base_bidegree=bidegree,
        h0=h0_on_quadric(*bidegree),
    )


class KvvFailureReport(NamedTuple):
    """Everything the vanishing-failure pipeline establishes for a divisor A
    on the rank-one target: the expansion of -psi*A, its floor, the relative
    nef degrees, the Riemann-Roch inputs, and the h^1 != 0 verdict with its
    two corollary flags."""

    pullback_expansion: QDivisor
    floor: QDivisor
    relatively_nef: bool
    nef_degrees: dict[str, int | Fraction]
    k_dot_floor: Fraction
    floor_squared: Fraction
    euler_char: Fraction
    h1_nonzero: bool
    not_globally_f_split: bool
    no_w2_liftable_log_resolution: bool
    nef_hypothesis_note: str = NEF_HYPOTHESIS_NOTE


def verify_kvv_failure(contraction: Contraction, a: QDivisor) -> KvvFailureReport:
    """Run the full pipeline for an ample divisor A on the rank-one target.

    Raises LerayHypothesisError when the floor fails to be relatively nef:
    in that case cohomology cannot be transported upstairs and the argument
    does not apply.
    """
    if contraction.target_rank != 1:
        raise GeometryError(
            f"pipeline requires a rank-one target, got rank {contraction.target_rank}"
        )
    model = contraction.source
    expansion = contraction.pullback(-a)
    floor = expansion.floor()
    nef, degrees = contraction.is_relatively_nef(floor)
    if not nef:
        bad = ", ".join(f"{n}: {d}" for n, d in degrees.items() if d < 0)
        raise LerayHypothesisError(
            f"Leray degeneration hypothesis fails: floor is not relatively nef "
            f"(negative degrees {bad})"
        )
    cls = model.sparse_class(floor)
    k_dot, squared = model.k_degree(cls), model.pairing(cls, cls)  # ints: the floor is integral
    chi = model.chi_structure_sheaf + Fraction(squared - k_dot, 2)  # Riemann-Roch
    h1_nonzero = chi <= -1
    return KvvFailureReport(
        pullback_expansion=expansion,
        floor=floor,
        relatively_nef=nef,
        nef_degrees=degrees,
        k_dot_floor=Fraction(k_dot),
        floor_squared=Fraction(squared),
        euler_char=chi,
        h1_nonzero=h1_nonzero,
        not_globally_f_split=h1_nonzero,
        no_w2_liftable_log_resolution=h1_nonzero,
    )


def kollar_bound(
    dim: int, p: int, l_dot_d: int | Fraction, k_dot_d: int | Fraction
) -> Fraction:
    """Degree threshold 2*dim*(L.D) / ((p-1)*(L.D) - K.D) for the minimal
    rational curve produced by bend-and-break through a general point."""
    l_dot_d = Fraction(l_dot_d)
    k_dot_d = Fraction(k_dot_d)
    denominator = (p - 1) * l_dot_d - k_dot_d
    if denominator <= 0:
        raise GeometryError(
            f"hypothesis violated: ((p-1)L - K).D = {denominator} must be positive"
        )
    return 2 * dim * l_dot_d / denominator


class VanishingVerdict(enum.Enum):
    CONTRADICTION = "contradiction"
    NO_CONTRADICTION = "no_contradiction"


def vanishing_case_analysis(
    p: int,
    l_degree_lower_bound: int | Fraction,
    threshold: int | Fraction | None = None,
) -> VanishingVerdict:
    """Contradiction engine: a strict lower bound L.C > bound against a strict
    upper bound L.C < threshold is contradictory iff bound >= threshold.

    When no threshold is supplied, the limiting bound 4/(p-1) is used.
    """
    if threshold is None:
        if p < 2:
            raise GeometryError("default threshold 4/(p-1) needs p >= 2")
        threshold = Fraction(4, p - 1)
    if Fraction(l_degree_lower_bound) >= Fraction(threshold):
        return VanishingVerdict.CONTRADICTION
    return VanishingVerdict.NO_CONTRADICTION
