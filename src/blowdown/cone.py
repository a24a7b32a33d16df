"""Affine cone over a rank-one polarized surface.

Given a contraction with rank-one target T and a polarization A, the cone
model records the proportionality constant r with K_T = r*A (numerically),
the discrepancy -(1+r) of the section of the partial resolution, the class
group of the cone (the quotient of Cl(T) by the polarization), and a
Cohen-Macaulay verdict that is only ever set by an explicit cohomological
certificate: a nonzero H^1(T, O(mA)) summand forces nonzero second local
cohomology at the vertex.

The klt status of the cone is *not* re-derived here: the only general
decision row for a non-Cartier polarization assumes characteristic zero.
`cone_klt_decision` implements the decision table verbatim and carries that
caveat; ConeModel.klt_note records it for report emission.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .contraction import ClassGroupReport, Contraction
from .errors import GeometryError
from .surface import QDivisor

KLT_NOTE = (
    "klt status of the cone is supplied externally (toroidal argument); the "
    "non-Cartier decision row assumes characteristic zero"
)


class ConeModel(NamedTuple):
    """Polarized-cone data over a rank-one target."""

    base_contraction: Contraction
    polarization: QDivisor
    r: Fraction
    section_discrepancy: Fraction
    class_group: ClassGroupReport | None
    q_gorenstein: bool
    crepant_partial_resolution: bool
    cm: bool | None = None
    cm_certificate_m: int | None = None

    klt_note = KLT_NOTE  # not annotated, so not a field


def build_cone(contraction: Contraction, polarization: QDivisor) -> ConeModel:
    """Assemble the cone model for a non-trivial polarization.

    The class group is the quotient of the target's class group by the
    polarization class; it is only defined (non-None) when the polarization
    has an integral total class, i.e. is an honest Weil divisor.
    """
    if contraction.target_rank != 1:
        raise GeometryError(
            f"cone construction requires a rank-one target, got rank "
            f"{contraction.target_rank}"
        )
    k_target = contraction.pushforward(contraction.source.canonical_divisor())
    r = contraction.numerically_proportional(k_target, polarization)
    if r is None:
        raise GeometryError("polarization is numerically trivial")
    total = contraction.source.total_class(polarization)
    class_group = None
    if all(x.denominator == 1 for x in total):
        class_group = contraction.class_group(
            extra_classes=[tuple(int(x) for x in total)]
        )
    discrepancy = -(1 + r)
    return ConeModel(
        base_contraction=contraction,
        polarization=polarization,
        r=r,
        section_discrepancy=discrepancy,
        class_group=class_group,
        q_gorenstein=True,
        crepant_partial_resolution=discrepancy == 0,
    )


def local_cohomology_certificate(
    cone: ConeModel, m: int, h1_nonzero: bool
) -> ConeModel:
    """Record a Cohen-Macaulay verdict from a cohomological certificate.

    Local cohomology at the vertex decomposes over the polarization's powers,
    so a certified nonzero H^1(T, O(m*A)) summand gives nonzero H^2 at the
    vertex: not Cohen-Macaulay.  Without a certificate nothing is concluded
    and the verdict stays undetermined.
    """
    if not h1_nonzero:
        return cone
    return cone._replace(cm=False, cm_certificate_m=m)


class PairClass(enum.Enum):
    TERMINAL = "terminal"
    KLT = "klt"
    DLT = "dlt"


_IMPLIES = {
    PairClass.TERMINAL: {PairClass.TERMINAL, PairClass.KLT, PairClass.DLT},
    PairClass.KLT: {PairClass.KLT, PairClass.DLT},
    PairClass.DLT: {PairClass.DLT},
}

CHAR_ZERO_CAVEAT = (
    "licensed by the Q-factorial row, which assumes characteristic zero"
)

UNDETERMINED = "undetermined by the cone singularity decision table"


class KltDecision(NamedTuple):
    conclusion: str  # "terminal" | "klt" | "dlt" | UNDETERMINED
    rows_applied: tuple[int, ...]
    caveats: tuple[str, ...]


def cone_klt_decision(
    pair_class: PairClass | str,
    l_cartier: bool,
    base_q_factorial: bool,
    r: int | Fraction,
) -> KltDecision:
    """Decision table for the singularities of a polarized cone.

    Row 1 (Cartier polarization): cone terminal iff pair terminal and r < -1;
    cone klt iff pair klt and r < 0.  Row 2 (Cartier): cone dlt if pair dlt
    and r < 0.  Row 3 (Q-factorial base, characteristic zero): cone klt iff
    pair klt and r < 0.  Returns the strongest conclusion licensed.
    """
    if isinstance(pair_class, str):
        pair_class = PairClass(pair_class)
    r = Fraction(r)
    implied = _IMPLIES[pair_class]

    if l_cartier and PairClass.TERMINAL in implied and r < -1:
        return KltDecision("terminal", (1,), ())
    if PairClass.KLT in implied and r < 0:
        rows = []
        if l_cartier:
            rows.append(1)
        if base_q_factorial:
            rows.append(3)
        if rows:
            caveats = (CHAR_ZERO_CAVEAT,) if rows == [3] else ()
            return KltDecision("klt", tuple(rows), caveats)
    if l_cartier and r < 0:  # PairClass.DLT is implied by every input class
        return KltDecision("dlt", (2,), ())
    return KltDecision(UNDETERMINED, (), ())
