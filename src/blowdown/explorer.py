"""Parameterized blow-up constructions over the quadric.

For a characteristic parameter p >= 2 and a number of fibres n >= 3, build
the surface obtained from the quadric by taking the curve of class
(1, p) (a p-fold cover of the first ruling, tangent to every vertical fibre
to order p), choosing n fibres, and separating the curve from each fibre by
p successive blow-ups at the moving intersection point.  Each fibre ends at
self-intersection -p behind a chain of p-1 curves of self-intersection -2
and a final (-1)-curve; the curve itself drops to self-intersection p(2-n).

Contracting the curve, the fibres and the (-2)-chains leaves a rank-one
surface; the sign of the anticanonical degree against a general fibre of the
first ruling decides whether it is a del Pezzo surface, K-trivial, or has
ample canonical class.  Only (p, n) = (3, 3) is the bundled reference
scenario; every other parameter pair is an extrapolation of the same blow-up
pattern and is labelled as such.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .contraction import Contraction, SingularPointReport, contract, singular_point_census
from .errors import GeometryError, _shown
from .surface import SurfaceModel, new_quadric

REFERENCE_PROVENANCE = "reference construction"
EXTRAPOLATED_PROVENANCE = "extrapolated construction"

#: The largest lattice rank 2 + n_points*p that `frobenius_construction`
#: builds.  The explorer's time and memory grow about linearly in the rank,
#: fastest at p = 2: `blowdown explore --p 2 --points 100000` (rank 200002)
#: takes about 10.5 s and peaks at about 680 MB on a 2-vCPU host with Python
#: 3.11.7 (rank 10002: 0.4 s and 51 MB).
MAX_LATTICE_RANK = 200_002


def tower_names(p: int, point_index: int) -> list[str]:
    """Names of the p exceptional curves over one point, blow-up order.

    The last three are G<i>, H<i>, E<i> so that the p = 3 tower matches the
    bundled scenario's names exactly; deeper towers prefix G<i>x<k>.
    """
    names = []
    for k in range(1, p + 1):
        if k == p:
            names.append(f"E{point_index}")
        elif k == p - 1:
            names.append(f"H{point_index}")
        elif k == p - 2:
            names.append(f"G{point_index}")
        else:
            names.append(f"G{point_index}x{k}")
    return names


class Construction(NamedTuple):
    """A built surface together with the names the contraction needs."""

    model: SurfaceModel
    curve: str
    fibers: list[str]
    towers: list[list[str]]  # per point, in blow-up order; last entry survives

    @property
    def contracted_names(self) -> list[str]:
        names = [self.curve] + list(self.fibers)
        for tower in self.towers:
            names.extend(tower[:-1])
        return names


def _check_parameters(p: int, n_points: int) -> None:
    """GeometryError for an invalid (p, n_points) or one whose lattice rank
    2 + n_points*p passes `MAX_LATTICE_RANK`."""
    if type(p) is not int or p < 2:  # a bool is no parameter
        raise GeometryError(f"p must be an integer >= 2, got {_shown(p)}")
    if type(n_points) is not int or n_points < 1:
        raise GeometryError(f"n_points must be an integer >= 1, got {_shown(n_points)}")
    rank = 2 + n_points * p
    if rank > MAX_LATTICE_RANK:
        raise GeometryError(
            f"(p, n_points) = ({_shown(p, str)}, {_shown(n_points, str)}) needs lattice rank"
            f" 2 + n_points*p = {_shown(rank, str)}, past the limit {MAX_LATTICE_RANK}"
        )


def _curve_square(p: int, n_points: int) -> int:
    """C^2 = p*(2 - n_points) for the curve C of class (1, p), C^2 = 2p,
    which passes through all n_points*p blown-up points once."""
    return p * (2 - n_points)


def frobenius_construction(p: int, n_points: int) -> Construction:
    """Build the blown-up quadric for parameters (p, n_points); GeometryError
    before building anything if its rank passes `MAX_LATTICE_RANK`."""
    _check_parameters(p, n_points)
    model = new_quadric()
    model.declare_curve("C", (1, p))
    fibers = []
    for i in range(1, n_points + 1):
        fiber = f"F{i}"
        model.declare_curve(fiber, (1, 0))
        fibers.append(fiber)
    towers = []
    for i, fiber in enumerate(fibers, start=1):
        tower = tower_names(p, i)
        previous = None
        for name in tower:
            incident = [("C", 1), (fiber, 1)]
            if previous is not None:
                incident.append((previous, 1))
            model.blow_up(name, incident)
            previous = name
        towers.append(tower)
    return Construction(model, "C", fibers, towers)


class ExplorationReport(NamedTuple):
    p: int
    n_points: int
    target_rank: int
    anticanonical_degree: Fraction
    verdict: str  # "del_pezzo" | "K_trivial" | "canonically_ample"
    singular_points: tuple[SingularPointReport, ...]
    census: tuple[tuple[int, int, int], ...]  # (n, q, count), sorted
    provenance: str
    construction: Construction
    contraction: Contraction


def explore_frobenius(p: int, n_points: int) -> ExplorationReport:
    """Build, contract, and assess the (p, n_points) surface; GeometryError
    before building anything unless C^2 < 0, that is n_points >= 3."""
    _check_parameters(p, n_points)
    if (c_squared := _curve_square(p, n_points)) >= 0:
        raise GeometryError(
            f"C not contractible (C^2 = {c_squared} >= 0); need n_points >= 3"
        )
    construction = frobenius_construction(p, n_points)
    model = construction.model
    con = contract(model, construction.contracted_names)
    k_target = con.pushforward(model.canonical_divisor())
    degree = -con.degree_against(k_target)
    if degree > 0:
        verdict = "del_pezzo"
    elif degree == 0:
        verdict = "K_trivial"
    else:
        verdict = "canonically_ample"
    reports = con.classify_singularities()
    census = singular_point_census(reports)
    provenance = (
        REFERENCE_PROVENANCE if (p, n_points) == (3, 3) else EXTRAPOLATED_PROVENANCE
    )
    return ExplorationReport(
        p=p,
        n_points=n_points,
        target_rank=con.target_rank,
        anticanonical_degree=degree,
        verdict=verdict,
        singular_points=tuple(reports),
        census=census,
        provenance=provenance,
        construction=construction,
        contraction=con,
    )
