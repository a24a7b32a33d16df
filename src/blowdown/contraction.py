"""Contraction of a negative-definite curve configuration.

Given a `SurfaceModel` and tracked curves whose Gram matrix is negative
definite, this module computes the numerical pullback of divisors from the
contracted surface (the unique correction supported on the contracted curves
that is orthogonal to all of them, solved per connected block: Mumford 1961,
Artin 1962), pushforwards, discrepancies and their singularity class, the
cyclic-quotient type of every contracted chain, the divisor class group of
the target, and rank-one positivity tests against a witness curve.  Every
block is tested and solved by one sparse fraction-free elimination of -G,
leaves first, which fills in nothing on a tree (Parter 1961); on a chain its
pivots are the continuants that give the type (Hirzebruch 1953).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import GeometryError, NotContractibleError
from .exactlin import PivotPass, SparseRow, divisor_chain, smith_normal_form, sparse_pivot_pass
from .exactlin import invert, is_negative_definite  # noqa: F401 (unused; benchmarks/spans.py wraps them)
from .surface import DivisorLike, QDivisor, SparseClass, SurfaceModel


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


class SingularPointReport(NamedTuple):
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


class ClassGroupReport(NamedTuple):
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple[int, ...]


def _hj_pair(n: int, q: int) -> tuple[int, int]:
    """1/n(1, q) with the smaller of the two orientations' weights."""
    q %= n  # n = 1 gives (1, 0)
    return (n, min(q, pow(q, -1, n)))


def hirzebruch_jung_type(bs: Sequence[int]) -> tuple[int, int]:
    """(n, q) with n/q = b1 - 1/(b2 - 1/(...)), canonicalized as documented
    on SingularPointReport.  n = 1 means the chain contracts to a smooth
    point (reported as (1, 0)).  n and q are the continuants of b1..bk and
    b2..bk; a zero continuant of a shorter tail makes the fraction degenerate.
    A self-intersection that is not an integer (2.5, 5/2, nan) raises GeometryError."""
    bs = list(bs)
    if any(b % 1 for b in bs):  # nonzero, or nan for nan and inf
        raise GeometryError(f"chain {bs} has a self-intersection that is not an integer")
    bs = [int(b) for b in bs]
    if not bs:
        raise GeometryError("empty chain")
    tails = [0, 1]  # tails[m + 1]: the continuant of the last m entries, P_m = b*P_(m-1) - P_(m-2)
    for b in reversed(bs):
        tails.append(b * tails[-1] - tails[-2])
    if 0 in tails[2:-1]:
        raise GeometryError(f"chain {bs} is degenerate (zero continuant)")
    n, q = tails[-1], tails[-2]
    if n * q <= 0:  # n/q <= 0
        raise GeometryError(f"chain {bs} does not contract to a quotient point")
    return _hj_pair(abs(n), abs(q))


def singular_point_census(reports: Iterable[SingularPointReport]) -> tuple[tuple[int, int, int], ...]:
    """(n, q, count) for each type 1/n(1, q) among ``reports``, sorted."""
    counts = Counter(report.hj_type for report in reports)
    return tuple(sorted((n, q, c) for (n, q), c in counts.items()))


def _walk(rows: Sequence[SparseRow], root: int) -> list[int]:
    """The block of ``root`` in breadth-first order."""
    block, seen = [root], {root}
    for cur in block:  # grows while it is walked
        new = [j for j in rows[cur] if j not in seen]
        seen.update(new)
        block += new
    return block


def _eliminate(rows: Sequence[SparseRow], order: list[int]) -> tuple[list[int], list[SparseRow]] | None:
    """Fraction-free (Bareiss) symmetric elimination of -G on one block's
    sparse rows, in ``order``: the pivots P_0 = 1, ..., P_k (the leading
    minors) and each pivot's row on the later curves, or None unless every
    P_t > 0 (Sylvester).  Step t writes only entries between two neighbours
    of its pivot, so one last written at step s is read as a*P_t/P_s."""
    if len(order) == 1:  # a curve that meets no other
        return ([1, d], [{}]) if (d := -rows[order[0]][order[0]]) > 0 else None
    a = {v: {j: (-x, 0) for j, x in rows[v].items()} for v in order}  # entry: (value, step)
    pivots, upper = [1], []
    for t, v in enumerate(order):
        p = pivots[-1]
        row = {j: x * p // pivots[s] for j, (x, s) in a[v].items()}
        if (d := row.pop(v, 0)) <= 0:
            return None
        pivots.append(d)
        upper.append(row)
        for i, x in row.items():
            ai = a[i]
            del ai[v]
            for j, y in row.items():
                if i <= j:
                    z, s = ai.get(j, (0, 0))
                    ai[j] = a[j][i] = ((d * (z * p // pivots[s]) - x * y) // p, t + 1)
    return pivots, upper


class Contraction:
    """A validated contraction, immutable once built.  Construction walks
    each connected block of the contracted curves (the Gram matrix is block
    diagonal along them) and eliminates it once by `_eliminate`, in the
    reverse of a breadth-first walk from a curve of least degree: leaves
    first, so a tree fills in nothing, a cycle only along itself, and a chain
    goes from one end, its pivots its continuants.  A pullback is one forward
    pass and one back-substitution per block, linear in its filled entries.

    The class group is the source lattice modulo the contracted classes, read
    from their sparse rows M with a certified chain of steps:
    `sparse_pivot_pass` gives U*M = A with U unimodular (checked as U*M = A
    and U*U^-1 = I over the sparse rows) and A a triangular block of pivots
    d_t, each dividing its row, above non-pivot rows that are zero on the
    pivot columns; the self-validating `smith_normal_form` takes the small
    remainder (0x1 across the explorer family); `divisor_chain` merges the
    d_t with the remainder's factors by gcd/lcm exchanges, each checked by
    its 2x2 Bezout pair.  Extra classes (the cone's polarization) are reduced
    by the cached pass's pivot rows divided by their pivots (`PivotPass.split`),
    and only that reduction is checked again.

    Two caches are filled lazily, on first use: that pivot pass, and for each
    hashable rank-one witness W its correction W* = W + sum c_j G_j,
    orthogonal to every contracted G_j, which gives
    pullback(D).W = D.W* for D supported off the contracted curves."""

    def __init__(self, model: SurfaceModel, curve_names: Iterable[str]):
        names = list(curve_names)
        if len(set(names)) != len(names):
            raise GeometryError("contracted curve names must be distinct")
        if unknown := [n for n in names if n not in model.prime_divisors]:
            raise GeometryError(f"unknown curve {unknown[0]!r}")
        # a copy: a later blow-up of the model updates the registered classes in place
        self._classes = [dict(model.sparse_class(n)) for n in names]
        rows = self._rows = model.gram_rows(names)  # the diagonal, then the nonzero entries off it

        # per block: its positions in elimination order, its pivots and pivot rows
        self._blocks: list[tuple[list[int], list[int], list[SparseRow]]] = []
        seen: set[int] = set()
        for start in range(len(names)):
            if start in seen:
                continue
            block = _walk(rows, start)
            seen.update(block)
            if len(rows[start]) > 2:  # not a leaf: walk from the first curve of least degree
                block = _walk(rows, min(block, key=lambda i: (len(rows[i]), i)))
            block.reverse()
            if (eliminated := _eliminate(rows, block)) is None:
                raise NotContractibleError(
                    "not contractible (numerical criterion): the Gram matrix of "
                    f"the block {[names[i] for i in sorted(block)]} is not negative definite"
                )
            self._blocks.append((block, *eliminated))
        self.source = model
        self.contracted = tuple(names)
        self._pass: PivotPass | None = None
        self._witnesses: dict[object, tuple[SparseClass, int]] = {}

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

    def _solve(self, d: DivisorLike) -> Iterable[tuple[list[int], list[int], int]]:
        """Per block, its positions j, integers n_j and q > 0 with a_j = n_j/q
        solving (D + sum a_j G_j).G_k = 0 for all k, i.e. -G a = D.G: the
        block's elimination run forward on m*D.G (m its lcm, each entry read
        as there), then back-substitution on P_k*m*a, integral; q = m*P_k."""
        pairings = self._pairings(d)
        m = math.lcm(*(x.denominator for x in pairings))
        pairings = [int(x * m) for x in pairings]
        for order, pivots, upper in self._blocks:
            b = {v: (pairings[v], 0) for v in order}
            for t, v in enumerate(order):  # then b[v] is what its pivot row reads
                x, s = b[v]
                p = pivots[t]
                b[v] = x = x * p // pivots[s]
                for j, y in upper[t].items():
                    z, s = b[j]
                    b[j] = ((pivots[t + 1] * (z * p // pivots[s]) - y * x) // p, t + 1)
            det = pivots[-1]
            for t in range(len(order) - 1, -1, -1):  # then b[v] is P_k*m*a_v
                x = det * b[order[t]]
                for j, y in upper[t].items():
                    x -= y * b[j]
                b[order[t]] = x // pivots[t + 1]
            yield order, [b[v] for v in order], m * det

    def _corrections(self, d: DivisorLike) -> dict[str, Fraction]:
        """The coefficients a_j of `_solve` by curve name."""
        return {self.contracted[j]: Fraction(n, q)
                for block, ns, q in self._solve(d) for j, n in zip(block, ns)}

    def pullback(self, d_on_target: QDivisor) -> QDivisor:
        """Numerical pullback: the representative plus the unique correction
        on contracted curves that is orthogonal to every contracted curve.

        The representative must be supported off the contracted curves."""
        self._check_off_contracted(d_on_target)
        named = {**d_on_target.named, **self._corrections(d_on_target)}
        return QDivisor(named, d_on_target.residual)

    def _check_off_contracted(self, d_on_target: QDivisor) -> None:
        if touching := [n for n in self.contracted if n in d_on_target.named]:  # no zeros kept
            raise GeometryError(f"representative has nonzero coefficient on contracted {touching}")

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
                    raise GeometryError(f"unsupported configuration: {names[i]}.{names[j]} = "
                                        f"{meets} (only reduced chains are classified)")
        for order, _, upper in self._blocks:  # a chain: of the later curves, each meets the next alone
            if any([*row] != order[t + 1:t + 2] for t, row in enumerate(upper)):
                raise GeometryError(f"unsupported configuration: component "
                                    f"{sorted(names[i] for i in order)} is not a chain")
        reports = []
        for order, pivots, _ in self._blocks:
            n_val, q_val = _hj_pair(pivots[-1], pivots[-2])  # q: the chain less its first curve
            if n_val == 1:
                continue  # contracts to a smooth point
            chain = tuple(names[i] for i in reversed(order))
            bs = tuple(-rows[i][i] for i in reversed(order))
            if any(b < 2 for b in bs):
                raise GeometryError(f"unsupported configuration: chain {list(chain)} mixes a "
                                    "(-1)-curve into a singular contraction")
            label = ChainLabel.A_N_CHAIN if all(b == 2 for b in bs) else ChainLabel.WEIGHTED_CYCLIC
            reports.append(SingularPointReport(chain, bs, (n_val, q_val), label))
        return reports

    # -- class group ------------------------------------------------------------

    def class_group(self, extra_classes: Sequence[Sequence[int]] = ()) -> ClassGroupReport:
        """Quotient of the source lattice by the contracted classes (plus any
        extra integral classes of length ``source.rank``), via the certified
        pivot pass, the Smith normal form of its remainder and the divisor
        chain of both (see the class docstring)."""
        rank = self.source.rank
        extra = []
        for cls in extra_classes:
            if len(cls) != rank:
                raise GeometryError(f"extra class of length {len(cls)} on a rank-{rank} lattice")
            if any(x != int(x) for x in cls):
                raise GeometryError(f"extra class {list(cls)} is not integral")
            extra.append({j: int(x) for j, x in enumerate(cls) if x})
        if self._pass is None:
            self._pass = sparse_pivot_pass(self._classes, rank)
        factors, rest = self._pass.split(extra)
        factors = divisor_chain(factors + smith_normal_form(rest).invariant_factors())
        return ClassGroupReport(rank - len(factors), tuple(x for x in factors if x > 1))

    # -- positivity ---------------------------------------------------------------

    def is_relatively_nef(self, d: DivisorLike) -> tuple[bool, dict[str, Fraction]]:
        """D.G >= 0 for every contracted G, with all degrees reported."""
        degrees = {n: Fraction(x) for n, x in zip(self.contracted, self._pairings(d))}
        return all(v >= 0 for v in degrees.values()), degrees

    def degree_against(self, d_on_target: QDivisor, witness: DivisorLike | None = None) -> Fraction:
        """Degree of a divisor on the rank-one target against a witness curve
        (projection formula: pullback(D).W, computed as D.W* with the cached
        corrected witness W*; the default W is the pullback class of a
        general fibre of the first ruling, the line on the plane)."""
        if self.target_rank != 1:
            raise GeometryError(f"target Picard rank is {self.target_rank}, not 1; "
                                "rank-one degree undefined")
        if isinstance(witness, str) and witness in self.contracted:
            raise GeometryError(f"witness curve {witness!r} is contracted")
        self._check_off_contracted(d_on_target)
        corrected, scale = self._corrected_witness(witness)
        return Fraction(self.source.pairing(d_on_target, corrected), scale)

    def _corrected_witness(self, witness: DivisorLike | None) -> tuple[SparseClass, int]:
        """(L*W*, L): the witness plus its correction on the contracted
        curves, as an integral sparse class and its least denominator L > 0,
        summed in integers and reduced by one gcd.  Cached for a hashable
        witness (None, a name, a tuple)."""
        try:
            return self._witnesses[witness]
        except KeyError:
            cache = True
        except TypeError:  # a list or a QDivisor
            cache = False
        w = self.source.sparse_class({0: 1} if witness is None else witness)
        terms = [(n, q, self._classes[i]) for block, ns, q in self._solve(w)
                 for i, n in zip(block, ns) if n]
        big = math.lcm(*(x.denominator for x in w.values()), *(q for _, q, _ in terms))
        cls = {j: int(x * big) for j, x in w.items()}  # big*W* = big*W + sum (big/q)*n_j*G_j
        for n, q, g in terms:
            for j, x in g.items():
                cls[j] = cls.get(j, 0) + big // q * n * x
        g = math.gcd(big, *cls.values())  # lowest terms: lcm_j(B/gcd(c_j, B)) = B/gcd_j(c_j, B)
        result = {j: x // g for j, x in cls.items() if x}, big // g
        if cache:
            self._witnesses[witness] = result
        return result

    def is_ample_rank1(self, d_on_target: QDivisor, witness: DivisorLike | None = None) -> bool:
        return self.degree_against(d_on_target, witness) > 0

    def numerically_proportional(
        self, d1: QDivisor, d2: QDivisor, witness: DivisorLike | None = None
    ) -> Fraction | None:
        """r with d1 = r*d2 numerically on the rank-one target; None when d2
        is numerically trivial."""
        deg2 = self.degree_against(d2, witness)
        return None if deg2 == 0 else self.degree_against(d1, witness) / deg2


def contract(model: SurfaceModel, curve_names: Iterable[str]) -> Contraction:
    """Contract the named curves; raises NotContractibleError unless their
    Gram matrix is negative definite."""
    return Contraction(model, curve_names)
