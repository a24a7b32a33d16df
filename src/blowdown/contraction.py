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
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import GeometryError, NotContractibleError, _shown
from .exactlin import IntMatrix, PivotPass, SparseRow, divisor_chain, smith_normal_form, sparse_pivot_pass
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


#: The most work `_eliminate` may do on one block: the sum over its steps of
#: (the pivot's later neighbours)^2 * (the pivot's bit length).  A block of k
#: curves that all meet (`pairwise_block(k, 3)` in tests/test_contraction.py)
#: counts 3.1e8 in 1.5 s at k = 150, 1.0e9 in 5.5 s at k = 200 (2-vCPU host).
ELIMINATION_BUDGET = 4 * 10**8


def _eliminate(rows: Sequence[SparseRow], order: list[int],
               names: Sequence[str]) -> tuple[list[int], list[SparseRow]] | None:
    """Fraction-free (Bareiss) symmetric elimination of -G on one block's
    sparse rows, in ``order``: the pivots P_0 = 1, ..., P_k (the leading
    minors) and each pivot's row on the later curves, or None unless every
    P_t > 0 (Sylvester).  Step t writes only entries between two neighbours
    of its pivot, so one last written at step s is read as a*P_t/P_s.
    GeometryError once the work passes `ELIMINATION_BUDGET`."""
    if len(order) == 1:  # a curve that meets no other
        return ([1, d], [{}]) if (d := -rows[order[0]][order[0]]) > 0 else None
    a = {v: {j: (-x, 0) for j, x in rows[v].items()} for v in order}  # entry: (value, step)
    pivots, upper, work = [1], [], 0
    for t, v in enumerate(order):
        p = pivots[-1]
        row = {j: x * p // pivots[s] for j, (x, s) in a[v].items()}
        if (d := row.pop(v, 0)) <= 0:
            return None
        if (work := work + len(row) ** 2 * d.bit_length()) > ELIMINATION_BUDGET:
            raise GeometryError(f"the block of {len(order)} curves with {names[min(order)]!r} passes "
                                f"the elimination work budget {ELIMINATION_BUDGET:,} at step {t}")
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
    goes from one end, its pivots its continuants.  A divisor's transfer
    (pullback, discrepancies, the witness correction) is one forward pass and
    one back-substitution per block it meets, found by the nonzero D.G that
    `SurfaceModel.pairings_with` gives; every other block's correction is 0.

    The class group is the source lattice modulo the contracted classes and
    any extra classes (the cone's polarization): the `PivotPass.split` of one
    certified `sparse_pivot_pass` over the contracted classes writes the
    extras in its basis, a second pass takes the sparse rows it leaves, the
    self-validating `smith_normal_form` gets only what that pass leaves, and
    `divisor_chain` merges all the factors, as described in `blowdown.exactlin`.

    Caches are filled lazily, so an empty contraction builds none: the
    name-to-position map, and the pairing index and block map of a transfer,
    on first use; that pass, on the first `class_group` call (which reads ``source.rank``
    afresh, so a later blow-up adds one free rank); and for each hashable
    rank-one witness W its correction W* = W + sum c_j G_j, orthogonal to
    every contracted G_j, which gives pullback(D).W = D.W* for D supported
    off the contracted curves."""

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
            if (eliminated := _eliminate(rows, block, names)) is None:
                raise NotContractibleError(
                    "not contractible (numerical criterion): the Gram matrix of "
                    f"the block {[names[i] for i in sorted(block)]} is not negative definite"
                )
            self._blocks.append((block, *eliminated))
        self.source = model
        self.contracted = tuple(names)
        self._witnesses: dict[object, tuple[SparseClass, int]] = {}
        self._pass: PivotPass | None = None

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix of the contracted curves, built on demand."""
        k = len(self.contracted)
        return tuple(tuple(row.get(j, 0) for j in range(k)) for row in self._rows)

    @property
    def target_rank(self) -> int:
        return self.source.rank - len(self.contracted)

    # -- transfer of divisors ----------------------------------------------

    @cached_property
    def _position(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.contracted)}

    @cached_property
    def _pairings_with(self) -> Callable[[DivisorLike], dict[int, int | Fraction]]:
        """D -> the nonzero D.G_i by position, through `SurfaceModel.pairings_with`."""
        return self.source.pairings_with(self._classes)

    @cached_property
    def _block_of(self) -> dict[int, int]:
        return {j: b for b, (order, _, _) in enumerate(self._blocks) for j in order}

    def _solve(self, d: DivisorLike) -> Iterable[tuple[list[int], list[int], int]]:
        """Per block that D meets, its positions j, integers n_j and q > 0 with
        a_j = n_j/q solving (D + sum a_j G_j).G_k = 0 for all k, i.e. -G a = D.G:
        the block's elimination run forward on m*D.G (m its lcm, each entry read
        as there), then back-substitution on P_k*m*a, integral; q = m*P_k.
        Elsewhere a = 0, as -G a = 0 with G nonsingular."""
        rhs = self._pairings_with(d)
        m = math.lcm(*(x.denominator for x in rhs.values()))
        rhs = {j: int(x * m) for j, x in rhs.items()}
        for order, pivots, upper in [self._blocks[b] for b in sorted({self._block_of[j] for j in rhs})]:
            b = {v: (rhs.get(v, 0), 0) for v in order}
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
        if touching := [n for n in d_on_target.named if n in self._position]:  # no zeros kept
            raise GeometryError(f"representative has nonzero coefficient on contracted {touching}")

    def pushforward(self, d: QDivisor) -> QDivisor:
        """Drop coefficients on contracted curves, keep everything else."""
        named = {n: c for n, c in d.named.items() if n not in self._position}
        return QDivisor(named, d.residual)

    # -- discrepancies -------------------------------------------------------

    def discrepancies(self) -> tuple[dict[str, Fraction], SingClass]:
        """a(G) for each contracted curve, and the classification from the
        minimum: terminal a > 0, canonical a >= 0, klt a > -1, lc a >= -1."""
        corrections = self._corrections(self.pushforward(self.source.canonical_divisor()))
        zero = Fraction(0)  # an unmet block's correction
        discreps = {n: -corrections.get(n, zero) for n in self.contracted}
        worst = min(discreps.values(), default=1)  # nothing contracted: smooth
        return discreps, (SingClass.TERMINAL if worst > 0 else SingClass.CANONICAL if worst >= 0
                          else SingClass.KLT if worst > -1 else SingClass.LC if worst >= -1
                          else SingClass.NOT_LC)

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
        extra integral classes of length ``source.rank``), from the kept pass
        and the same chain on what it leaves (see the class docstring)."""
        rank = self.source.rank
        extra = []
        for cls in extra_classes:
            if len(cls) != rank:
                raise GeometryError(f"extra class of length {len(cls)} on a rank-{rank} lattice")
            for j, x in enumerate(cls):  # x % 1: nonzero, or nan for nan and inf
                if not isinstance(x, (int, float, Fraction)) or x % 1:
                    raise GeometryError(f"extra class entry {j}, {_shown(x)}, is not integral")
            extra.append({j: int(x) for j, x in enumerate(cls) if x})
        if self._pass is None:
            self._pass = sparse_pivot_pass(self._classes, rank)
        factors, rows, ncols = self._pass.split(extra)
        more, rows, ncols = sparse_pivot_pass(rows, ncols).split()
        rest = IntMatrix(len(rows), ncols, tuple(row.get(j, 0) for row in rows for j in range(ncols)))
        factors = divisor_chain(factors + more + smith_normal_form(rest).invariant_factors())
        return ClassGroupReport(rank - len(factors), tuple(x for x in factors if x > 1))

    # -- positivity ---------------------------------------------------------------

    def is_relatively_nef(self, d: DivisorLike) -> tuple[bool, dict[str, int | Fraction]]:
        """D.G >= 0 for every contracted G, with all degrees reported."""
        pairings = self._pairings_with(d)
        degrees = {n: pairings.get(j, 0) for j, n in enumerate(self.contracted)}
        return all(v >= 0 for v in pairings.values()), degrees

    def degree_against(self, d_on_target: QDivisor, witness: DivisorLike | None = None) -> Fraction:
        """Degree of a divisor on the rank-one target against a witness curve
        (projection formula: pullback(D).W, computed as D.W* with the cached
        corrected witness W*; the default W is the pullback class of a
        general fibre of the first ruling, the line on the plane)."""
        if self.target_rank != 1:
            raise GeometryError(f"target Picard rank is {self.target_rank}, not 1; "
                                "rank-one degree undefined")
        if isinstance(witness, str) and witness in self._position:
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
