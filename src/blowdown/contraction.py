"""Contraction of a negative-definite curve configuration.

Given a `SurfaceModel` and tracked curves whose Gram matrix is negative
definite, this module computes the numerical pullback of divisors from the
contracted surface (the unique correction supported on the contracted curves
that is orthogonal to all of them, solved per connected block: Mumford 1961,
Artin 1962), pushforwards, discrepancies and their singularity class, the
cyclic-quotient type of every contracted chain, the divisor class group of
the target, and rank-one positivity tests against a witness curve.  A
reduced chain is solved and typed by its continuants (Hirzebruch 1953), any
other block by dense exact elimination.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .errors import GeometryError, NotContractibleError
from .exactlin import (
    PivotPass,
    divisor_chain,
    invert,
    is_negative_definite,
    smith_normal_form,
    sparse_pivot_pass,
)
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


def _continuants(bs: Sequence[int]) -> list[int]:
    """P_0 = 1, P_1 = b_1, P_i = b_i*P_(i-1) - P_(i-2): the leading principal
    minors of tridiag(b_i; -1), the negated Gram matrix of a chain."""
    out = [0, 1]  # P_-1 = 0 and P_0
    for b in bs:
        out.append(b * out[-1] - out[-2])
    return out[1:]


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
    tails = _continuants(bs[::-1])  # tails[m]: continuant of the last m entries
    if 0 in tails[1:-1]:
        raise GeometryError(f"chain {bs} is degenerate (zero continuant)")
    n, q = tails[-1], tails[-2]
    if n * q <= 0:  # n/q <= 0
        raise GeometryError(f"chain {bs} does not contract to a quotient point")
    return _hj_pair(abs(n), abs(q))


def singular_point_census(
    reports: Iterable[SingularPointReport],
) -> tuple[tuple[int, int, int], ...]:
    """(n, q, count) for each type 1/n(1, q) among ``reports``, sorted."""
    counts = Counter(report.hj_type for report in reports)
    return tuple(sorted((n, q, c) for (n, q), c in counts.items()))


class Contraction:
    """A validated contraction, immutable once built.  Construction walks
    each connected block of the contracted curves on its own (the Gram
    matrix is block diagonal along them).  A reduced chain (neighbours meet
    once, nothing else meets) is ordered once and keeps its continuants,
    which test it (Sylvester) and solve a pullback in O(k) integer steps; any
    other block is tested and inverted densely, and a pullback multiplies by
    its inverse, kept as integers over one denominator.

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

        # a reduced chain keeps its order and continuants, any other block L*(-G)^-1 and L
        self._chains: list[tuple[list[int], list[int], list[int]]] = []
        self._others: list[tuple[list[int], list[list[int]], int]] = []
        seen: set[int] = set()
        for start in range(len(names)):
            if start in seen:
                continue
            block, entries, reduced = [start], 0, True
            seen.add(start)
            for cur in block:  # grows while it is walked
                row = rows[cur]
                new = [j for j in row if j not in seen]
                seen.update(new)
                block += new
                entries += len(row)
                # a reduced chain's row: its diagonal, then 1 for each of at most two neighbours
                reduced = reduced and (*row.values(),)[1:] in ((), (1,), (1, 1))
            block.sort()
            if reduced and entries == 3 * len(block) - 2:  # k - 1 edges: a tree, so a path
                # from an end, step to the neighbour that is not the previous curve
                prev, cur = -1, min(i for i in block if len(rows[i]) <= 2)
                order = [cur]
                for _ in range(len(block) - 1):
                    keys = (*rows[cur],)  # the diagonal, then one or two neighbours
                    prev, cur = cur, keys[2] if keys[1] == prev else keys[1]
                    order.append(cur)
                bs = [-rows[i][i] for i in order]
                lead = _continuants(bs)
                if min(lead) > 0:  # Sylvester: every leading minor of -G is positive
                    self._chains.append((order, lead, _continuants(bs[::-1])[::-1]))
                    continue
            else:
                gram = [[rows[i].get(j, 0) for j in block] for i in block]
                if is_negative_definite(gram):
                    inverse = invert(gram)
                    den = math.lcm(*(x.denominator for row in inverse for x in row))
                    self._others.append((block, [[int(-x * den) for x in row] for row in inverse], den))
                    continue
            raise NotContractibleError(
                "not contractible (numerical criterion): the Gram matrix of "
                f"the block {[names[i] for i in block]} is not negative definite"
            )
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
        solving (D + sum a_j G_j).G_k = 0 for all k, from D.G times its lcm s.
        A chain has q = s*P_k and (-G)^-1_ij = P_i*Q_(j+1)/P_k for i <= j (0-based;
        P leading and Q trailing continuants): a prefix and a suffix sum."""
        pairings = self._pairings(d)
        s = math.lcm(*(x.denominator for x in pairings))
        pairings = [int(x * s) for x in pairings]
        for order, lead, trail in self._chains:
            ds = [pairings[i] for i in order]
            # after[i] = the sum of Q_(j+1)*d_j over j > i, before[i] of P_j*d_j over j <= i
            after = [*accumulate(trail[j + 1] * ds[j] for j in range(len(ds) - 1, 0, -1))][::-1]
            before = accumulate(p * x for p, x in zip(lead, ds))
            nums = [q * b + p * a for q, b, p, a in zip(trail[1:], before, lead, after + [0])]
            yield order, nums, s * lead[-1]
        for block, inverse, den in self._others:
            yield block, [sum(g * pairings[j] for g, j in zip(row, block)) for row in inverse], s * den

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
        for block, *_ in self._others[:1]:  # a block that is not a reduced chain
            raise GeometryError(f"unsupported configuration: component "
                                f"{sorted(names[i] for i in block)} is not a chain")
        reports = []
        for order, lead, _ in self._chains:
            n_val, q_val = _hj_pair(lead[-1], lead[-2])
            if n_val == 1:
                continue  # contracts to a smooth point
            chain = tuple(names[i] for i in order)
            bs = tuple(-rows[i][i] for i in order)
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
        return ClassGroupReport(
            rank=rank - len(factors),
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
