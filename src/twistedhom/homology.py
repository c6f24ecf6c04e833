"""Twisted (co)homology in degrees 0 and 1 for a presented group action.

Cohomology is crossed homomorphisms modulo principal ones; homology comes
from the presentation 2-complex, the transposed cochain complex of the dual
action g -> (M_g^-1)^T. This module is the chain-complex bookkeeping: which
matrices are J, P, d1 and d2, and how they are checked. The groups are read
by two routines of exactlinalg. _cokernel reads a group off the pivots of
an SNF over Z that builds no transform: H_0 = coker d1 = sum Z/gcd(d_i, n)
on every ring, with d1 = [M_g^-1 - 1 | ...] over the generators, and,
since Z^m / ker d1 = im d1 is free, coker d2 = H_1 + im d1, so H_1 over Z
is _cokernel of the pivots of d2 in m - rank d1 rows: the torsion of
coker d2 plus Z^(m - rank d1 - rank d2). _subquotient reads every other
group, one integer lattice quotient ker(outgoing) /
(im(incoming) + n*Z^m), off one SNF U*J*V = D over Z for every ring; over
Z/n, witnesses included, and wherever the group alone is read, that SNF
also builds V^-1, and the coordinates are read off its rows that survive,
with entries below n. Nothing is eliminated over Z/n. No
relator is evaluated here: by Fox's fundamental formula, sum_g (dr/dg)(g -
1) = r - 1, block r of J*P is M(r) - 1, so checked_cochains checks them
through J*P when it builds the cochain pair (J, P) that every stage reads,
H_1 that of the dual. J and P are built as nonzero rows, and so are
d1 = P^T, d2 = J^T and J*P, so the check, the transposes and the SNFs
follow the nonzeros and no dense J or d2 is formed.
The universal coefficient theorem pairs H^1(G; M (x) A) with
Ext(H_0(G; M^*), A) + Hom(H_1(G; M^*), A), M^* = Hom(M, Z) being the dual
action, whose chain complex is d1 = P^T, d2 = J^T of the action's own pair:
uct_check reads both sides off one (J, P) and walks no dual, the expected
side straight off the pivots of J and P.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .exactlinalg import (
    AbelianGroupStructure,
    IntMatrix,
    _cokernel,
    _nonzero_rows,
    _subquotient,
    hstack,
    snf,
    solve_in_lattice,  # noqa: F401 -- re-exported; bench/test_bench.py looks it up here
    vstack,
)
from .fox import cocycle_matrix
from .presentation import Presentation
from .representation import (
    CoefficientRing,
    Representation,
    _nontrivial_relator,
    change_ring,
    dual,
    evaluate_group_ring,  # noqa: F401 -- re-exported; bench/test_bench.py looks it up here
)


# The mod-2 oracle lists about 2^(bits/2) syndromes for each half of the
# bits, each with one bit per row of J (relators * rank). At 36 bits a random
# 40x36 J took 0.23 s and 46 MB of peak RSS, a 512x36 one 0.27 s and 79 MB
# (Python 3.11, 2 vCPUs), so the second bound caps the growth in rows.
ORACLE_MAX_BITS = 36
ORACLE_MAX_TABLE_BITS = 1 << 27


@dataclass(frozen=True)
class PrincipalMap:
    """Stacked blocks action(g) - 1; the columns are the principal cocycles."""

    matrix: IntMatrix


@dataclass(frozen=True)
class CohomologyResult:
    """First cohomology with its cocycle lattice and generating cocycles.

    z1_basis has one column per basis vector of the cocycle lattice that was
    quotiented; every witness satisfies cocycle_matrix * witness = 0 over the
    ring and projects to a generator of one direct factor of h1. It is a
    combination of columns of z1_basis, reduced mod n.
    """

    ring: CoefficientRing
    z1_basis: IntMatrix
    h1: AbelianGroupStructure
    witnesses: tuple[tuple[int, ...], ...]


class OracleRefusal(ValueError):
    """brute_force_h1_mod2 declines an input past ORACLE_MAX_BITS or
    ORACLE_MAX_TABLE_BITS, before anything is computed: the input is not
    checked, and nothing is wrong with it."""


class OracleCounts(NamedTuple):
    z1_count: int
    b1_count: int
    h1_count: int


def checked_cochains(p: Presentation, rep: Representation) -> tuple[IntMatrix, IntMatrix]:
    """The cocycle matrix J and principal map P of rep, checked: block r of
    J*P is M(r) - 1 by Fox's formula, so a relator whose block is nonzero
    mod n is a ValueError. h1_cohomology and kerf_reduction take the pair as
    cochains, so that one J and one P serve both, as in the coh1 stage.
    """
    J, P = cocycle_matrix(p, rep), principal_map(rep).matrix
    rows, size = _nonzero_rows((J * P).mod(rep.ring.modulus)), rep.rank
    details = [
        _nontrivial_relator(i, r).message for i, r in enumerate(p.relators) if any(rows[i * size : (i + 1) * size])
    ]
    if details:
        raise ValueError("cocycle condition is ill-posed: " + "; ".join(details))
    return J, P


def principal_map(rep: Representation) -> PrincipalMap:
    """The map sending u to the cocycle g -> action(g)u - u, as one matrix.

    Block g of column u is (action(g) - 1)u; its image is the lattice of
    principal cocycles.
    """
    identity = IntMatrix.identity(rep.rank)
    blocks = [(m - identity).mod(rep.ring.modulus) for m in rep.matrices]
    rows = [pairs for block in blocks for pairs in _nonzero_rows(block)]
    return PrincipalMap(IntMatrix._from_nonzero(len(rows), rep.rank, rows))


def coinvariants(rep: Representation) -> AbelianGroupStructure:
    """Degree-zero homology: the module modulo all g*m - m, that is
    coker d1 over the ring.

    Generators suffice: the subgroup spanned by g*m - m over group elements
    g equals the one spanned over the generators alone, and the blocks
    g^-1*m - m of d1 = [M_g^-1 - 1 | ...], P^T of the dual action, span
    the same subgroup. One SNF of d1 over Z, with no transform, gives
    Z^rank / (im d1 + n*Z^rank) = sum Z/gcd(d_i, n).
    """
    n = rep.ring.modulus
    identity = IntMatrix.identity(rep.rank)
    blocks = [(m - identity).mod(n) for m in rep.inverse_matrices]
    d1 = hstack(*blocks) if blocks else IntMatrix.zeros(rep.rank, 0)
    return _cokernel(snf(d1, transforms="").pivots, rep.rank, n)


def h1_cohomology(
    p: Presentation, rep: Representation, *, cochains: tuple[IntMatrix, IntMatrix] | None = None
) -> CohomologyResult:
    """First cohomology: cocycles modulo principal cocycles, over the ring.

    Over Z this is the lattice quotient of the integer kernel of the cocycle
    matrix by the principal columns. Over Z/n the cocycle lattice
    {d : J*d = 0 mod n} is quotiented by the principal columns together with
    n times the standard basis, the coordinates of both read off V^-1 of
    the SNF of J, mod n; over Z the principal columns are solved in the
    kernel's columns of V. cochains, if given, must be
    checked_cochains(p, rep): J and P are then not built again, nor are the
    relators checked again.
    """
    J, P = cochains or checked_cochains(p, rep)
    n = rep.ring.modulus
    h1, K, witnesses = _subquotient(snf(J, transforms="VX" if n else "V"), P, n, generators=True)
    return CohomologyResult(rep.ring, K, h1, witnesses)


def h1_homology(p: Presentation, rep: Representation) -> AbelianGroupStructure:
    """First homology of the presented group, ker d1 / im d2. With the module
    made a right one through w -> w^-1, the chain complex is the transposed
    cochain complex of the dual action g -> (M_g^-1)^T, so d1 = P^T and
    d2 = J^T of checked_cochains(p, dual(rep)).

    Over Z two SNFs with no transform give the answer: Z^m / ker d1 = im d1
    is free, so coker d2 = H_1 + im d1, and H_1 is the cokernel of the
    pivots of d2 in m - rank d1 rows, rank d1 being the pivot count of d1.
    Over Z/n the image of d1 mod n need not be
    free, so H_1 stays ker d1 / im d2 through the kernel of d1 mod n: the
    group alone, read by _subquotient off V^-1 of d1 on the rows that
    survive, with entries below n and no kernel basis built.
    """
    J, P = checked_cochains(p, dual(rep))
    d1, d2 = P.transpose(), J.transpose()
    if rep.ring.modulus:
        return _subquotient(snf(d1, transforms="VX"), d2, rep.ring.modulus)[0]
    rank_d1 = len(snf(d1, transforms="").pivots)
    return _cokernel(snf(d2, transforms="").pivots, d2.rows - rank_d1, 0)


def kerf_reduction(
    p: Presentation, rep: Representation, f: IntMatrix, *, cochains: tuple[IntMatrix, IntMatrix] | None = None
) -> CohomologyResult:
    """First cohomology through a splitting functional f.

    Requires f composed with the principal map to be invertible over the
    ring; the cocycle lattice then splits off the principal part and the
    cohomology is the group {d in Z^1 : f*d = 0}. Must agree with
    h1_cohomology whenever the precondition holds. cochains is as for
    h1_cohomology; the SNF is still its own, of J stacked on f, and the
    witnesses are read as in h1_cohomology.
    """
    J, P = cochains or checked_cochains(p, rep)
    m = len(p.generators) * rep.rank
    if f.rows != rep.rank or f.cols != m:
        raise ValueError(f"f must be {rep.rank}x{m}, got {f.rows}x{f.cols}")
    n = rep.ring.modulus
    det = (f * P).mod(n).det()
    if not rep.ring.is_unit(det):
        raise ValueError(f"f*P is not invertible over {rep.ring}: determinant {det}")
    outgoing = vstack(J, f.mod(n))
    factored = snf(outgoing, transforms="VX" if n else "V")
    h1, K, witnesses = _subquotient(factored, IntMatrix.zeros(m, 0), n, generators=True)
    return CohomologyResult(rep.ring, K, h1, witnesses)


@dataclass(frozen=True)
class UctComparison:
    """One universal-coefficient comparison: computed H^1 against Ext + Hom."""

    ring: CoefficientRing
    computed: AbelianGroupStructure
    expected: AbelianGroupStructure
    match: bool


def uct_check(p: Presentation, rep: Representation, moduli) -> list[UctComparison]:
    """Cross-check H^1(G; M (x) A) against Ext(H_0(G; M^*), A) +
    Hom(H_1(G; M^*), A) for A = Z and each Z/n, with M^* = Hom(M, Z) under
    the action g -> (M_g^-1)^T: C^*(G; M) = Hom(C_*(G; M^*), Z).

    The action must be over Z. Every group is read off the one checked pair
    (J, P) of rep, since the chain complex of M^* is d1 = P^T, d2 = J^T.
    H^1 on every ring is the kernel quotient ker J / (im P + n*Z^m) of
    _subquotient: evaluating words commutes with reduction mod n, so
    {v : J*v = 0 mod n} and span(P, n*I) are the lattices of the action
    rebuilt over Z/n, and J is factored once, with V^-1, for all the rings.
    Only the group is read, so every ring, Z included, reads it off V^-1
    on the rows that survive, mod n over Z/n, and no lattice is solved.
    The expected side is read off the pivots of that same SNF of J and of
    one diagonal-only SNF of P, with no group of M^* built: H_0(G; M^*) =
    coker P^T has torsion Z/d for the pivots d of P, and H_1(G; M^*) over
    Z has torsion Z/d for the pivots d of J and free rank m - r_J - r_P,
    the pivot counts taken off. Over A = Z/n (n = 0 for Z) that gives
    Ext(Z/d, A) = Z/gcd(d, n) for each pivot of P, Hom(Z, A) = A for each
    free summand and, over Z/n only, Hom(Z/d, Z/n) = Z/gcd(d, n) for each
    pivot of J, Hom(Z/d, Z) being 0. So the comparison sets the
    lattice-quotient reading of (J, P) against the pivots of the same
    pair; the Fox walk of the dual action is not repeated here, and the h1
    stage exercises it.
    """
    if rep.ring.modulus != 0:
        raise ValueError("universal-coefficient comparison needs the action over Z")
    moduli = [operator.index(n) for n in moduli]
    if any(n < 2 for n in moduli):
        raise ValueError("moduli must all be >= 2")
    J, P = checked_cochains(p, rep)
    factored, p_pivots = snf(J, transforms="VX"), snf(P, transforms="").pivots
    free = J.cols - len(factored.pivots) - len(p_pivots)
    comparisons = []
    for ring in [CoefficientRing.integers()] + [CoefficientRing.modular(n) for n in moduli]:
        n = ring.modulus
        computed = _subquotient(factored, P, n)[0]
        expected = AbelianGroupStructure.from_cyclic_orders(
            [gcd(d, n) for d in p_pivots] + [n] * free + ([gcd(d, n) for d in factored.pivots] if n else [])
        )
        comparisons.append(UctComparison(ring, computed, expected, computed == expected))
    return comparisons


def _kernel_size_mod2(matrix: IntMatrix) -> int:
    """Number of v in (Z/2)^cols with matrix*v = 0 mod 2, met in the middle
    (Horowitz & Sahni, J. ACM 21, 1974). Split v = (x, y) at column
    floor(cols/2): v is in the kernel exactly when the syndromes of its
    halves are equal, A*x = B*y mod 2, so the syndromes of every x are
    tabulated and the count adds up the table at the syndrome of every y.
    Time and memory are O(2^(cols/2)), one XOR per syndrome."""
    columns = [sum((x & 1) << i for i, x in pairs) for pairs in _nonzero_rows(matrix.transpose())]
    half = matrix.cols // 2
    table = Counter(_subset_xors(columns[:half]))
    return sum(table[s] for s in _subset_xors(columns[half:]))


def _subset_xors(columns: list[int]) -> list[int]:
    """The XOR of every subset of columns, 2^len(columns) of them: each
    column doubles the list by XOR-ing itself into every entry so far."""
    sums = [0]
    for column in columns:
        sums += [s ^ column for s in sums]
    return sums


def brute_force_h1_mod2(p: Presentation, rep: Representation) -> OracleCounts:
    """Exhaustive mod-2 oracle, independent of the lattice machinery.

    Counts every one of the 2^b candidate cocycle vectors, b = #generators
    * rank, annihilated by the cocycle matrix mod 2, met in the middle: the
    syndromes of the 2^(b/2) choices of one half of the bits are tabulated
    and looked up from those of the other half, in O(2^(b/2)) time and
    memory and with no elimination. The principal cocycles mod 2 number
    2^rank over the size of the kernel of the principal map mod 2, counted
    the same way. Raises OracleRefusal, before J is built, when b exceeds
    ORACLE_MAX_BITS (36) or when the 2^ceil(b/2) syndromes of one half, one
    bit per row of J, exceed ORACLE_MAX_TABLE_BITS. A relator that does not
    act trivially is a plain ValueError, as in checked_cochains.
    """
    rep2 = change_ring(rep, CoefficientRing.modular(2))
    bits = len(p.generators) * rep2.rank
    if bits > ORACLE_MAX_BITS:
        raise OracleRefusal(f"enumeration over {bits} bits exceeds the bound of {ORACLE_MAX_BITS}")
    half, rows = bits - bits // 2, len(p.relators) * rep2.rank
    if rows << half > ORACLE_MAX_TABLE_BITS:
        raise OracleRefusal(f"2^{half} syndromes of {rows} bits exceed the bound of {ORACLE_MAX_TABLE_BITS} table bits")
    J, P = checked_cochains(p, rep2)
    z1 = _kernel_size_mod2(J)
    b1 = (1 << rep2.rank) // _kernel_size_mod2(P)
    return OracleCounts(z1, b1, z1 // b1)
