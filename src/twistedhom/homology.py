"""Twisted (co)homology in degrees 0 and 1 for a presented group action.

Cohomology is crossed homomorphisms modulo principal ones; homology comes
from the chain complex of the presentation 2-complex with local
coefficients. Both are computed as integer lattice quotients: Z/n
coefficients never need elimination over Z/n: the lattice of cocycles mod
n is read off the SNF over Z of the cocycle matrix J alone, as the columns
of V * diag(n / gcd(d_j, n)) where U*J*V = D, and n times the identity
joins the subgroup of each quotient. Smith normal form over Z is the single
trusted kernel of the whole engine, and each quotient factors its ambient
basis once, whatever the number of subgroup generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .exactlinalg import (
    AbelianGroupStructure,
    IntMatrix,
    hstack,
    kernel_basis,
    quotient_generators,
    snf,
    solve_in_lattice,  # noqa: F401 -- re-exported; bench/test_bench.py looks it up here
    vstack,
)
from .fox import cocycle_matrix
from .presentation import Presentation
from .representation import (
    CoefficientRing,
    Representation,
    change_ring,
    check_relators_trivial,
    dual,
    evaluate_group_ring,  # noqa: F401 -- re-exported; bench/test_bench.py looks it up here
)


@dataclass(frozen=True)
class PrincipalMap:
    """Stacked blocks action(g) - 1; the columns are the principal cocycles."""

    matrix: IntMatrix


@dataclass(frozen=True)
class CohomologyResult:
    """First cohomology with its cocycle lattice and generating cocycles.

    z1_basis has one column per basis vector of the cocycle lattice that was
    quotiented; every witness satisfies cocycle_matrix * witness = 0 over the
    ring and projects to a generator of one direct factor of h1.
    """

    ring: CoefficientRing
    z1_basis: IntMatrix
    h1: AbelianGroupStructure
    witnesses: tuple[tuple[int, ...], ...]


class OracleCounts(NamedTuple):
    z1_count: int
    b1_count: int
    h1_count: int


def _require_trivial_relators(p: Presentation, rep: Representation):
    report = check_relators_trivial(rep, p)
    if report:
        details = "; ".join(d.message for d in report)
        raise ValueError(f"cocycle condition is ill-posed: {details}")


def _difference_blocks(rep: Representation, inverse: bool) -> list[IntMatrix]:
    identity = IntMatrix.identity(rep.rank)
    source = rep.inverse_matrices if inverse else rep.matrices
    return [(m - identity).mod(rep.ring.modulus) for m in source]


def principal_map(rep: Representation) -> PrincipalMap:
    """The map sending u to the cocycle g -> action(g)u - u, as one matrix.

    Block g of column u is (action(g) - 1)u; its image is the lattice of
    principal cocycles.
    """
    blocks = _difference_blocks(rep, inverse=False)
    matrix = vstack(*blocks) if blocks else IntMatrix.zeros(0, rep.rank)
    return PrincipalMap(matrix)


def coinvariants(rep: Representation) -> AbelianGroupStructure:
    """Degree-zero homology: the module modulo all g*m - m.

    Generators suffice: the subgroup spanned by g*m - m over group elements
    g equals the one spanned over the generators alone.
    """
    blocks = _difference_blocks(rep, inverse=False)
    columns = hstack(*blocks) if blocks else IntMatrix.zeros(rep.rank, 0)
    subgroup = _with_multiples(columns, rep.ring.modulus)
    return quotient_generators(IntMatrix.identity(rep.rank), subgroup, generators=False)[0]


def _with_multiples(columns: IntMatrix, modulus: int) -> IntMatrix:
    """The columns, joined over Z/n by n times the standard basis."""
    if modulus == 0:
        return columns
    return hstack(columns, IntMatrix.identity(columns.rows).scale(modulus))


def _kernel_over_ring(matrix: IntMatrix, modulus: int) -> IntMatrix:
    """Basis of {v : matrix*v = 0} over Z, or of {v in Z^cols : matrix*v = 0 mod n}.

    With U*matrix*V = D from one SNF over Z, v = V*y satisfies
    matrix*v = 0 mod n iff d_j*y_j = 0 mod n for every j, because U is
    unimodular. So the mod-n lattice has the basis V * diag(n / gcd(d_j, n)),
    where d_j = 0 past the diagonal and gcd(0, n) = n; V unimodular makes
    the columns independent.
    """
    if modulus == 0:
        return kernel_basis(matrix)
    res = snf(matrix)
    diag = res.diagonal()
    scales = [modulus // gcd(diag[j] if j < len(diag) else 0, modulus) for j in range(matrix.cols)]
    return IntMatrix(
        matrix.cols,
        matrix.cols,
        tuple(x * scale for i in range(matrix.cols) for x, scale in zip(res.V.row(i), scales)),
    )


def _cohomology(ring: CoefficientRing, K: IntMatrix, subgroup: IntMatrix) -> CohomologyResult:
    """span(K) modulo the subgroup, with witnesses reduced into the ring."""
    h1, witnesses = quotient_generators(K, subgroup)
    if ring.modulus:
        witnesses = tuple(tuple(x % ring.modulus for x in vec) for vec in witnesses)
    return CohomologyResult(ring, K, h1, witnesses)


def h1_cohomology(p: Presentation, rep: Representation) -> CohomologyResult:
    """First cohomology: cocycles modulo principal cocycles, over the ring.

    Over Z this is the lattice quotient of the integer kernel of the cocycle
    matrix by the principal columns. Over Z/n the cocycle lattice
    {d : J*d = 0 mod n} is quotiented by the principal columns together with
    n times the standard basis.
    """
    _require_trivial_relators(p, rep)
    J = cocycle_matrix(p, rep)
    P = principal_map(rep).matrix
    n = rep.ring.modulus
    return _cohomology(rep.ring, _kernel_over_ring(J, n), _with_multiples(P, n))


def chain_boundaries(p: Presentation, rep: Representation) -> tuple[IntMatrix, IntMatrix]:
    """Boundary maps M^#relators -> M^#generators -> M of the presentation complex.

    The left module is turned into a right module through w -> w^-1, so the
    generator block of the first boundary is action(g)^-1 - 1 and the
    (g, r) block of the second is the substituted derivative dr/dg with the
    involution applied first. This is the convention pinned down by the two
    checks: the boundaries compose to zero, and the cokernel of the first
    boundary is the coinvariants.

    The dual action g -> (M_g^-1)^T sends a word w to M(w^-1)^T, so the
    (g, r) block of the second boundary is the transposed (r, g) block of
    the cocycle matrix of the dual action, which is linear in relator length.
    """
    if rep.alphabet != p.generators:
        raise ValueError("alphabet mismatch")
    n = rep.ring.modulus
    blocks = _difference_blocks(rep, inverse=True)
    d1 = hstack(*blocks) if blocks else IntMatrix.zeros(rep.rank, 0)
    d2 = cocycle_matrix(p, dual(rep)).transpose()
    return d1.mod(n), d2.mod(n)


def h1_homology(p: Presentation, rep: Representation) -> AbelianGroupStructure:
    """First homology of the presented group with coefficients in the module."""
    _require_trivial_relators(p, rep)
    d1, d2 = chain_boundaries(p, rep)
    n = rep.ring.modulus
    if not (d1 * d2).mod(n).is_zero():
        raise RuntimeError("internal error: boundary maps do not compose to zero")
    return quotient_generators(_kernel_over_ring(d1, n), _with_multiples(d2, n), generators=False)[0]


def kerf_reduction(p: Presentation, rep: Representation, f: IntMatrix) -> CohomologyResult:
    """First cohomology through a splitting functional f.

    Requires f composed with the principal map to be invertible over the
    ring; the cocycle lattice then splits off the principal part and the
    cohomology is the group {d in Z^1 : f*d = 0}. Must agree with
    h1_cohomology whenever the precondition holds.
    """
    _require_trivial_relators(p, rep)
    m = len(p.generators) * rep.rank
    if f.rows != rep.rank or f.cols != m:
        raise ValueError(f"f must be {rep.rank}x{m}, got {f.rows}x{f.cols}")
    n = rep.ring.modulus
    P = principal_map(rep).matrix
    det = (f * P).mod(n).det()
    if not rep.ring.is_unit(det):
        raise ValueError(f"f*P is not invertible over {rep.ring}: determinant {det}")
    J = cocycle_matrix(p, rep)
    K = _kernel_over_ring(vstack(J, f.mod(n)), n)
    if n == 0:
        witnesses = tuple(K.column(j) for j in range(K.cols))
        return CohomologyResult(rep.ring, K, AbelianGroupStructure.free(K.cols), witnesses)
    return _cohomology(rep.ring, K, IntMatrix.identity(m).scale(n))


@dataclass(frozen=True)
class UctComparison:
    """One universal-coefficient comparison: computed H^1 against Ext + Hom."""

    ring: CoefficientRing
    computed: AbelianGroupStructure
    expected: AbelianGroupStructure
    match: bool


def _hom_orders(structure: AbelianGroupStructure, ring: CoefficientRing) -> list[int]:
    if ring.modulus == 0:
        return [0] * structure.free_rank
    return [ring.modulus] * structure.free_rank + [gcd(d, ring.modulus) for d in structure.torsion]


def _ext_orders(structure: AbelianGroupStructure, ring: CoefficientRing) -> list[int]:
    if ring.modulus == 0:
        return list(structure.torsion)
    return [gcd(d, ring.modulus) for d in structure.torsion]


def uct_check(
    p: Presentation,
    rep: Representation,
    moduli,
    h0: AbelianGroupStructure | None = None,
    h1: AbelianGroupStructure | None = None,
) -> list[UctComparison]:
    """Cross-check H^1 against Ext(H_0, A) + Hom(H_1, A) for A = Z and each Z/n.

    The action must be over Z. h0 and h1 default to the computed
    coinvariants and first homology; passing explicit values is a hook for
    corruption tests.
    """
    if rep.ring.modulus != 0:
        raise ValueError("universal-coefficient comparison needs the action over Z")
    moduli = [int(n) for n in moduli]
    if any(n < 2 for n in moduli):
        raise ValueError("moduli must all be >= 2")
    if h0 is None:
        h0 = coinvariants(rep)
    if h1 is None:
        h1 = h1_homology(p, rep)
    comparisons = []
    for ring in [CoefficientRing.integers()] + [CoefficientRing.modular(n) for n in moduli]:
        computed = h1_cohomology(p, change_ring(rep, ring)).h1
        expected = AbelianGroupStructure.from_cyclic_orders(
            _ext_orders(h0, ring) + _hom_orders(h1, ring)
        )
        comparisons.append(UctComparison(ring, computed, expected, computed == expected))
    return comparisons


def _count_kernel_vectors(row_masks, start: int, stop: int) -> int:
    # Chunkable enumeration: counts over disjoint ranges add up, so the scan
    # can be partitioned across workers.
    count = 0
    for d in range(start, stop):
        for mask in row_masks:
            if (mask & d).bit_count() & 1:
                break
        else:
            count += 1
    return count


def brute_force_h1_mod2(p: Presentation, rep: Representation, max_bits: int = 20) -> OracleCounts:
    """Exhaustive mod-2 oracle, independent of the lattice machinery.

    Enumerates every one of the 2^(#generators * rank) candidate cocycle
    vectors, counts those annihilated by the cocycle matrix mod 2, counts
    the distinct principal cocycles mod 2, and divides. Refuses when the
    bit count exceeds max_bits.
    """
    rep2 = change_ring(rep, CoefficientRing.modular(2))
    _require_trivial_relators(p, rep2)
    bits = len(p.generators) * rep2.rank
    if bits > max_bits:
        raise ValueError(f"enumeration over {bits} bits exceeds the bound of {max_bits}")
    J = cocycle_matrix(p, rep2)
    row_masks = []
    for i in range(J.rows):
        mask = 0
        for j, value in enumerate(J.row(i)):
            if value & 1:
                mask |= 1 << j
        if mask:
            row_masks.append(mask)
    z1 = _count_kernel_vectors(row_masks, 0, 1 << bits)
    P = principal_map(rep2).matrix
    images = set()
    for u in range(1 << rep2.rank):
        vector = [(u >> j) & 1 for j in range(rep2.rank)]
        image = P.apply(vector)
        images.add(sum((value & 1) << i for i, value in enumerate(image)))
    b1 = len(images)
    return OracleCounts(z1, b1, z1 // b1)
