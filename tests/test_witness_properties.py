"""A certificate for the witnesses of H^1 over Z/n that does not depend on
the route that found them. For each witness w of a cyclic factor of order
o, J*w = 0 mod n (and f*w = 0 on the ker-f route), o*w lies in the
principal lattice span[P | n*I] and (o/p)*w does not for any prime p | o;
and every column of z1_basis lies in span[P | n*I | witnesses]. With the
orders multiplying to the order of H^1, the witnesses then generate it as
the direct sum of their cyclic groups."""

import random
from math import gcd

import pytest

from twistedhom import (
    CoefficientRing,
    IntMatrix,
    builtin_examples,
    change_ring,
    h1_cohomology,
    hstack,
    kerf_reduction,
    snf,
    solve_in_lattice,
)
from twistedhom.homology import checked_cochains

from support import chain_example, perturbed_pair, sl2_sym_example

MODULI = (2, 3, 4, 8, 9)


def prime_divisors(o: int) -> list[int]:
    return [p for p in range(2, o + 1) if o % p == 0 and all(p % q for q in range(2, p))]


def left_inverse_mod(P: IntMatrix, n: int) -> IntMatrix | None:
    """f with f*P = I mod n, when the SNF pivots of P are rank(P) = P.cols
    units mod n: f = V * D^-1 * (the first P.cols rows of U); else None."""
    res = snf(P, transforms="UV")
    if len(res.pivots) != P.cols or any(gcd(d, n) != 1 for d in res.pivots):
        return None
    inverses = [pow(d, -1, n) for d in res.pivots]
    top = IntMatrix(P.cols, P.rows, res.U.entries[: P.cols * P.rows])
    return (res.V * IntMatrix.diagonal(inverses) * top).mod(n)


def pairs():
    examples = list(builtin_examples().values()) + [chain_example(genus) for genus in range(2, 5)]
    examples += [sl2_sym_example(k) for k in range(0, 23, 2)]
    rng = random.Random(28)
    return [(ex.presentation, ex.representation, ex.kerf) for ex in examples] + [
        (*perturbed_pair(rng), None) for _ in range(10)
    ]


def in_span(basis: IntMatrix, targets: list[tuple[int, ...]]) -> list[bool]:
    if not targets:
        return []
    return [x is not None for x in solve_in_lattice(basis, IntMatrix.from_columns(basis.rows, targets))]


def certify(result, J: IntMatrix, P: IntMatrix, n: int, f: IntMatrix | None = None):
    h1, K, witnesses = result.h1, result.z1_basis, result.witnesses
    m = J.cols
    assert h1.free_rank == 0 and len(witnesses) == len(h1.torsion)
    assert all(x % n == 0 for x in (J * K).entries)
    principal = hstack(P, IntMatrix.identity(m).scale(n))
    for w, o in zip(witnesses, h1.torsion):
        assert all(0 <= x < n for x in w)
        assert not any(x % n for x in J.apply(w))
        if f is not None:
            assert not any(x % n for x in f.apply(w))
        smaller = [tuple(o // p * x for x in w) for p in prime_divisors(o)]
        assert in_span(principal, [tuple(o * x for x in w)] + smaller) == [True] + [False] * len(smaller)
    spanned = hstack(principal, IntMatrix.from_columns(m, witnesses)) if witnesses else principal
    assert all(in_span(spanned, [K.column(j) for j in range(K.cols)]))


@pytest.mark.parametrize("n", MODULI)
def test_witnesses_generate_h1_with_their_orders(n):
    certified = 0
    for p, rep, kerf in pairs():
        if rep.ring.modulus and rep.ring.modulus % n:
            continue
        ring_rep = change_ring(rep, CoefficientRing(n))
        cochains = checked_cochains(p, ring_rep)
        J, P = cochains
        certify(h1_cohomology(p, ring_rep, cochains=cochains), J, P, n)
        certified += 1
        f = kerf.mod(n) if kerf is not None else left_inverse_mod(P, n)
        if f is not None and ring_rep.ring.is_unit((f * P).mod(n).det()):
            certify(kerf_reduction(p, ring_rep, f, cochains=cochains), J, P, n, f)
            certified += 1
    assert certified >= 25
