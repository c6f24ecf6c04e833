"""Tour of the built-in genus-2 Goeritz group computation.

The group acts on the rank-4 first homology of the genus-2 splitting
surface of the 3-sphere. This script walks through every computation the
engine offers on that data: diagnostics, coinvariants, first cohomology
over several coefficient rings, first homology, the splitting-functional
fast path, the universal-coefficient cross-check and the exhaustive mod-2
oracle.
"""

from twistedhom import (
    CoefficientRing,
    brute_force_h1_mod2,
    change_ring,
    check_bilinear_form_preserved,
    check_relators_trivial,
    coinvariants,
    goeritz_e2,
    h1_cohomology,
    h1_homology,
    kerf_reduction,
    uct_check,
    validate,
    word_to_text,
)

example = goeritz_e2()
p, rep = example.presentation, example.representation

print("generators:", " ".join(g.name for g in p.generators))
print("relators:")
for relator in p.relators:
    print("   ", word_to_text(relator))

# Sanity first: the presentation is clean, every relator acts as the
# identity matrix, and the action preserves the symplectic intersection
# form (as any surface homeomorphism action must).
assert validate(p) == []
assert check_relators_trivial(rep, p) == []
assert check_bilinear_form_preserved(rep, example.form) == []
print("\ndiagnostics: all clean")

# Coinvariants: the module with all g*m - m collapsed. Here everything
# collapses.
print("\nH_0 =", coinvariants(rep))

# First cohomology over a few rings. Over Z the answer is trivial; all the
# content is 2-torsion and shows up over Z/2 and Z/4.
print()
for modulus in (0, 2, 3, 4, 5, 8):
    ring = CoefficientRing(modulus)
    result = h1_cohomology(p, change_ring(rep, ring))
    print(f"H^1 over {str(ring):4} = {result.h1}")

# A generating cocycle for each direct factor comes along for free. Each
# witness is a stacked vector (d(a), d(b), d(g), d(d)).
result = h1_cohomology(p, change_ring(rep, CoefficientRing(2)))
print("\nmod-2 witness cocycles:")
for witness in result.witnesses:
    print("   ", witness)

# First homology over Z: the headline answer.
print("\nH_1 =", h1_homology(p, rep))

# The fast path through the splitting functional gives the same groups.
for modulus in (0, 2, 4):
    ring = CoefficientRing(modulus)
    fast = kerf_reduction(p, change_ring(rep, ring), example.kerf)
    print(f"ker-f path over {str(ring):4} = {fast.h1}")

# Universal coefficients tie cohomology over every ring to H_0 and H_1
# over Z of the dual module (isomorphic to H_1(Sigma_2) itself, whose
# intersection form the action preserves); the engine checks the
# comparison structurally.
print("\nuniversal-coefficient comparisons:")
for comparison in uct_check(p, rep, [2, 3, 4, 8]):
    print(
        f"    {str(comparison.ring):4}: computed {comparison.computed}, "
        f"expected {comparison.expected} -> {'ok' if comparison.match else 'MISMATCH'}"
    )

# Finally, the honest oracle: enumerate all 2^16 candidate cocycle vectors
# mod 2 and count. 64 cocycles, 16 principal ones, 4 classes.
counts = brute_force_h1_mod2(p, rep)
print(f"\nbrute-force mod 2: z1={counts.z1_count} b1={counts.b1_count} h1={counts.h1_count}")
