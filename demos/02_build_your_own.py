"""Computing twisted (co)homology for a group you define yourself.

We build the infinite dihedral group D = <a, b | a^2 = b^2 = 1> acting on
Z with both generators acting by -1, and compute everything by hand and by
engine.
"""

from twistedhom import (
    CoefficientRing,
    Generator,
    IntMatrix,
    Representation,
    coinvariants,
    from_equations,
    h1_cohomology,
    h1_homology,
    identity_word,
    parse_word,
    uct_check,
)

gens = (Generator("a"), Generator("b"))

# Relations can be written as equations; each contributes lhs * rhs^-1.
one = identity_word(gens)
p = from_equations(gens, [(parse_word("a a", gens), one), (parse_word("b b", gens), one)])
print("relators:", [str(len(r)) for r in p.relators], "letters each")

sign = IntMatrix.from_rows([[-1]])
rep = Representation.build(CoefficientRing.integers(), gens, (sign, sign))

# By hand: a cocycle is a pair (d(a), d(b)) in Z^2 with
# (1 + a)d(a) = 0 and (1 + b)d(b) = 0; both operators are 1 - 1 = 0, so
# Z^1 = Z^2. The principal cocycle of u is (au - u, bu - u) = (-2u, -2u),
# so B^1 is the diagonal 2Z and H^1 = Z^2 / <(2, 2)> = Z + Z/2.
result = h1_cohomology(p, rep)
print("H^1 =", result.h1)
assert str(result.h1) == "Z + Z/2"

# H_0 identifies m with -m, and H_1 turns out to be Z.
print("H_0 =", coinvariants(rep))
print("H_1 =", h1_homology(p, rep))

# The universal-coefficient comparison knits these together. It pairs H^1
# with H_0 and H_1 of the dual module, here the module itself, since -1 is
# its own inverse transpose: Ext(Z/2, Z) + Hom(Z, Z) = Z/2 + Z, which is
# H^1 over Z again.
for comparison in uct_check(p, rep, [2, 3]):
    print(
        f"over {comparison.ring}: H^1 = {comparison.computed}, "
        f"Ext + Hom = {comparison.expected}"
    )

# The same group modulo 2 coefficients: now nothing can cancel.
mod2 = Representation.build(CoefficientRing.modular(2), gens, (sign, sign))
print("H^1 over Z/2 =", h1_cohomology(p, mod2).h1)
