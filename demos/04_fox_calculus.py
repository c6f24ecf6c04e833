"""Free differential calculus and how it linearizes the cocycle condition.

The derivative of a word with respect to a generator lives in the group
ring of the free group. Substituting action matrices into the derivatives
of all relators produces one integer matrix whose kernel is exactly the
space of crossed homomorphisms.
"""

from twistedhom import (
    GroupRingElement,
    cocycle_matrix,
    fox_derivative,
    fundamental_identity_check,
    goeritz_e2,
    kernel_basis,
    parse_word,
    principal_map,
)

example = goeritz_e2()
gens = example.presentation.generators
a, b, g, d = gens

# The defining rules: dg/dg = 1, dh/dg = 0, d(g^-1)/dg = -g^-1, and the
# product rule d(uv)/dg = du/dg + u dv/dg.
w = parse_word("a a", gens)
print("d(aa)/da =", fox_derivative(w, a))

w = parse_word("a d a d^-1", gens)
print("d(adad^-1)/da =", fox_derivative(w, a))
print("d(adad^-1)/dd =", fox_derivative(w, d))

# Every word satisfies the summation identity
#   sum_g (dw/dg)(g - 1) = w - 1,
# which is a strong cross-check on the implementation.
w = parse_word("g b^-1 g d a^-1 d", gens)
print("summation identity holds:", fundamental_identity_check(w))

# Group-ring elements form a ring; the involution w -> w^-1 reverses
# products and is what converts the cocycle conditions into homology
# boundary maps.
x = GroupRingElement.from_word(parse_word("a d", gens))
y = GroupRingElement.from_word(parse_word("g", gens), -2)
print("\n(x*y) involuted:", (x * y).involute())
print("y~ * x~       :", y.involute() * x.involute())

# The cocycle matrix: one block row per relator, one block column per
# generator. Its integer kernel is the lattice of crossed homomorphisms.
J = cocycle_matrix(example.presentation, example.representation)
print(f"\ncocycle matrix: {J.rows} x {J.cols}")
K = kernel_basis(J)
print("cocycle lattice rank:", K.cols)

# Principal cocycles (g -> g*u - u) are automatically cocycles: J * P = 0.
P = principal_map(example.representation).matrix
print("J * P == 0:", (J * P).is_zero())
