"""Shared randomized-instance builders for the test suite.

Everything takes an explicit random.Random so failures reproduce.
"""

import importlib.util
import random
import sys
from functools import cache
from math import comb, gcd
from pathlib import Path

from twistedhom import (
    AbelianGroupStructure,
    CoefficientRing,
    Generator,
    GroupRingElement,
    IntMatrix,
    NamedExample,
    Presentation,
    Representation,
    Word,
    builtin_examples,
    change_ring,
    check_relators_trivial,
    coinvariants,
    dual,
    evaluate_group_ring,
    evaluate_word,
    fox_derivative,
    h1_homology,
    hstack,
    invert,
    multiply,
    parse_word,
    principal_map,
    snf,
    solve_in_lattice,
    unimodular_inverse,
    vstack,
)
from twistedhom.exactlinalg import SnfResult, _coordinates_off_x
from twistedhom.homology import checked_cochains


def random_word(rng: random.Random, alphabet, max_len=8) -> Word:
    length = rng.randrange(max_len + 1)
    letters = tuple(
        (rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(length)
    )
    return Word(tuple(alphabet), letters)


def random_int_matrix(rng: random.Random, rows, cols, lo=-5, hi=5) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols)))


def random_unimodular(rng: random.Random, n, steps=6) -> IntMatrix:
    """Product of elementary row operations applied to the identity."""
    rows = IntMatrix.identity(n).to_rows()
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)


def cofactor_det(matrix: IntMatrix) -> int:
    """Determinant by Laplace expansion down the rows, the minor on each
    set of remaining columns counted once: no elimination and nothing
    shared with IntMatrix.det."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = matrix.to_rows()

    @cache
    def minor(columns: tuple[int, ...]) -> int:
        # The rows from matrix.rows - len(columns) on, on these columns.
        if not columns:
            return 1
        row = rows[len(rows) - len(columns)]
        return sum(
            (-1) ** k * row[j] * minor(columns[:k] + columns[k + 1 :]) for k, j in enumerate(columns) if row[j]
        )

    return minor(tuple(range(matrix.cols)))


def adjugate(matrix: IntMatrix) -> IntMatrix:
    """Adjugate (transposed cofactor matrix): adjugate(M) * M = det(M) * I,
    each cofactor by cofactor_det."""
    if matrix.rows != matrix.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = matrix.rows
    rows = matrix.to_rows()

    def minor_det(i, j):
        minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
        return cofactor_det(IntMatrix(n - 1, n - 1, tuple(x for r in minor for x in r)))

    return IntMatrix(n, n, tuple((-1) ** (i + j) * minor_det(i, j) for j in range(n) for i in range(n)))


def reference_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Reference matrix product: a dense triple loop over row lists, with no
    code shared with the product kernel of exactlinalg."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    left = a.to_rows()
    right = b.to_rows()
    out = []
    for i in range(a.rows):
        li = left[i]
        row = [0] * b.cols
        for k in range(a.cols):
            x = li[k]
            if x:
                rk = right[k]
                for j in range(b.cols):
                    row[j] += x * rk[j]
        out.append(row)
    return IntMatrix(a.rows, b.cols, tuple(x for row in out for x in row))


def reference_evaluate_word(rep: Representation, w: Word) -> IntMatrix:
    """Reference matrix of a word: one reference_product per letter, by the
    generator's matrix or its inverse, reduced mod n after each letter."""
    if w.alphabet != rep.alphabet:
        raise ValueError("alphabet mismatch")
    result = IntMatrix.identity(rep.rank)
    for index, sign in w.letters:
        factor = rep.matrices[index] if sign > 0 else rep.inverse_matrices[index]
        result = reference_product(result, factor).mod(rep.ring.modulus)
    return result


def term_by_term_group_ring(rep: Representation, element) -> IntMatrix:
    """Reference evaluation of a group-ring element: every word from the identity."""
    total = IntMatrix.zeros(rep.rank, rep.rank)
    for word, coeff in element.terms.items():
        total = total + reference_evaluate_word(rep, word).scale(coeff)
    return total.mod(rep.ring.modulus)


def reference_fox_derivative(w: Word, gen: Generator) -> GroupRingElement:
    """Reference free derivative: every term built as Word(...) of a copied
    prefix, so each one is validated and freely reduced again."""
    if gen not in w.alphabet:
        raise ValueError(f"generator {gen.name!r} is not in the alphabet")
    g_index = w.alphabet.index(gen)
    terms = []
    prefix: list[tuple[int, int]] = []
    for index, sign in w.letters:
        if index == g_index:
            if sign > 0:
                terms.append((Word(w.alphabet, tuple(prefix)), 1))
            else:
                terms.append((Word(w.alphabet, tuple(prefix) + ((index, -1),)), -1))
        prefix.append((index, sign))
    return GroupRingElement(w.alphabet, terms)


def reference_cocycle_matrix(p: Presentation, rep: Representation) -> IntMatrix:
    """Reference cocycle matrix: one evaluate_group_ring call per generator
    on the derivative of the whole relator, with no pieces."""
    if rep.alphabet != p.generators:
        raise ValueError("alphabet mismatch")
    width = len(p.generators) * rep.rank
    block_rows = []
    for relator in p.relators:
        blocks = [
            evaluate_group_ring(rep, fox_derivative(relator, gen))
            for gen in p.generators
        ]
        block_rows.append(hstack(*blocks) if blocks else IntMatrix.zeros(rep.rank, 0))
    if not block_rows:
        return IntMatrix.zeros(0, width)
    return vstack(*block_rows)


def reference_coordinates(outgoing: SnfResult, incoming: IntMatrix, n: int) -> IntMatrix:
    """The coordinates of exactlinalg._coordinates_off_x, formed densely:
    X*incoming by reference_product, mod n; the rows j with g_j != 1 kept
    (d_j = 0 over Z), each divided by s_j = n / g_j, beside diag(g_j), the
    zero block over Z."""
    X = outgoing.X
    diagonal = outgoing.pivots + (0,) * (X.rows - len(outgoing.pivots))
    product = reference_product(X, incoming).mod(n)
    if n:
        kept = [(j, gcd(d, n), n // gcd(d, n)) for j, d in enumerate(diagonal) if gcd(d, n) != 1]
    else:
        kept = [(j, 0, 1) for j, d in enumerate(diagonal) if d == 0]
    rows = [
        [y // s for y in product.row(j)] + [g if k == i else 0 for k in range(len(kept))]
        for i, (j, g, s) in enumerate(kept)
    ]
    return IntMatrix(len(kept), incoming.cols + len(kept), tuple(x for row in rows for x in row))


def row_form_pairs(p: Presentation, rep: Representation, f: IntMatrix) -> list[tuple[str, IntMatrix, IntMatrix]]:
    """(name, matrix as the package builds it, dense reference) for J, P,
    vstack(J, f), d1 and d2 of the dual action, and the Z/n coordinates of
    the coh1 and h1 quotients. The relators must act trivially."""
    n, identity = rep.ring.modulus, IntMatrix.identity(rep.rank)
    J, P = checked_cochains(p, rep)
    dense_J = reference_cocycle_matrix(p, rep)
    blocks = [(m - identity).mod(n).entries for m in rep.matrices]
    dense_P = IntMatrix(len(blocks) * rep.rank, rep.rank, tuple(x for block in blocks for x in block))
    dual_J, dual_P = checked_cochains(p, dual(rep))
    d1, d2 = dual_P.transpose(), dual_J.transpose()
    pairs = [
        ("J", J, dense_J),
        ("P", P, dense_P),
        ("vstack(J, f)", vstack(J, f.mod(n)), vstack(dense_J, f.mod(n))),
        ("d1", d1, inverse_difference_d1(rep)),
        ("d2", d2, involuted_d2(p, rep)),
    ]
    for name, outgoing, incoming in (("coh1", J, P), ("h1", d1, d2)):
        factored = snf(outgoing, transforms="VX")
        pairs.append((f"{name} coordinates", _coordinates_off_x(factored, incoming, n),
                      reference_coordinates(factored, incoming, n)))
    return pairs


def is_freely_reduced(letters) -> bool:
    return all(a != (b[0], -b[1]) for a, b in zip(letters, letters[1:]))


def involuted_d2(p: Presentation, rep: Representation) -> IntMatrix:
    """Reference second boundary: block (g, r) evaluates involute(dr/dg) on rep."""
    if not p.relators:
        return IntMatrix.zeros(len(p.generators) * rep.rank, 0)
    column_blocks = []
    for relator in p.relators:
        pieces = [
            term_by_term_group_ring(rep, fox_derivative(relator, gen).involute())
            for gen in p.generators
        ]
        column_blocks.append(vstack(*pieces) if pieces else IntMatrix.zeros(0, rep.rank))
    return hstack(*column_blocks).mod(rep.ring.modulus)


def inverse_difference_d1(rep: Representation) -> IntMatrix:
    """Reference first boundary: the blocks action(g)^-1 - 1 side by side, mod n."""
    identity = IntMatrix.identity(rep.rank)
    blocks = [m - identity for m in rep.inverse_matrices]
    return (hstack(*blocks) if blocks else IntMatrix.zeros(rep.rank, 0)).mod(rep.ring.modulus)


def row_mask_kernel_count(matrix: IntMatrix) -> int:
    """Reference count of v in (Z/2)^cols with matrix*v = 0 mod 2.

    Tests every candidate against one bitmask per nonzero row: a candidate
    is in the kernel when it meets every row mask in an even number of bits.
    """
    row_masks = []
    for i in range(matrix.rows):
        mask = sum(1 << j for j, value in enumerate(matrix.row(i)) if value & 1)
        if mask:
            row_masks.append(mask)
    return sum(
        1
        for d in range(1 << matrix.cols)
        if not any((mask & d).bit_count() & 1 for mask in row_masks)
    )


def gray_code_kernel_count(matrix: IntMatrix) -> int:
    """Number of v in (Z/2)^cols with matrix*v = 0 mod 2, walked in Gray-code
    order: step k flips bit j, the lowest set bit of k, so each candidate
    costs one XOR of column j into the syndrome matrix*v."""
    columns = [sum((x & 1) << i for i, x in enumerate(matrix.column(j))) for j in range(matrix.cols)]
    syndrome = 0
    count = 1  # the zero vector
    for k in range(1, 1 << matrix.cols):
        syndrome ^= columns[(k & -k).bit_length() - 1]
        if not syndrome:
            count += 1
    return count


def distinct_images_mod2(matrix: IntMatrix) -> int:
    """Number of distinct matrix*u mod 2 over every u in (Z/2)^cols, one
    product per u: the principal count of the mod-2 oracle as it was before
    it counted the kernel instead."""
    images = set()
    for u in range(1 << matrix.cols):
        image = matrix.apply([(u >> j) & 1 for j in range(matrix.cols)])
        images.add(sum((value & 1) << i for i, value in enumerate(image)))
    return len(images)


def reference_snf(matrix: IntMatrix) -> SnfResult:
    """Reference Smith normal form: the SNF as it was before it could skip
    building a transform or stop its pivot search at a unit. Its
    elimination is kept verbatim; its result is pivots and shape, as
    SnfResult holds it.

    Returns U, the pivots, the shape and V with U*matrix*V = D, both
    transforms unimodular, and D diagonal with nonnegative entries forming a
    divisibility chain; it asserts that its working matrix is that D before
    it returns the pivots. Pivots are always the nonzero entry of least
    absolute value in the working block, ties broken by lowest (row,
    column), so the reduction is deterministic.
    """
    m, n = matrix.rows, matrix.cols
    d = matrix.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def swap_rows(i1, i2):
        if i1 != i2:
            d[i1], d[i2] = d[i2], d[i1]
            u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for row in d:
                row[j1], row[j2] = row[j2], row[j1]
            for row in v:
                row[j1], row[j2] = row[j2], row[j1]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def add_row(src, dst, c):
        drow, ddst = d[src], d[dst]
        for j in range(n):
            ddst[j] += c * drow[j]
        urow, udst = u[src], u[dst]
        for j in range(m):
            udst[j] += c * urow[j]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        best = None
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(d[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if d[t][t] < 0:
            negate_row(t)
        while True:
            for i in range(t + 1, m):
                q = d[i][t] // d[t][t]
                if q:
                    add_row(t, i, -q)
            rest = [(abs(d[i][t]), i) for i in range(t + 1, m) if d[i][t]]
            if rest:
                swap_rows(t, min(rest)[1])
                if d[t][t] < 0:
                    negate_row(t)
                continue
            for j in range(t + 1, n):
                q = d[t][j] // d[t][t]
                if q:
                    add_col(t, j, -q)
            rest = [(abs(d[t][j]), j) for j in range(t + 1, n) if d[t][j]]
            if rest:
                swap_cols(t, min(rest)[1])
                if d[t][t] < 0:
                    negate_row(t)
                continue
            break
        # The pivot must divide every remaining entry; if it does not, fold
        # the offending row into row t and redo this position. The pivot
        # shrinks strictly each round, so this terminates.
        bad = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if d[i][j] % d[t][t]),
            None,
        )
        if bad is None:
            t += 1
        else:
            add_row(bad, t, 1)

    # The working matrix is D: zero off the diagonal and past position t,
    # and positive at the first t positions, the pivots.
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j or i >= t), d
    assert all(d[i][i] > 0 for i in range(t)), d
    flat = lambda rows: tuple(x for r in rows for x in r)
    return SnfResult(
        U=IntMatrix(m, m, flat(u)),
        pivots=tuple(d[i][i] for i in range(t)),
        shape=(m, n),
        V=IntMatrix(n, n, flat(v)),
    )


class SnfRecorder:
    """Stands in for snf in exactlinalg and homology, the modules that call
    it, and records each call as (calling function, input, transforms)."""

    def __init__(self, monkeypatch):
        from twistedhom import exactlinalg, homology

        self.calls = []
        real = exactlinalg.snf

        def recording(matrix, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            self.calls.append((caller, matrix, kwargs.get("transforms", "UV")))
            return real(matrix, **kwargs)

        for module in (exactlinalg, homology):
            monkeypatch.setattr(module, "snf", recording)

    def asked(self, caller: str) -> set[str]:
        return {transforms for name, _, transforms in self.calls if name == caller}


def count_calls(monkeypatch, name):
    """Count the calls of the package function ``name`` through every
    twistedhom module that binds it; returns the list of calls."""
    calls = []
    modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "twistedhom"]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def bench_workloads():
    """bench/workloads.py, loaded once as the module bench_workloads."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def chain_example(genus: int):
    """The benchmark's chain of 2g Dehn twists, from bench/workloads.py."""
    return bench_workloads().chain_example(genus)


def workload_examples(name: str, seed: int):
    """The inputs of one benchmark workload at one seed."""
    return bench_workloads().build(name, seed).examples


def filtered_kernel_basis(factored: SnfResult) -> IntMatrix:
    """The integer kernel basis of factored = snf(A, transforms="V") by a
    per-column filter: the columns of V tested one at a time for a zero
    diagonal entry."""
    V = factored.V
    diagonal = factored.diagonal() + (0,) * (V.cols - len(factored.diagonal()))
    return IntMatrix.from_columns(V.rows, [V.column(j) for j, d in enumerate(diagonal) if d == 0])


def reference_homology(outgoing: SnfResult, incoming: IntMatrix, ring: CoefficientRing, generators: bool = False):
    """exactlinalg._subquotient by solving in the scaled kernel basis. K is
    built first from outgoing = snf(A, transforms="V"): V * diag(s_j) with
    s_j = n / g_j and g_j = gcd(d_j, n) over Z/n, with n*I joined to the
    subgroup, or V's columns at d_j = 0 over Z. The subgroup is solved in K
    itself, pivots of s_j included. Over Z/n the subgroup holds n*K, so each
    coordinate is read mod g_j: the rows with g_j = 1 drop out with their
    columns of K, the rest are reduced mod g_j, and the n*I block, diag(g)
    times a unimodular matrix, is replaced by diag(g). The quotient is the
    cokernel of the coordinates, read through from_cyclic_orders. Returns
    (group, K, generators) as _subquotient does."""
    n, V = ring.modulus, outgoing.V
    diagonal = outgoing.diagonal() + (0,) * (V.cols - len(outgoing.diagonal()))
    if n:
        K = V * IntMatrix.diagonal(n // gcd(d, n) for d in diagonal)
        full = hstack(incoming, IntMatrix.identity(incoming.rows).scale(n))
    else:
        K, full = filtered_kernel_basis(outgoing), incoming
    solutions = solve_in_lattice(K, full) if full.cols else []
    assert None not in solutions, "the subgroup lies outside the kernel"
    coordinates = IntMatrix.from_columns(K.cols, solutions)
    kept = range(K.cols)
    if n:
        g = [gcd(d, n) for d in diagonal]
        kept = [j for j in range(K.cols) if g[j] != 1]
        reduced = [y % g[j] for j in kept for y in coordinates.row(j)[: incoming.cols]]
        coordinates = hstack(IntMatrix(len(kept), incoming.cols, reduced), IntMatrix.diagonal(g[j] for j in kept))
    res = snf(coordinates, transforms="UV")
    orders = list(res.diagonal()) + [0] * (coordinates.rows - len(res.diagonal()))
    group = AbelianGroupStructure.from_cyclic_orders(orders)
    if not generators:
        return group, K, ()
    basis = IntMatrix.from_columns(K.rows, [K.column(j) for j in kept])
    images = (basis * unimodular_inverse(res.U)).mod(n)
    return group, K, tuple(images.column(i) for i, order in enumerate(orders) if order != 1)


def reference_coinvariants(rep: Representation) -> AbelianGroupStructure:
    """H_0 as the lattice quotient ker 0 / im d1, through a kernel basis,
    solve_in_lattice and an SNF of the coordinates."""
    d1 = principal_map(dual(rep)).matrix.transpose()
    return reference_homology(snf(IntMatrix.zeros(0, rep.rank), transforms="V"), d1, rep.ring)[0]


def reference_h1_homology(p: Presentation, rep: Representation) -> AbelianGroupStructure:
    """H_1 as the lattice quotient ker d1 / im d2 on every ring, through a
    kernel basis of d1, solve_in_lattice and an SNF of the coordinates."""
    J, P = checked_cochains(p, dual(rep))
    return reference_homology(snf(P.transpose(), transforms="V"), J.transpose(), rep.ring)[0]


def symmetric_power(matrix: IntMatrix, k: int) -> IntMatrix:
    """The action of a 2x2 matrix [[a, b], [c, d]] on Sym^k Z^2, the forms of
    degree k in x, y with basis x^(k-i)*y^i: x -> a*x + c*y, y -> b*x + d*y.
    Column i expands (a*x + c*y)^(k-i) * (b*x + d*y)^i by binomials, so
    symmetric_power(g*h, k) = symmetric_power(g, k) * symmetric_power(h, k)."""
    (a, b), (c, d) = matrix.to_rows()
    entries = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        for p in range(k - i + 1):
            for q in range(i + 1):
                entries[p + q][i] += comb(k - i, p) * a ** (k - i - p) * c**p * comb(i, q) * b ** (i - q) * d**q
    return IntMatrix.from_rows(entries)


def sl2_sym_example(k: int) -> NamedExample:
    """SL(2, Z) = <s, t | s^4, s^2 (s t)^-3> acting on Sym^k Z^2, with
    s = [[0, -1], [1, 0]] and t = [[1, 1], [0, 1]]. Sym^k Z^2 is not
    isomorphic to its dual over Z for even k >= 4, which the universal
    coefficient comparison must see."""
    gens = (Generator("s"), Generator("t"))
    s, t = IntMatrix.from_rows([[0, -1], [1, 0]]), IntMatrix.from_rows([[1, 1], [0, 1]])
    rep = Representation.build(
        CoefficientRing.integers(), gens, (symmetric_power(s, k), symmetric_power(t, k)), rank=k + 1
    )
    p = Presentation(gens, tuple(parse_word(r, gens) for r in ("s^4", "s s t^-1 s^-1 t^-1 s^-1 t^-1 s^-1")))
    assert check_relators_trivial(rep, p) == []
    return NamedExample(f"sl2-sym{k}", p, rep)


def walked_dual_uct_expected(p: Presentation, rep: Representation, ring: CoefficientRing) -> AbelianGroupStructure:
    """Reference Ext(H_0(G; M^*), A) + Hom(H_1(G; M^*), A) for A the ring,
    with H_0 and H_1 computed on dual(rep), its own Fox walk and checked
    pair, and each Ext and Hom of a cyclic summand counted here: Ext(Z, A)
    = 0 and Hom(Z, A) = A. Nothing is shared with uct_check's pivot
    formula."""
    h0, h1 = coinvariants(dual(rep)), h1_homology(p, dual(rep))
    n = ring.modulus
    ext = [_ext_cyclic(d, n) for d in h0.torsion]
    hom = [n] * h1.free_rank + [_hom_cyclic(d, n) for d in h1.torsion]
    return AbelianGroupStructure.from_cyclic_orders(ext + hom)


def _ext_cyclic(d: int, n: int) -> int:
    """Order of Ext(Z/d, A) = A / dA for A = Z/n, or Z (n = 0), counted:
    over Z/n, n over the number of multiples d*a mod n."""
    return d if n == 0 else n // len({d * a % n for a in range(n)})


def _hom_cyclic(d: int, n: int) -> int:
    """Order of Hom(Z/d, A) = {a in A : d*a = 0} for A = Z/n, or Z (n = 0),
    counted: Z has no torsion, and over Z/n the solutions of d*a = 0 mod n
    are enumerated. Both groups are cyclic, as subgroups or quotients of a
    cyclic group."""
    return 1 if n == 0 else sum(1 for a in range(n) if d * a % n == 0)


def add_generator(p: Presentation, rep: Representation, w: Word) -> tuple[Presentation, Representation]:
    """Tietze move: a new last generator x with the relator x*w^-1 and the
    action M_x = M(w). The group and the module do not change."""
    names = {g.name for g in p.generators}
    name = next(f"x{k}" for k in range(len(names) + 1) if f"x{k}" not in names)
    alphabet = p.generators + (Generator(name),)
    relators = tuple(Word(alphabet, r.letters) for r in p.relators)
    extra = Word(alphabet, ((len(p.generators), 1),) + invert(w).letters)
    matrices = rep.matrices + (evaluate_word(rep, w),)
    return Presentation(alphabet, relators + (extra,)), Representation.build(rep.ring, alphabet, matrices, rank=rep.rank)


def nielsen_move(p: Presentation, rep: Representation, i: int, j: int) -> tuple[Presentation, Representation]:
    """Nielsen move g_i -> g_i*g_j, i != j: every relator is rewritten with
    g_i = g_i'*g_j^-1, and M_i' = M_i*M_j. The group and the module do not
    change."""
    if i == j:
        raise ValueError("a Nielsen move needs two distinct generators")
    rewrite = {(i, 1): ((i, 1), (j, -1)), (i, -1): ((j, 1), (i, -1))}
    relators = tuple(
        Word(p.generators, tuple(x for letter in r.letters for x in rewrite.get(letter, (letter,))))
        for r in p.relators
    )
    matrices = list(rep.matrices)
    matrices[i] = matrices[i] * matrices[j]
    return Presentation(p.generators, relators), Representation.build(rep.ring, p.generators, matrices, rank=rep.rank)


def random_redundant_relator(rng: random.Random, p: Presentation) -> Word:
    """A word in the normal closure of the relators: products of conjugates."""
    word = Word(p.generators)
    for _ in range(rng.randint(1, 2)):
        base = rng.choice(p.relators)
        if rng.random() < 0.5:
            base = invert(base)
        conj = random_word(rng, p.generators, max_len=3)
        word = multiply(word, multiply(conj, multiply(base, invert(conj))))
    return word


def gf_rank(matrix: IntMatrix, p: int) -> int:
    """Rank over the field Z/p by plain Gaussian elimination.

    Deliberately independent of the Smith-normal-form machinery so it can
    serve as an oracle for prime moduli.
    """
    rows = [[x % p for x in matrix.row(i)] for i in range(matrix.rows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < matrix.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def perturbed_pair(rng: random.Random):
    """A random valid (presentation, representation) pair.

    Starts from a built-in example, conjugates the action by a random
    unimodular base change, optionally appends redundant relators, and
    optionally reduces the coefficients. Relators still act trivially by
    construction.
    """
    example = rng.choice(sorted(builtin_examples().values(), key=lambda e: e.name))
    p, rep = example.presentation, example.representation

    q = random_unimodular(rng, rep.rank)
    q_inv = unimodular_inverse(q)
    matrices = [q * m * q_inv for m in rep.matrices]
    rep = Representation.build(rep.ring, rep.alphabet, matrices, rank=rep.rank)

    relators = list(p.relators)
    if p.relators and rng.random() < 0.5:
        relators.append(random_redundant_relator(rng, p))
    p = Presentation(p.generators, tuple(relators))

    modulus = rng.choice((0, 0, 2, 3, 4))
    if modulus:
        rep = change_ring(rep, CoefficientRing(modulus))
    return p, rep
