"""Exact linear algebra over the integers.

Everything here runs on unbounded Python integers: Smith normal form with
unimodular transforms, integer kernels, lattice membership and solving, and
invariant factors of lattice quotients. These primitives are the trusted
core that all (co)homology computations reduce to; there is no floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries are stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        entries = tuple(int(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, nrows: int, columns) -> IntMatrix:
        columns = [tuple(c) for c in columns]
        if any(len(c) != nrows for c in columns):
            raise ValueError("column length mismatch")
        entries = tuple(col[i] for i in range(nrows) for col in columns)
        return cls(nrows, len(columns), entries)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> IntMatrix:
        values = list(values)
        n = len(values)
        return cls(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(j, i) for i in range(self.cols) for j in range(self.rows)),
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        left = self.to_rows()
        right = other.to_rows()
        out = []
        for i in range(self.rows):
            li = left[i]
            row = [0] * other.cols
            for k in range(self.cols):
                a = li[k]
                if a:
                    rk = right[k]
                    for j in range(other.cols):
                        row[j] += a * rk[j]
            out.append(row)
        return IntMatrix(self.rows, other.cols, tuple(x for r in out for x in r))

    def apply(self, vector) -> tuple[int, ...]:
        vector = tuple(int(x) for x in vector)
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(self.at(i, j) * vector[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def mod(self, n: int) -> IntMatrix:
        if n == 0:
            return self
        return IntMatrix(self.rows, self.cols, tuple(a % n for a in self.entries))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def hstack(*matrices: IntMatrix) -> IntMatrix:
    """Join matrices left to right; all must have the same row count."""
    if not matrices:
        raise ValueError("hstack needs at least one matrix")
    nrows = matrices[0].rows
    if any(m.rows != nrows for m in matrices):
        raise ValueError("row count mismatch")
    rows = [sum((list(m.row(i)) for m in matrices), []) for i in range(nrows)]
    return IntMatrix(nrows, sum(m.cols for m in matrices), tuple(x for r in rows for x in r))


def vstack(*matrices: IntMatrix) -> IntMatrix:
    """Join matrices top to bottom; all must have the same column count."""
    if not matrices:
        raise ValueError("vstack needs at least one matrix")
    ncols = matrices[0].cols
    if any(m.cols != ncols for m in matrices):
        raise ValueError("column count mismatch")
    return IntMatrix(sum(m.rows for m in matrices), ncols, tuple(x for m in matrices for x in m.entries))


@dataclass(frozen=True)
class SnfResult:
    """Transforms U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.at(i, i) for i in range(min(self.D.rows, self.D.cols)))


def snf(matrix: IntMatrix) -> SnfResult:
    """Smith normal form with transforms.

    Returns U, D, V with U*matrix*V = D, both transforms unimodular, and D
    diagonal with nonnegative entries forming a divisibility chain. Pivots
    are always the nonzero entry of least absolute value in the working
    block, ties broken by lowest (row, column), so the reduction is
    deterministic.
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

    flat = lambda rows: tuple(x for r in rows for x in r)
    return SnfResult(
        U=IntMatrix(m, m, flat(u)),
        D=IntMatrix(m, n, flat(d)),
        V=IntMatrix(n, n, flat(v)),
    )


def kernel_basis(matrix: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {v : matrix * v = 0}, one basis vector per column.

    The basis is read off the columns of the SNF transform V at the zero
    diagonal positions; V being unimodular makes the returned sublattice
    saturated (a direct summand of Z^cols).
    """
    res = snf(matrix)
    diag = res.diagonal()
    keep = [j for j in range(matrix.cols) if j >= len(diag) or diag[j] == 0]
    return IntMatrix.from_columns(matrix.cols, [res.V.column(j) for j in keep])


def solve_in_lattice(basis: IntMatrix, target) -> tuple[int, ...] | None | list[tuple[int, ...] | None]:
    """Solve basis * x = target over the integers.

    Returns None when the target is outside the column lattice ("no
    solution" is a value, not an error). When the columns of basis are
    independent the solution is unique. The target may also be an
    IntMatrix: basis is then factored once and the result is a list with
    one solution (or None) per target column.
    """
    if isinstance(target, IntMatrix):
        targets = target
    else:
        target = tuple(target)
        targets = IntMatrix(len(target), 1, target)
    if targets.rows != basis.rows:
        raise ValueError("target length mismatch")
    res = snf(basis)
    diag = [d for d in res.diagonal() if d]
    rank, width = len(diag), targets.cols
    # U*basis*V = D with the nonzero diagonal d_1..d_r first, so basis*x = t
    # is solvable iff c = U*t has d_i | c_i for i <= r and c_i = 0 beyond.
    c = (res.U * targets).to_rows()
    solvable = [
        all(row[j] % d == 0 for row, d in zip(c, diag)) and not any(row[j] for row in c[rank:])
        for j in range(width)
    ]
    y = tuple(
        c[i][j] // diag[i] if i < rank and solvable[j] else 0
        for i in range(basis.cols)
        for j in range(width)
    )
    x = res.V * IntMatrix(basis.cols, width, y)
    solutions = [x.column(j) if solvable[j] else None for j in range(width)]
    return solutions if isinstance(target, IntMatrix) else solutions[0]


def quotient_generators(ambient_basis: IntMatrix, subgroup_gens: IntMatrix, generators: bool = True):
    """Structure of span(ambient_basis) / span(subgroup_gens), with generators.

    The ambient columns must be independent. The subgroup is solved
    against one factorization of the ambient basis, and the quotient is
    read off the SNF of the resulting coordinate matrix. With
    ``generators`` the second value holds one ambient vector per cyclic
    factor (torsion factors first, then free ones), the SNF generators
    mapped back through the inverse row transform; otherwise it is empty.
    """
    k = ambient_basis.cols
    coords = solve_in_lattice(ambient_basis, subgroup_gens) if subgroup_gens.cols else []
    for j, x in enumerate(coords):
        if x is None:
            raise ValueError(f"subgroup generator {j} lies outside the ambient lattice")
    res = snf(IntMatrix.from_columns(k, coords))
    orders = list(res.diagonal()) + [0] * (k - min(k, subgroup_gens.cols))
    structure = AbelianGroupStructure(orders.count(0), tuple(x for x in orders if x >= 2))
    if not generators:
        return structure, ()
    images = ambient_basis * unimodular_inverse(res.U)
    return structure, tuple(images.column(i) for i, order in enumerate(orders) if order != 1)


def lattice_quotient(ambient_basis: IntMatrix, subgroup_gens: IntMatrix) -> AbelianGroupStructure:
    """Structure of (lattice spanned by ambient_basis) / (span of subgroup_gens).

    Every subgroup generator must lie inside the ambient lattice; the
    quotient is the cokernel of the matrix of subgroup coordinates in the
    ambient basis, read off its SNF diagonal. The ambient columns must be
    linearly independent (coordinates are unique), or the cokernel formula
    would be meaningless.
    """
    if subgroup_gens.cols and subgroup_gens.rows != ambient_basis.rows:
        raise ValueError("ambient and subgroup generators live in different spaces")
    ambient_rank = sum(1 for x in snf(ambient_basis).diagonal() if x)
    if ambient_rank != ambient_basis.cols:
        raise ValueError("ambient basis columns are linearly dependent")
    return quotient_generators(ambient_basis, subgroup_gens, generators=False)[0]


def unimodular_inverse(matrix: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Inverse of a square integer matrix over Z (modulus 0) or over Z/modulus.

    With U * M * V = D from snf(M), M^-1 = V * D^-1 * U. Over Z this needs
    every d_i = 1, that is det M = +-1. Over Z/n it needs every d_i to be a
    unit mod n, that is det M a unit, and the inverse is
    V * diag(d_i^-1 mod n) * U with entries in [0, n). The one SNF over Z
    serves both rings; nothing is eliminated over Z/n. Raises ValueError
    when the matrix is not invertible over the ring, giving |det M|, the
    product of the invariant factors.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    res = snf(matrix)
    diag = res.diagonal()
    det = prod(diag)
    # gcd(det, 0) = det, so over Z this asks for det = 1.
    if gcd(det, modulus) != 1:
        ring = f"Z/{modulus}" if modulus else "Z"
        raise ValueError(f"|det| = {det} is not a unit over {ring}")
    if modulus == 0:
        return res.V * res.U
    units = IntMatrix.diagonal(pow(d, -1, modulus) for d in diag)
    return (res.V * units * res.U).mod(modulus)


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Isomorphism type of a finitely generated abelian group.

    free_rank copies of Z plus one cyclic factor Z/d per invariant factor,
    with 2 <= d1 | d2 | ... (trivial factors are never stored).
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(x) for x in self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        if any(x < 2 for x in self.torsion):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain, got {self.torsion}")

    @classmethod
    def trivial(cls) -> AbelianGroupStructure:
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> AbelianGroupStructure:
        return cls(rank, ())

    @classmethod
    def from_cyclic_orders(cls, orders) -> AbelianGroupStructure:
        """Canonical form of a direct sum of cyclic groups; order 0 means Z."""
        orders = [int(x) for x in orders]
        if any(x < 0 for x in orders):
            raise ValueError("cyclic orders must be nonnegative")
        free = orders.count(0)
        finite = [x for x in orders if x >= 2]
        if not finite:
            return cls(free, ())
        diag = snf(IntMatrix.diagonal(finite)).diagonal()
        return cls(free, tuple(x for x in diag if x >= 2))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Number of elements, or None for an infinite group."""
        if self.free_rank:
            return None
        n = 1
        for x in self.torsion:
            n *= x
        return n

    def __str__(self):
        if self.is_trivial():
            return "0"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> AbelianGroupStructure:
        """Inverse of str(): e.g. "0", "Z", "Z^2 + Z/4", "Z/2 + Z/2"."""
        text = text.strip()
        if text in ("0", "trivial"):
            return cls.trivial()
        orders: list[int] = []
        for part in text.split("+"):
            token = part.strip()
            if token == "Z":
                orders.append(0)
            elif token.startswith("Z^"):
                orders.extend([0] * int(token[2:]))
            elif token.startswith("Z/"):
                orders.append(int(token[2:]))
            else:
                raise ValueError(f"cannot parse group summand {token!r}")
        return cls.from_cyclic_orders(orders)
