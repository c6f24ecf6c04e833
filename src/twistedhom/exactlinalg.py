"""Exact linear algebra over the integers.

Everything here runs on unbounded Python integers: Smith normal form with
unimodular transforms, integer kernels, lattice membership and solving, and
invariant factors of lattice quotients. These primitives are the trusted
core that all (co)homology computations reduce to; there is no floating
point anywhere. Every kernel quotient goes through _subquotient, and every
SNF's pivots become a group through _cokernel; the columns a quotient
keeps are suffixes, read one row slice at a time. A matrix is held either as
its dense entries or as its nonzero rows, the (column, entry) pairs of
each row that _nonzero_rows gives. One built from rows (_from_nonzero)
keeps them: transpose, vstack, mod and a product with it on the left stay
rows, and the entries tuple is formed only when something reads it. The
cochains J, P, d1, d2 and the Z/n coordinates are built this way, so no
stage visits their zeros. A product with a dense left factor, IntMatrix's
and the Fox walk's, goes through _product, and one with a row-built left
factor through _sparse_product; both read the right factor as nonzero
rows, and the SNF reads its input through _nonzero_rows too.

The SNF returns its pivots, the nonzero diagonal d_1 | ... | d_r whose
count is the rank, and the shape; D is built from them only when read.
It builds only the transforms its caller reads (``transforms``), and
takes the first unit of the working block as its pivot without scanning
further; neither changes the pivot sequence, so the pivots and every
transform built are the same whatever is asked for. Besides U and V it
can build W = U^-1 (the letter W) by the inverse column operation of each
row operation on U, so the witnesses of a quotient need no second SNF,
and X = V^-1 (the word VX) by the inverse row operation of each column
operation on V, so a kernel quotient over Z/n, or one whose group alone
is read, takes its coordinates off the rows of X that survive, with
entries below n, and solves no lattice. Its working
matrix is held as sparse rows under a column permutation, so a column
swap touches no row and the work follows the nonzeros, and its scans
visit only the nonzero rows; the pivot sequence, and so D, U, V, W and X,
is that of the dense elimination.

An inverse takes no SNF. unimodular_inverse runs one fraction-free
Gauss-Jordan elimination over Z (_eliminate) on [M | I], taking a +-1
pivot where a column has one and a Bareiss step, whose divisions are
exact, where it has none; IntMatrix.det reads its value off the same
elimination. The adjugate is formed over Z and only det^-1 is taken mod
n, so nothing is eliminated over Z/n.
Matrices this module computes itself skip the entry checks of the public
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from math import gcd
from operator import add, index, mul, neg, sub

# Most digits of an integer in input text, which leaves room for 128-bit
# moduli. Across the 965 shipped and generated inputs (the built-ins plus
# 8 inputs for each of seeds 1-40 of the three benchmark workloads), no
# integer has more than 2 digits.
MAX_INPUT_DIGITS = 40


def _read_integer(text: str) -> int | None:
    """The integer spelled by an optional '-' and 1 to MAX_INPUT_DIGITS ASCII
    decimal digits, or None for any other text ('+1', '1_0', '1e3', ...)."""
    digits = text.removeprefix("-")
    if len(digits) <= MAX_INPUT_DIGITS and digits.isascii() and digits.isdigit():
        return int(text)
    return None


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries are stored row-major.

    One built from its nonzero rows (_from_nonzero) keeps them, and forms
    the entries tuple only when something reads it.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", index(self.rows))
        object.__setattr__(self, "cols", index(self.cols))
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        entries = tuple(map(index, self.entries))
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
        """A matrix from a tuple of rows*cols ints, taken as is.

        For results computed in this module only; IntMatrix(...) checks and
        converts its entries.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        return self

    @classmethod
    def _from_nonzero(cls, rows: int, cols: int, nonzero: list[list[tuple[int, int]]]) -> IntMatrix:
        """A matrix from the nonzero (column, entry) pairs of each row, in
        column order, as _nonzero_rows gives them, taken as is: a _RowBuilt,
        which keeps them. Nothing may change them afterwards."""
        self = object.__new__(_RowBuilt)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_nonzero", nonzero)
        return self

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix rows have unequal lengths")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, nrows: int, columns) -> IntMatrix:
        columns = [tuple(c) for c in columns]
        if any(len(c) != nrows for c in columns):
            raise ValueError("column length mismatch")
        return cls(nrows, len(columns), tuple(chain.from_iterable(zip(*columns))))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        if n < 0:
            raise ValueError("negative matrix dimensions")
        entries = [0] * (n * n)
        entries[:: n + 1] = [1] * n
        return cls._trusted(n, n, tuple(entries))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls._trusted(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> IntMatrix:
        values = list(values)
        n = len(values)
        entries = [0] * (n * n)
        entries[:: n + 1] = values
        return cls(n, n, entries)

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) lies outside a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} lies outside a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} lies outside a {self.rows}x{self.cols} matrix")
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        return IntMatrix._trusted(self.cols, self.rows, tuple(chain.from_iterable(
            self.entries[j :: self.cols] for j in range(self.cols)
        )))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> IntMatrix:
        return IntMatrix._trusted(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int) -> IntMatrix:
        c = index(c)
        return IntMatrix._trusted(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        product = _product(self.entries, _nonzero_rows(other), self.rows, other.cols, 0)
        return IntMatrix._trusted(self.rows, other.cols, tuple(product))

    def apply(self, vector) -> tuple[int, ...]:
        vector = tuple(map(index, vector))
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return (self * IntMatrix._trusted(self.cols, 1, vector)).entries

    def mod(self, n: int) -> IntMatrix:
        if n == 0:
            return self
        n = index(n)
        return IntMatrix._trusted(self.rows, self.cols, tuple(a % n for a in self.entries))

    def det(self) -> int:
        """Determinant, read off the fraction-free elimination over Z that
        unimodular_inverse runs (_eliminate)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _eliminate(self.to_rows(), self.rows)[0]


class _RowBuilt(IntMatrix):
    """An IntMatrix built from its nonzero rows (IntMatrix._from_nonzero),
    which it keeps in _nonzero. Its entries tuple is formed on first read,
    and it equals, hashes and prints as the IntMatrix of those entries.
    Its transpose, reduction mod n and products stay row-built. A subclass,
    so that reading the attributes of a dense IntMatrix pays for no hook."""

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: the entries, formed
        # here on first read.
        if name != "entries":
            raise AttributeError(f"'IntMatrix' object has no attribute {name!r}")
        entries = [0] * (self.rows * self.cols)
        # With no columns there are no entries, and a range step may not be 0.
        for i, pairs in zip(range(0, len(entries), self.cols or 1), self._nonzero):
            for j, x in pairs:
                entries[i + j] = x
        entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        return entries

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    __hash__ = IntMatrix.__hash__

    def __repr__(self):
        return f"IntMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    def transpose(self) -> IntMatrix:
        columns = [[] for _ in range(self.cols)]
        for i, pairs in enumerate(self._nonzero):
            for j, x in pairs:
                columns[j].append((i, x))
        return IntMatrix._from_nonzero(self.cols, self.rows, columns)

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix._from_nonzero(self.rows, other.cols, _sparse_product(self._nonzero, _nonzero_rows(other), 0))

    def mod(self, n: int) -> IntMatrix:
        if n == 0:
            return self
        return IntMatrix._from_nonzero(self.rows, self.cols, _reduced(self._nonzero, index(n)))


def _nonzero_rows(matrix: IntMatrix, labels=None) -> list[list[tuple[int, int]]]:
    """The nonzeros of each row of matrix as (column, entry) pairs, in
    column order: the rows a matrix built from them keeps, else read by one
    compress over the entries. With labels, an increasing sequence, column
    j is given as labels[j]. The caller must not change the rows."""
    if isinstance(matrix, _RowBuilt) and labels is None:
        return matrix._nonzero
    entries, cols = matrix.entries, matrix.cols
    rows = [[] for _ in range(matrix.rows)]
    for k in compress(range(len(entries)), entries):
        i, j = divmod(k, cols)
        rows[i].append((j if labels is None else labels[j], entries[k]))
    return rows


def _product(left, right: list[list[tuple[int, int]]], rows: int, cols: int, n: int) -> list[int]:
    """left * right mod n (over Z when n is 0), row-major and flat.

    left is rows x len(right), row-major and flat; right is rows of cols
    columns held as _nonzero_rows gives them. Row i of the product adds
    a * (row k of right) for every nonzero entry a = left[i][k], so the
    work is the entries of left plus the nonzeros of right's rows it
    meets; the product is reduced mod n before it is returned.
    """
    entries = iter(left)
    out = [0] * (rows * cols)
    # With no columns the product is empty, and a range step may not be 0.
    for i in range(0, rows * cols, cols or 1):
        for pairs in right:
            a = next(entries)
            if a:
                for j, x in pairs:
                    out[i + j] += a * x
    return [x % n for x in out] if n else out


def _sparse_product(left, right, n: int) -> list[list[tuple[int, int]]]:
    """left * right mod n (over Z when n is 0), both factors and the product
    held as _nonzero_rows gives them. Row i of the product adds a * (row k
    of right) for every nonzero a at (i, k) of left, so the work is the
    nonzeros of right's rows that left's nonzeros meet; no zero is visited.
    """
    out = []
    for pairs in left:
        row: dict[int, int] = {}
        for k, a in pairs:
            for j, x in right[k]:
                row[j] = row.get(j, 0) + a * x
        if n:
            out.append([(j, y) for j, x in sorted(row.items()) if (y := x % n)])
        else:
            out.append([(j, x) for j, x in sorted(row.items()) if x])
    return out


def _reduced(nonzero, n: int) -> list[list[tuple[int, int]]]:
    """Nonzero rows mod n, with the entries that vanish dropped."""
    return [[(j, y) for j, x in pairs if (y := x % n)] for pairs in nonzero]


def hstack(*matrices: IntMatrix) -> IntMatrix:
    """Join matrices left to right; all must have the same row count."""
    if not matrices:
        raise ValueError("hstack needs at least one matrix")
    nrows = matrices[0].rows
    if any(m.rows != nrows for m in matrices):
        raise ValueError("row count mismatch")
    entries = tuple(chain.from_iterable(m.row(i) for i in range(nrows) for m in matrices))
    return IntMatrix._trusted(nrows, sum(m.cols for m in matrices), entries)


def vstack(*matrices: IntMatrix) -> IntMatrix:
    """Join matrices top to bottom; all must have the same column count."""
    if not matrices:
        raise ValueError("vstack needs at least one matrix")
    ncols = matrices[0].cols
    if any(m.cols != ncols for m in matrices):
        raise ValueError("column count mismatch")
    rows = sum(m.rows for m in matrices)
    if any(isinstance(m, _RowBuilt) for m in matrices):
        return IntMatrix._from_nonzero(rows, ncols, list(chain.from_iterable(map(_nonzero_rows, matrices))))
    return IntMatrix._trusted(rows, ncols, tuple(chain.from_iterable(m.entries for m in matrices)))


# The placeholder for a transform that was not built: any use of it as U,
# V, U^-1 or V^-1 fails on shape.
_NOT_BUILT = IntMatrix._trusted(0, 0, ())


@dataclass(frozen=True)
class SnfResult:
    """U * A * V = D with U, V unimodular, A of shape (rows, cols), W = U^-1
    and X = V^-1 when asked for, and pivots d_1 | ... | d_r > 0, the nonzero
    diagonal of D with r the rank of A. D is built from pivots and shape
    when read."""

    U: IntMatrix
    pivots: tuple[int, ...]
    shape: tuple[int, int]
    V: IntMatrix
    W: IntMatrix = _NOT_BUILT
    X: IntMatrix = _NOT_BUILT

    @property
    def D(self) -> IntMatrix:
        m, n = self.shape
        entries = [0] * (m * n)
        entries[: len(self.pivots) * (n + 1) : n + 1] = self.pivots
        return IntMatrix._trusted(m, n, tuple(entries))

    def diagonal(self) -> tuple[int, ...]:
        return self.pivots + (0,) * (min(self.shape) - len(self.pivots))


TRANSFORMS = ("UV", "V", "", "W", "VX")


def _identity_rows(k: int) -> list[list[int]]:
    """The k x k identity as a list of row lists."""
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = 1
    return rows


def _combined(a, b, c: int) -> list[int]:
    """a + c*b entry by entry; c = +-1 adds or subtracts without a multiply."""
    if c == 1:
        return list(map(add, a, b))
    if c == -1:
        return list(map(sub, a, b))
    return [x + c * y for x, y in zip(a, b)]


def snf(matrix: IntMatrix, *, transforms: str = "UV") -> SnfResult:
    """Smith normal form with transforms.

    Returns the pivots, the shape and the transforms asked for: U*matrix*V
    = D with both transforms unimodular and D diagonal, its nonzero entries
    the pivots, positive and a divisibility chain. Pivots are always the
    nonzero entry of least absolute value in the working block, ties broken
    by lowest (row, column), so the reduction is deterministic. The search
    for a pivot stops at the first row holding a unit, whose first unit is
    the entry that rule picks, and a pivot of 1 divides the rest of the
    block without a check.

    The working matrix is held as sparse rows, each a dict from original
    column to nonzero entry, under a column permutation: a column swap
    exchanges two positions of the permutation (and two columns of V) and
    touches no row, and "column" in the pivot rule means the current
    position. A row addition walks the nonzeros of the source row. The
    scans for a pivot, for the rows below it and for an entry it does not
    divide visit the nonzero rows from the pivot on, in ascending order,
    from a list that drops a row once a row addition has emptied it. The
    pivot sequence is that of the dense elimination, so the pivots and
    every transform are too.

    ``transforms`` names the transforms to build, one of "UV" (the
    default), "V", "", "W", where W = U^-1, and "VX", where X = V^-1. One
    that is not built is the 0x0 matrix; the ones that are built, and the
    pivots, do not depend on the choice. W needs neither U nor a second
    SNF: each row operation on U is mirrored by the inverse column operation
    on W, so W*U = I always. Likewise each column operation on V is mirrored
    by the inverse row operation on X, so X*V = I always.
    """
    if transforms not in TRANSFORMS:
        raise ValueError(f"transforms must be one of {TRANSFORMS}, got {transforms!r}")
    m, n = matrix.rows, matrix.cols
    # Row i of the working matrix maps the original column of each nonzero
    # entry to that entry.
    d = [dict(pairs) for pairs in _nonzero_rows(matrix)]
    # col[j] is the original column at position j; pos is its inverse.
    col = list(range(n))
    pos = list(range(n))
    u = _identity_rows(m) if "U" in transforms else None
    # V and W are held as lists of their columns, so that a column
    # operation on them is one list operation; X as a list of its rows.
    v = _identity_rows(n) if "V" in transforms else None
    w = _identity_rows(m) if "W" in transforms else None
    x = _identity_rows(n) if "X" in transforms else None

    # Each row operation on U is mirrored on W by its inverse column
    # operation, so that W*U = I throughout, and each column operation on V
    # on X by its inverse row operation, so that X*V = I.
    def swap_rows(i1, i2):
        if i1 != i2:
            d[i1], d[i2] = d[i2], d[i1]
            if u is not None:
                u[i1], u[i2] = u[i2], u[i1]
            if w is not None:
                w[i1], w[i2] = w[i2], w[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            k1, k2 = col[j2], col[j1]
            col[j1], col[j2] = k1, k2
            pos[k1], pos[k2] = j1, j2
            if v is not None:
                v[j1], v[j2] = v[j2], v[j1]
            if x is not None:
                x[j1], x[j2] = x[j2], x[j1]

    def negate_row(i):
        d[i] = {k: -e for k, e in d[i].items()}
        if u is not None:
            u[i] = list(map(neg, u[i]))
        if w is not None:
            w[i] = list(map(neg, w[i]))

    # An entry that cancels is deleted, so a zero row is an empty dict.
    def add_row(src, dst, c):
        nonlocal emptied
        row = d[dst]
        for k, e in d[src].items():
            y = row.get(k, 0) + c * e
            if y:
                row[k] = y
            else:
                del row[k]
        if not row:
            emptied = True
        if u is not None:
            u[dst] = _combined(u[dst], u[src], c)
        if w is not None:
            w[src] = _combined(w[src], w[dst], -c)

    # Column additions come only at position t in the column phase, where
    # column t is zero below row t, so they change row t only.
    def add_col(src, dst, c):
        row = d[t]
        k = col[dst]
        y = row[k] + c * row[col[src]]
        if y:
            row[k] = y
        else:
            del row[k]
        if v is not None:
            v[dst] = _combined(v[dst], v[src], c)
        if x is not None:
            x[src] = _combined(x[src], x[dst], -c)

    # live lists in ascending order the rows from t on that were nonzero
    # when it was last filtered. A row empties only under an add_row, which
    # then sets emptied, and becomes nonzero only by the swap that brings
    # the pivot to row t. The pivot search filters first; the other two
    # scans may meet a row emptied since, which holds no pivot column and
    # whose gcd, 0, every pivot divides. So each scan finds what a scan of
    # every row from t on would, in the same order.
    live = list(compress(range(m), d))
    emptied = False
    t = 0
    while t < min(m, n):
        if emptied:
            live = list(compress(live, map(d.__getitem__, live)))
            emptied = False
        # Rows from t on hold no entry left of position t, so the least |x|
        # of a whole row is that of its part in the block. The scan stops at
        # the first row holding a unit.
        best, where = 0, None
        for i in live:
            values = d[i].values()
            if 1 in values or -1 in values:
                best, where = 1, i
                break
            least = min(map(abs, values))
            if not best or least < best:
                best, where = least, i
        if where is None:
            break
        swap_rows(t, where)
        if live[0] != t:
            # Row t was zero, so row where is now.
            live.remove(where)
            live.insert(0, t)
        swap_cols(t, min(pos[k] for k, e in d[t].items() if abs(e) == best))
        if d[t][col[t]] < 0:
            negate_row(t)
        while True:
            pivot = col[t]
            p = d[t][pivot]
            below = [i for i in islice(live, 1, None) if pivot in d[i]]
            for i in below:
                q = d[i][pivot] // p
                if q:
                    add_row(t, i, -q)
            # With p > 0 the remainders left by floor division lie in
            # [0, p), so the least nonzero one is the next pivot as is.
            rest = [(d[i][pivot], i) for i in below if pivot in d[i]]
            if rest:
                swap_rows(t, min(rest)[1])
                continue
            row = d[t]
            right = [k for k in row if k != pivot]
            for k in right:
                q = row[k] // p
                if q:
                    add_col(t, pos[k], -q)
            rest = [(row[k], pos[k]) for k in right if k in row]
            if rest:
                swap_cols(t, min(rest)[1])
                continue
            break
        # The pivot must divide every remaining entry; if it does not, fold
        # the offending row into row t and redo this position. The pivot
        # shrinks strictly each round, so this terminates. Rows past t hold
        # no entry left of position t + 1, so a whole row's gcd is that of
        # its block part.
        p = d[t][col[t]]
        bad = None
        if p != 1:
            bad = next((i for i in islice(live, 1, None) if gcd(*d[i].values()) % p), None)
        if bad is None:
            del live[0]
            t += 1
        else:
            add_row(bad, t, 1)

    def flat(rows, size, cols):
        return IntMatrix._trusted(size, cols, tuple(chain.from_iterable(rows)))

    # Row i < t holds its pivot alone and the rows from t on are zero.
    return SnfResult(
        U=_NOT_BUILT if u is None else flat(u, m, m),
        pivots=tuple(d[i][col[i]] for i in range(t)),
        shape=(m, n),
        V=_NOT_BUILT if v is None else flat(zip(*v), n, n),
        W=_NOT_BUILT if w is None else flat(zip(*w), m, m),
        X=_NOT_BUILT if x is None else flat(x, n, n),
    )


def _columns_from(matrix: IntMatrix, start: int) -> IntMatrix:
    """Columns start, ..., cols - 1 of matrix, one row slice each."""
    if not start:
        return matrix
    entries, cols = matrix.entries, matrix.cols
    rows = (entries[i + start : i + cols] for i in range(0, len(entries), cols))
    return IntMatrix._trusted(matrix.rows, cols - start, tuple(chain.from_iterable(rows)))


def kernel_basis(matrix: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {v : matrix * v = 0}, one basis vector per column.

    The basis is the columns of the SNF transform V past the rank, where
    the diagonal is zero; V being unimodular makes the returned sublattice
    saturated (a direct summand of Z^cols).
    """
    factored = snf(matrix, transforms="V")
    return _columns_from(factored.V, len(factored.pivots))


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
    res = snf(basis, transforms="UV")
    rank, width = len(res.pivots), targets.cols
    # U*basis*V = D with the pivots d_1..d_r first on its diagonal, so basis*x = t
    # is solvable iff c = U*t has d_i | c_i for i <= r and c_i = 0 beyond.
    c = (res.U * targets).to_rows()
    solvable = [
        all(row[j] % d == 0 for row, d in zip(c, res.pivots)) and not any(row[j] for row in c[rank:])
        for j in range(width)
    ]
    y = [e // d if ok else 0 for row, d in zip(c, res.pivots) for e, ok in zip(row, solvable)]
    x = res.V * IntMatrix._trusted(basis.cols, width, tuple(y) + (0,) * ((basis.cols - rank) * width))
    solutions = [x.entries[j::width] if solvable[j] else None for j in range(width)]
    return solutions if isinstance(target, IntMatrix) else solutions[0]


def _outside(j: int) -> ValueError:
    return ValueError(f"subgroup generator {j} lies outside the ambient lattice")


def _lattice_coordinates(basis: IntMatrix, subgroup_gens: IntMatrix) -> IntMatrix:
    """The coordinates of the subgroup generators in the lattice basis, one
    column per generator.

    The columns of basis must be independent. solve_in_lattice factors basis
    itself, once for all generators. Raises ValueError naming the first
    generator outside the lattice.
    """
    k, count = basis.cols, subgroup_gens.cols
    solutions = solve_in_lattice(basis, subgroup_gens) if count else []
    if None in solutions:
        raise _outside(solutions.index(None))
    return IntMatrix._trusted(k, count, tuple(chain.from_iterable(zip(*solutions))))


def _cokernel(pivots, size: int, n: int) -> AbelianGroupStructure:
    """Z^size / (im A + n*Z^size) for the SNF pivots of a matrix A with
    size rows: the sum of Z/gcd(d_i, n), padded with n = gcd(0, n) past
    the pivots, and 0 giving Z. gcd(., n) keeps the divisibility chain, so
    the orders are invariant factors as they stand."""
    orders = [gcd(d, n) for d in pivots] + [n] * (size - len(pivots))
    return AbelianGroupStructure(orders.count(0), tuple(d for d in orders if d > 1))


def _coordinates_off_x(outgoing: SnfResult, incoming: IntMatrix, n: int) -> IntMatrix:
    """A matrix whose cokernel is ker(A) / (im(incoming) + n*Z^m), read off
    X = V^-1 of outgoing = snf(A, transforms="VX") on the rows that survive.

    v = V*z lies in the kernel iff d_j*z_j = 0 mod n for every j, with z =
    X*v and d_j = 0 past the pivots. Over Z/n, with g_j = gcd(d_j, n) and
    s_j = n / g_j, the kernel is V*diag(s)*Z^m, and n*I has the coordinates
    diag(g)*X there, which span what diag(g) spans, X being unimodular. So
    the quotient is (sum Z/g_j) / <rows of X*incoming / s>: a row with
    g_j = 1 is the zero group and drops out, and row j of X*incoming is read
    only mod s_j*g_j = n, so its coordinates, divided by s_j, are below g_j.
    Each kept row sits beside g_j in a diagonal block, in the order of j,
    and every entry lies in [0, n]. Over Z the kernel rows are those with
    d_j = 0, every g_j is 0 and the block is zero. X*incoming is the
    product of the nonzero rows of X, mod n, by those of incoming, and the
    coordinates are built from its nonzero rows, so no zero of either is
    visited.

    Raises ValueError naming the first column of incoming outside the
    kernel: one with a row of X*incoming not divisible by s_j over Z/n, or
    nonzero at d_j != 0 over Z.
    """
    X, count = outgoing.X, incoming.cols
    if X.cols != incoming.rows:
        raise ValueError(f"cannot multiply {X.rows}x{X.cols} by {incoming.rows}x{incoming.cols}")
    diag = outgoing.pivots + (0,) * (X.rows - len(outgoing.pivots))
    # (g_j, s_j) for each row: it drops out when g_j = 1, and s_j divides
    # each of its entries, 0 dividing only 0. Over Z a row at d_j = 0 is
    # free, g_j = 0, and any other row must be zero.
    kinds = [(gcd(d, n), n // gcd(d, n)) for d in diag] if n else [(1, 0) if d else (0, 1) for d in diag]
    size = sum(g != 1 for g, _ in kinds)
    left = _nonzero_rows(X)
    product = _sparse_product(_reduced(left, n) if n else left, _nonzero_rows(incoming), n)
    rows, outside = [], []
    for (g, s), row in zip(kinds, product):
        if s != 1:
            outside += [j for j, y in row if (y % s if s else y)]
        if g != 1:
            kept = row if s == 1 else [(j, y // s) for j, y in row]
            if g:
                kept.append((count + len(rows), g))
            rows.append(kept)
    if outside:
        raise _outside(min(outside))
    return IntMatrix._from_nonzero(size, count + size, rows)


def _subquotient(outgoing: SnfResult, incoming: IntMatrix, n: int, generators: bool = False):
    """ker(A) / (im(incoming) + n*Z^m) over Z/n, with n = 0 for Z.

    The kernel is read off U*A*V = D, one SNF of A over Z: v = V*y has
    A*v = 0 mod n iff d_j*y_j = 0 mod n for every j, U being unimodular,
    with d_j = 0 past the pivots. So its basis K is V*diag(s) over Z/n,
    s_j = n / gcd(d_j, n) and gcd(0, n) = n, and V's columns past the rank
    over Z. The positions kept, gcd(d_j, n) != 1, are a suffix: d_j | d_k
    (and d_j | 0) for j <= k, so gcd(d_j, n) | gcd(d_k, n).

    The group is the cokernel of the coordinates. Every quotient over Z/n,
    and every group read alone, reads them off X = V^-1 of outgoing =
    snf(A, transforms="VX") by _coordinates_off_x, with no lattice solved;
    witnesses over Z solve the subgroup in K by solve_in_lattice. The
    route follows n, not the shape of X.

    Returns (group, K, generators), K and the generators only when asked
    for, else None and (): one kernel vector per cyclic factor (torsion
    first, then free), the kept columns of K times U^-1's columns past the
    unit pivots of the coordinates' SNF, reduced mod n, each a suffix of
    columns read one row slice at a time.
    """
    if not generators:
        coordinates = _coordinates_off_x(outgoing, incoming, n)
        return _cokernel(snf(coordinates, transforms="").pivots, coordinates.rows, 0), None, ()
    V, m, pivots = outgoing.V, outgoing.V.cols, outgoing.pivots
    if n:
        scales = [n // gcd(d, n) for d in pivots] + [1] * (m - len(pivots))
        rows = (map(mul, V.entries[i : i + m], scales) for i in range(0, m * m, m or 1))
        K = IntMatrix._trusted(m, m, tuple(chain.from_iterable(rows)))
        basis = _columns_from(K, scales.count(n))
    else:
        K = basis = _columns_from(V, len(pivots))
    coordinates = _coordinates_off_x(outgoing, incoming, n) if n else _lattice_coordinates(K, incoming)
    res = snf(coordinates, transforms="W")
    size = coordinates.rows
    group = _cokernel(res.pivots, size, 0)
    # The pivots are 1, ..., 1 and then one order per torsion factor.
    units = size - group.free_rank - len(group.torsion)
    images = (basis * _columns_from(res.W, units)).mod(n)
    return group, K, tuple(images.entries[j :: images.cols] for j in range(images.cols))


def lattice_quotient(ambient_basis: IntMatrix, subgroup_gens: IntMatrix) -> AbelianGroupStructure:
    """Structure of (lattice spanned by ambient_basis) / (span of subgroup_gens).

    Every subgroup generator must lie inside the ambient lattice; the
    quotient is the cokernel of the matrix of subgroup coordinates in the
    ambient basis, read off its SNF pivots. The ambient columns must be
    linearly independent (coordinates are unique), or the cokernel formula
    would be meaningless.
    """
    if subgroup_gens.cols and subgroup_gens.rows != ambient_basis.rows:
        raise ValueError("ambient and subgroup generators live in different spaces")
    if len(snf(ambient_basis, transforms="").pivots) != ambient_basis.cols:
        raise ValueError("ambient basis columns are linearly dependent")
    coordinates = _lattice_coordinates(ambient_basis, subgroup_gens)
    return _cokernel(snf(coordinates, transforms="").pivots, ambient_basis.cols, 0)


def _permutation_sign(order: list[int]) -> int:
    """The sign of the permutation k -> order[k], by its cycles."""
    sign, seen = 1, [False] * len(order)
    for start in range(len(order)):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length and not length % 2:
            sign = -sign
    return sign


def _eliminate(rows: list[list[int]], size: int) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination over Z of the first size
    columns of rows, a square matrix with any columns appended, in place.

    Column k takes its pivot from the unused rows that hold it. A +-1 entry
    is taken when there is one, from the row with the fewest nonzeros
    (ties to the lowest row), and that row is negated so the pivot is 1;
    each other row holding column k then subtracts c times it along its
    nonzeros, and no row is divided or scaled. With no unit a Bareiss step
    (Bareiss, Math. Comp. 22, 1968) takes the pivot p from the row with the
    fewest nonzeros: every other row becomes (p*x - c*y) / prev, x and c
    its own, y the pivot row and prev the last Bareiss pivot (1 before
    any), and each division is exact.

    Row r is s_r times its state in plain Bareiss elimination on the same
    pivots, whose entries are minors of the input (Sylvester's identity),
    and s_r = 1 until a unit step meets prev != 1. Plain Bareiss would
    divide every row but the pivot row by prev there, so those rows take
    s_r = prev, and prev is kept: it is the plain divisor, now 1, times
    the scale of the unused rows (scale). The step formula is linear in
    the row it changes, so it stays exact whatever that row's scale. Every
    unused row is then a multiple of prev, |prev| >= 2, so no unit comes
    again and scale changes at most once.

    Returns (det, order), order[k] the row holding the pivot of column k,
    or (0, order so far) when a column has no pivot. Otherwise row
    order[k] ends as q*e_k on the first size columns, q = s_r * D with
    D = prev / scale the last plain divisor, and det = +-D, the sign that
    of the permutation order times -1 per negated row.
    """
    sign, prev, scale, order = 1, 1, 1, []
    unused = [True] * size
    span = range(size)
    width = len(rows[0]) if rows else 0
    for k in span:
        column = [row[k] for row in rows]
        holders = list(compress(span, column))
        units = [i for i in holders if unused[i] and column[i] in (1, -1)]
        if len(units) == 1:
            where = units[0]
        else:
            free = units or [i for i in holders if unused[i]]
            if not free:
                return 0, order
            # The most zeros, first among equals.
            where = max(free, key=lambda i: rows[i].count(0))
        y = rows[where]
        if units:
            if y[k] < 0:
                y = rows[where] = list(map(neg, y))
                sign = -sign
            holders.remove(where)
            if holders:
                support = list(compress(range(k, width), islice(y, k, None)))
                for i in holders:
                    row, c = rows[i], column[i]
                    for j in support:
                        row[j] -= c * y[j]
            scale = prev
        else:
            p = y[k]
            for i, row in enumerate(rows):
                if i != where:
                    c = row[k]
                    if c:
                        rows[i] = [(p * x - c * b) // prev for x, b in zip(row, y)]
                    elif p != prev:
                        rows[i] = [p * x // prev for x in row]
            prev = p
        unused[where] = False
        order.append(where)
    return sign * _permutation_sign(order) * (prev // scale), order


def unimodular_inverse(matrix: IntMatrix, modulus: int = 0) -> IntMatrix:
    """Inverse of a square integer matrix over Z (modulus 0) or over Z/modulus.

    One fraction-free elimination over Z (_eliminate, which IntMatrix.det
    reads too) takes [M | I] to rows q_k*[e_k | row k of M^-1], one per
    column k, and gives det M. Row k of the adjugate, det M * M^-1, is
    then the right half divided exactly by q_k / det M. The inverse is
    that times det^-1: over Z this needs det M = +-1, and over Z/n det M a
    unit mod n, the entries then in [0, n). Nothing is eliminated over
    Z/n: the adjugate is formed over Z, and only det^-1 is taken mod n.
    Raises ValueError when the matrix is not invertible over the ring,
    giving |det M|.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n, entries = matrix.rows, matrix.entries
    # Row i of [M | I], the 1 of I cut from the middle of pad.
    pad = [0] * n + [1] + [0] * n
    rows = [[*entries[i * n : i * n + n], *pad[n - i : n + n - i]] for i in range(n)]
    det, order = _eliminate(rows, n)
    # gcd(det, 0) = |det|, so over Z this asks for det = +-1.
    if gcd(det, modulus) != 1:
        ring = f"Z/{modulus}" if modulus else "Z"
        raise ValueError(f"|det| = {abs(det)} is not a unit over {ring}")
    if not det:
        # Over Z/1 every matrix is the inverse of every other.
        return IntMatrix.zeros(n, n)
    # Row order[k] is q*[e_k | row k of M^-1]. Over Z/n, q / det divides
    # its right half exactly into row k of the adjugate.
    inverse = pow(det, -1, modulus) if modulus else None
    out = []
    for k, i in enumerate(order):
        row, q = rows[i], rows[i][k]
        if not modulus:
            out.append(row[n:] if q == 1 else [x // q for x in islice(row, n, None)])
        else:
            t = q // det
            out.append([x // t * inverse % modulus for x in islice(row, n, None)])
    return IntMatrix._trusted(n, n, tuple(chain.from_iterable(out)))


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Isomorphism type of a finitely generated abelian group.

    free_rank copies of Z plus one cyclic factor Z/d per invariant factor,
    with 2 <= d1 | d2 | ... (trivial factors are never stored).
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", index(self.free_rank))
        object.__setattr__(self, "torsion", tuple(map(index, self.torsion)))
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
        orders = list(map(index, orders))
        if any(x < 0 for x in orders):
            raise ValueError("cyclic orders must be nonnegative")
        free = orders.count(0)
        finite = [x for x in orders if x >= 2]
        # Orders that already form a divisibility chain are their own
        # invariant factors, and no SNF is needed.
        if all(b % a == 0 for a, b in zip(finite, finite[1:])):
            return cls(free, tuple(finite))
        pivots = snf(IntMatrix.diagonal(finite), transforms="").pivots
        return cls(free, _cokernel(pivots, len(finite), 0).torsion)

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
        """Inverse of str(): e.g. "0", "Z", "Z^2 + Z/4", "Z/2 + Z/2"; Z^k adds k to the free rank."""
        text = text.strip()
        if text in ("0", "trivial"):
            return cls.trivial()
        free, orders = 0, []
        for part in text.split("+"):
            token = part.strip()
            head, digits = token[:2], token[2:]
            value = _read_integer(digits)
            if token == "Z":
                free += 1
            elif head not in ("Z^", "Z/") or value is None or digits.startswith("-"):
                raise ValueError(f"cannot parse group summand {token!r} in {text!r}")
            elif head == "Z^":
                free += value
            else:
                orders.append(value)
        group = cls.from_cyclic_orders(orders)
        return cls(group.free_rank + free, group.torsion)
