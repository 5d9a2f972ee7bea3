"""Dense exact linear algebra over the Gaussian rationals: rank, kernel,
image, solving and subspace calculus.

A subspace is a Matrix whose columns are an independent basis of it: its
ambient dimension is `rows`, its dimension is `cols`. Kernels, images,
cycles, boundaries and eigenspaces all take this one form.

Exact elimination runs on Python ints from input to answer: rows are scaled
to Gaussian integers and eliminated by one fraction-free (Bareiss) loop,
real or not, and kernels and solves back-substitute over the last pivot, so
each QQi of an answer is built once. `commutes` also runs on
Gaussian-integer numerators and builds no QQi.

A Matrix has one scalar type, QQi: it keeps a row whose entries are all
QQi and sends any other row through as_scalar, which refuses a float. The
float joint-eigenvalue split runs on numpy copies (`Matrix.to_numpy`) in
`spectrum.float_spectrum`; numpy is imported only there and in to_numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InconsistentSystem
from .scalars import ONE, ZERO, QQi, as_scalar


class Matrix:
    """An immutable dense rows x cols matrix of Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_data, *, shape=None):
        if shape is not None:
            nrows, ncols = shape
        else:
            rows_data = [list(r) for r in rows_data]
            nrows = len(rows_data)
            ncols = len(rows_data[0]) if nrows else 0
        data = []
        for r in rows_data:
            if len(r) != ncols:
                raise ValueError("ragged rows in matrix literal")
            data.append(tuple(r) if all(type(x) is QQi for x in r)
                        else tuple(as_scalar(x) for x in r))
        object.__setattr__(self, "rows", nrows)
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix values are immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)],
                      shape=(n, n))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)], shape=(rows, cols))

    @staticmethod
    def hstack(blocks) -> "Matrix":
        blocks = list(blocks)
        rows = blocks[0].rows
        for b in blocks:
            if b.rows != rows:
                raise ValueError("hstack: row counts differ")
        data = [sum((list(b.entries[i]) for b in blocks), []) for i in range(rows)]
        return Matrix(data, shape=(rows, sum(b.cols for b in blocks)))

    @staticmethod
    def place(rows: int, cols: int, blocks) -> "Matrix":
        """The rows x cols matrix, zero but for its blocks (row, col, step,
        sign, m): entry (r, c) of m, negated if sign < 0, is added at (row +
        step*r, col + step*c). I (x) m is m at step 1 down the diagonal, m (x) I
        is m at step len(I) from each diagonal offset: nothing is multiplied."""
        data = [[ZERO] * cols for _ in range(rows)]
        for row, col, step, sign, m in blocks:
            for r, entries in enumerate(m.entries):
                out = data[row + step * r]
                for c, v in enumerate(entries):
                    if v:
                        j, v = col + step * c, v if sign > 0 else -v
                        out[j] = v if out[j] is ZERO else out[j] + v
        return Matrix(data, shape=(rows, cols))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def take_rows(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix([list(self.entries[i]) for i in idx], shape=(len(idx), self.cols))

    def take_cols(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix([[r[j] for j in idx] for r in self.entries], shape=(self.rows, len(idx)))

    @property
    def shape(self):
        return (self.rows, self.cols)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        _same_shape(self, other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            shape=self.shape)

    def __sub__(self, other):
        _same_shape(self, other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            shape=self.shape)

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.entries], shape=self.shape)

    def scale(self, s) -> "Matrix":
        s = as_scalar(s)
        return Matrix([[s * a for a in r] for r in self.entries], shape=self.shape)

    def shift(self, lam) -> "Matrix":
        """self - lam * I, moving lam to the origin: only the diagonal changes."""
        if self.rows != self.cols:
            raise ValueError(f"shift of a non-square {self.shape} matrix")
        lam = as_scalar(lam)
        return Matrix([r[:i] + (r[i] - lam,) + r[i + 1:] for i, r in enumerate(self.entries)],
                      shape=self.shape)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"matmul: {self.shape} @ {other.shape}")
        zero = QQi(0)
        cols_other = list(zip(*other.entries)) if other.rows else []
        data = []
        for r in self.entries:
            out_row = []
            for c in range(other.cols):
                acc = zero
                col = cols_other[c] if cols_other else ()
                for a, b in zip(r, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            data.append(out_row)
        return Matrix(data, shape=(self.rows, other.cols))

    def is_zero(self) -> bool:
        return all(not a for r in self.entries for a in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def to_numpy(self):
        """A complex128 copy, for the float split; raises OverflowError on an
        entry beyond float range."""
        import numpy as np

        return np.array([[complex(a) for a in r] for r in self.entries],
                        dtype=np.complex128).reshape(self.shape)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _same_shape(a: Matrix, b: Matrix):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")


def commutes(a: Matrix, b: Matrix) -> bool:
    """Whether ab = ba. Each is scaled once by its own least common
    denominator, so both products carry den(a) * den(b), and their rows are
    compared on Gaussian-integer numerators until one differs."""
    n = a.rows
    if not a.cols == b.rows == b.cols == n:
        raise ValueError(f"commutes: {a.shape} and {b.shape}")
    # each row as its nonzero (column, re, im) triples
    sa, sb = ([[(j, x, y) for j, (x, y) in enumerate(pairs[i * n:(i + 1) * n]) if x or y]
               for i in range(n)] for _, pairs in
              (_clear_denominators([x for r in m.entries for x in r]) for m in (a, b)))

    def row(left, right, i):  # row i of left @ right, over pairs nonzero on both sides
        re, im = [0] * n, [0] * n
        for k, xa, xb in left[i]:
            for j, ya, yb in right[k]:
                re[j] += xa * ya - xb * yb
                im[j] += xa * yb + xb * ya
        return re, im
    return all(row(sa, sb, i) == row(sb, sa, i) for i in range(n))


# -- fraction-free elimination over Gaussian integers ------------------------


def _clear_denominators(entries):
    """(lcm, pairs): the least common denominator of a collection of exact
    entries, and the entries scaled by it to Gaussian-integer pairs; scaling
    a row preserves rank, kernel and pivot-column structure."""
    lcm = math.lcm(*[a.re.denominator for a in entries],
                   *[a.im.denominator for a in entries])
    return lcm, [(a.re.numerator * (lcm // a.re.denominator),
                  a.im.numerator * (lcm // a.im.denominator)) for a in entries]


def _bareiss(rows, ncols, pivot_limit=None):
    """One-step Bareiss elimination in place on Gaussian-integer pairs.

    Returns (rank, pivot_cols, swap_sign, last_pivot). Entries after return
    form a staircase whose row space equals the input row space. Pivot
    search is restricted to columns < pivot_limit (for augmented solves).
    A row with a zero in the pivot column is only rescaled by p / prev, at
    its nonzero entries, and not at all when p == prev: Koszul differentials
    are sparse, so most of their rows meet a pivot column in a zero.
    """
    nrows = len(rows)
    limit = ncols if pivot_limit is None else pivot_limit
    rank = 0
    prev = (1, 0)
    sign = 1
    pivots = []
    for col in range(limit):
        piv = -1
        for r in range(rank, nrows):
            if rows[r][col] != (0, 0):
                piv = r
                break
        if piv < 0:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        rowp = rows[rank]
        p = rowp[col]
        pa, pb = p
        qa, qb = prev
        nq = qa * qa + qb * qb
        for r in range(rank + 1, nrows):
            rowr = rows[r]
            xa, xb = rowr[col]
            if xa or xb:
                for c in range(col, ncols):
                    ea, eb = rowr[c]
                    fa, fb = rowp[c]
                    # (e*p - x*f) / prev, exact Gaussian-integer division
                    na = ea * pa - eb * pb - (xa * fa - xb * fb)
                    nb = ea * pb + eb * pa - (xa * fb + xb * fa)
                    rowr[c] = ((na * qa + nb * qb) // nq, (nb * qa - na * qb) // nq)
            elif p != prev:
                for c in range(col + 1, ncols):
                    ea, eb = rowr[c]
                    if ea or eb:
                        na, nb = ea * pa - eb * pb, ea * pb + eb * pa
                        rowr[c] = ((na * qa + nb * qb) // nq, (nb * qa - na * qb) // nq)
        prev = p
        pivots.append(col)
        rank += 1
    return rank, pivots, sign, prev


def _echelon(m: Matrix, pivot_limit=None):
    rows = [_clear_denominators(r)[1] for r in m.entries]
    rank, pivots, sign, last = _bareiss(rows, m.cols, pivot_limit)
    return rank, pivots, rows, sign, last


def _back_substitute(rows, pivots, ncols, col):
    """The solution x, zero on free columns, of the Bareiss staircase `rows`
    against its column `col`: a solve when col >= ncols, else the kernel
    vector of the free column col, with x[col] = 1. By Cramer's rule D * x
    is Gaussian-integral for the last pivot D, the determinant of the pivot
    block, so each row divides exactly and each QQi is built once."""
    r = len(pivots)
    sign = -1 if col < ncols else 1
    da, db = rows[r - 1][pivots[r - 1]] if r else (1, 0)
    y = [None] * r
    for i in range(r - 1, -1, -1):
        row = rows[i]
        ta, tb = row[col]
        na, nb = sign * (ta * da - tb * db), sign * (ta * db + tb * da)
        for j in range(i + 1, r):
            ea, eb = row[pivots[j]]
            if ea or eb:
                ya, yb = y[j]
                na -= ea * ya - eb * yb
                nb -= ea * yb + eb * ya
        pa, pb = row[pivots[i]]
        q = pa * pa + pb * pb
        y[i] = ((na * pa + nb * pb) // q, (nb * pa - na * pb) // q)
    q = da * da + db * db
    x = [ZERO] * ncols
    if col < ncols:
        x[col] = ONE
    for pc, (ya, yb) in zip(pivots, y):
        if ya or yb:
            x[pc] = QQi(Fraction(ya * da + yb * db, q), Fraction(yb * da - ya * db, q))
    return x


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    if 0 in m.shape:
        return 0
    return _echelon(m)[0]


def det(m: Matrix) -> QQi:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("det of a non-square matrix")
    if m.rows == 0:
        return QQi(1)
    # clearing a row's denominators scales the determinant by it
    scales, rows = zip(*map(_clear_denominators, m.entries))
    rank_, _, sign, (la, lb) = _bareiss(list(rows), m.cols)
    if rank_ < m.rows:
        return QQi(0)
    return QQi(Fraction(la * sign), Fraction(lb * sign)) / QQi(math.prod(scales))


def kernel_basis(m: Matrix) -> Matrix:
    """Column basis of ker(m), in the column-index space of m."""
    if 0 in m.shape:
        return Matrix.identity(m.cols)
    rank_, pivots, rows, _, _ = _echelon(m)
    pivot_set = set(pivots)
    basis_cols = [_back_substitute(rows, pivots, m.cols, f)
                  for f in range(m.cols) if f not in pivot_set]
    if not basis_cols:
        return Matrix.zeros(m.cols, 0)
    return Matrix(list(zip(*basis_cols)), shape=(m.cols, len(basis_cols)))


def image_basis(m: Matrix) -> Matrix:
    """Column basis of the column space of m."""
    if 0 in m.shape:
        return Matrix.zeros(m.rows, 0)
    rank_, pivots, _, _, _ = _echelon(m)
    return m.take_cols(pivots)


def solve(m: Matrix, rhs: Matrix) -> Matrix:
    """One solution X of m @ X = rhs; raises InconsistentSystem."""
    if m.rows != rhs.rows:
        raise ValueError("solve: row counts differ")
    if m.cols == 0:
        if rhs.is_zero():
            return Matrix.zeros(0, rhs.cols)
        raise InconsistentSystem("empty matrix with nonzero right-hand side")
    aug = Matrix.hstack([m, rhs])
    rank_, pivots, rows, _, _ = _echelon(aug, pivot_limit=m.cols)
    for i in range(rank_, m.rows):
        if any(rows[i][c] != (0, 0) for c in range(m.cols, aug.cols)):
            raise InconsistentSystem("right-hand side outside the column space")
    sols = [_back_substitute(rows, pivots, m.cols, k) for k in range(m.cols, aug.cols)]
    return Matrix([[sols[k][i] for k in range(rhs.cols)] for i in range(m.cols)],
                  shape=(m.cols, rhs.cols))


def extend_basis(inner: Matrix, spanning: Matrix) -> Matrix:
    """Columns of `spanning` completing the columns of `inner` to a basis of
    span(inner) + span(spanning)."""
    if spanning.cols == 0:
        return Matrix.zeros(inner.rows, 0)
    joint = Matrix.hstack([inner, spanning])
    _, pivots, _, _, _ = _echelon(joint)
    picked = [p - inner.cols for p in pivots if p >= inner.cols]
    return spanning.take_cols(picked)


def induced_on_subquotient(ops, cycles: Matrix, boundaries: Matrix):
    """Matrices, in one basis of cycles/boundaries, of the maps induced by
    `ops`.

    `cycles` and `boundaries` are column bases. Requires op(cycles) inside
    cycles and op(boundaries) inside boundaries.
    Returns (list of matrices on the quotient, representative columns).
    """
    comp = extend_basis(boundaries, cycles)
    q = comp.cols
    if q == 0:
        return [Matrix.zeros(0, 0) for _ in ops], comp
    frame = Matrix.hstack([boundaries, comp])
    coords = solve(frame, Matrix.hstack([op @ comp for op in ops]))
    tail = coords.take_rows(range(boundaries.cols, boundaries.cols + q))
    return [tail.take_cols(range(j * q, (j + 1) * q)) for j in range(len(ops))], comp


class SparseEchelon:
    """Incremental exact row reduction for sparse vectors, each a dict from
    column to a nonzero Gaussian-integer pair (re, im).

    Used for large structured rank queries where dense elimination would be
    wasteful; `add` tells whether a vector was independent, and
    `rank_below` reads the rank of a leading block of columns. Rows are
    kept primitive (integer content divided out), each leading at its least
    column, and reduced by cross-multiplication, so no fraction is formed.
    """

    def __init__(self):
        self._rows = {}

    def rank_below(self, column: int) -> int:
        """Rank of the rows projected onto the columns before `column`: the
        number of rows that lead there, since their leads are distinct."""
        return sum(1 for lead in self._rows if lead < column)

    def _reduce(self, vec: dict) -> dict:
        while vec:
            g = math.gcd(*[a for pair in vec.values() for a in pair])
            if g > 1:
                vec = {c: (a // g, b // g) for c, (a, b) in vec.items()}
            lead = min(vec)
            row = self._rows.get(lead)
            if row is None:
                break
            # vec * p - row * x, where p and x are their entries at lead
            (pa, pb), (xa, xb) = row[lead], vec[lead]
            vec = {c: (ea * pa - eb * pb, ea * pb + eb * pa) for c, (ea, eb) in vec.items()}
            for c, (fa, fb) in row.items():
                ea, eb = vec.get(c, (0, 0))
                na, nb = ea - xa * fa + xb * fb, eb - xa * fb - xb * fa
                if na or nb:
                    vec[c] = (na, nb)
                else:
                    vec.pop(c, None)
        return vec

    def add(self, vec: dict) -> bool:
        residue = self._reduce(vec)
        if residue:
            self._rows[min(residue)] = residue
        return bool(residue)
