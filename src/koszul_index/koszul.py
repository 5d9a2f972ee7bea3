"""Koszul complexes of commuting tuples on finite-dimensional spaces.

The chain space in degree k is V tensored with the k-th exterior power of
C^n; the differential contracts each exterior slot against the matching
operator. `shape(n)` fixes the basis and signs once per n, which pins every
differential matrix bit-exactly. Every complex is exact: the index is an
integer and every operator is a Matrix of Gaussian rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from . import linalg
from .errors import CommutatorError
from .linalg import Matrix


@dataclass(frozen=True)
class KoszulShape:
    """The exterior-basis bookkeeping of the Koszul complexes on n operators."""

    bases: tuple  # bases[k]: the size-k subsets of {1..n}, lexicographic
    faces: tuple  # faces[k][c]: (operator index, row block, sign) per e_i in bases[k][c]
    cone: tuple  # cone[k]: (block of shape(n+1).bases[k], sign) per K_k block, then K_(k-1)


@cache
def shape(n: int) -> KoszulShape:
    """The one holder of the exterior-basis convention: contracting e_i out of
    e_S, with i in position j of S, gives (-1)^(j-1) e_(S - i). The cone of b
    over K(A) maps S in K_k to S in K(A, b), and S in K_(k-1) to S + {n+1}
    with the sign (-1)^(k-1) of moving e_(n+1) last; a bijection, checked."""
    wide = [list(combinations(range(1, n + 2), k)) for k in range(n + 2)]
    wide_pos = [{s: i for i, s in enumerate(level)} for level in wide]
    bases = tuple(tuple(s for s in level if n + 1 not in s) for level in wide[:n + 1])
    pos = [{s: i for i, s in enumerate(level)} for level in bases]
    faces = tuple(tuple(tuple((i - 1, pos[k - 1][s[:j] + s[j + 1:]], -1 if j % 2 else 1)
                              for j, i in enumerate(s)) for s in level)
                  for k, level in enumerate(bases))
    cone = []
    for k in range(n + 2):
        images = [(wide_pos[k][s], 1) for s in bases[k]] if k <= n else []
        if k:
            sign = 1 if k % 2 else -1
            images += [(wide_pos[k][s + (n + 1,)], sign) for s in bases[k - 1]]
        if sorted(block for block, _ in images) != list(range(len(wide[k]))):
            raise AssertionError(f"the degree-{k} cone images are no bijection")
        cone.append(tuple(images))
    return KoszulShape(bases, faces, tuple(cone))


class CommutingTuple:
    """n square matrices on a common space, verified commuting at build."""

    __slots__ = ("operators", "n", "dim")

    def __init__(self, operators):
        operators = tuple(operators)
        n = len(operators)
        self._setup(operators, [(a, b) for a in range(n) for b in range(a + 1, n)])

    @classmethod
    def _concat(cls, first, second):
        """The tuple first + second, where each part is already known to
        commute within itself: only the cross pairs are checked."""
        operators = tuple(first) + tuple(second)
        k = len(first)
        self = cls.__new__(cls)
        self._setup(operators, [(a, b) for a in range(k)
                                for b in range(k, len(operators))])
        return self

    @classmethod
    def proven(cls, operators):
        """A tuple whose operators are already proved to commute: no pair is
        checked, so the caller says where the proof lives."""
        return cls._concat(operators, ())

    def _setup(self, operators, pairs):
        if not operators:
            raise ValueError("empty tuple of operators")
        d = operators[0].rows
        for op in operators:
            if op.rows != op.cols or op.rows != d:
                raise ValueError("operators must be square of a common size")
        for a, b in pairs:
            if not linalg.commutes(operators[a], operators[b]):
                raise CommutatorError(
                    f"operators {a + 1} and {b + 1} do not commute")
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "n", len(operators))
        object.__setattr__(self, "dim", d)

    def __setattr__(self, name, value):
        raise AttributeError("CommutingTuple values are immutable")

    def shift(self, point) -> "CommutingTuple":
        """The tuple A - lambda; it commutes because A does, so no pair is
        re-checked."""
        if len(point) != self.n:
            raise ValueError("point dimension differs from tuple length")
        return CommutingTuple.proven(
            [op.shift(lam) for op, lam in zip(self.operators, point)])

    def extend(self, extra: Matrix) -> "CommutingTuple":
        """The (n+1)-tuple with `extra` appended; `extra` is checked against
        every operator."""
        return CommutingTuple._concat(self.operators, (extra,))

    def join(self, other: "CommutingTuple") -> "CommutingTuple":
        """Concatenation of two tuples on the same space; only the cross
        pairs are checked."""
        return CommutingTuple._concat(self.operators, other.operators)

    def __repr__(self):
        return f"CommutingTuple(n={self.n}, dim={self.dim})"


class ChainComplex:
    """A finite exact chain complex with spaces indexed 0..length and
    differentials d_k: C_k -> C_(k-1); shapes and d_k * d_(k+1) = 0 are checked at build."""

    def __init__(self, dims, diffs):
        self.dims = list(dims)
        self.length = len(self.dims) - 1
        self.diffs = dict(diffs)  # k -> Matrix for 1 <= k <= length
        for k in range(1, self.length + 1):
            dk = self.d(k)
            if dk.shape != (self.dims[k - 1], self.dims[k]):
                raise ValueError(f"differential {k} has the wrong shape")
        self._check_square_zero()

    def _check_square_zero(self):
        for k in range(1, self.length):
            if not (self.d(k) @ self.d(k + 1)).is_zero():
                raise AssertionError(f"d_{k} after d_{k + 1} is nonzero")

    def d(self, k: int) -> Matrix:
        if k in self.diffs:
            return self.diffs[k]
        rows = self.dims[k - 1] if 1 <= k <= self.length else 0
        cols = self.dims[k] if 0 <= k <= self.length else 0
        return Matrix.zeros(rows, cols)

    def cycles(self, k: int) -> Matrix:
        """Column basis of the cycles in degree k."""
        if k == 0:
            return Matrix.identity(self.dims[0])
        return linalg.kernel_basis(self.d(k))

    def boundaries(self, k: int) -> Matrix:
        """Column basis of the boundaries in degree k."""
        if k >= self.length:
            return Matrix.zeros(self.dims[k], 0)
        return linalg.image_basis(self.d(k + 1))

    def homology_dims(self):
        ranks = [linalg.rank(self.d(k)) for k in range(1, self.length + 1)]
        ranks = [0] + ranks + [0]  # pad so ranks[k] = rank d_k
        return [self.dims[k] - ranks[k] - ranks[k + 1] for k in range(self.length + 1)]


class KoszulComplex(ChainComplex):
    """The Koszul complex of a commuting tuple, laid out by `shape(n)`. Two
    operators form no d_1 * d_2 = [A_1 A_2][-A_2; A_1] = -[A_1, A_2]: `commutes` in
    `CommutingTuple._setup`, or the caller of `CommutingTuple.proven`, proved it zero."""

    def __init__(self, tuple_: CommutingTuple, dims, diffs):
        self.tuple = tuple_
        self.n = tuple_.n
        super().__init__(dims, diffs)

    def _check_square_zero(self):
        if self.n != 2:
            super()._check_square_zero()


@dataclass(frozen=True)
class HomologyProfile:
    """Homology dimensions with the Euler characteristic and Fredholm index;
    the index is minus the Euler characteristic."""

    dims: tuple
    euler: int
    index: int

    @staticmethod
    def from_dims(dims) -> "HomologyProfile":
        dims = tuple(dims)
        euler = sum((-1) ** k * d for k, d in enumerate(dims))
        return HomologyProfile(dims, euler, -euler)


def build_complex(t: CommutingTuple) -> KoszulComplex:
    """The Koszul complex of t, each operator placed at the faces of
    `shape(n)`; d squared = 0 is checked at build (see `KoszulComplex`)."""
    d, sh = t.dim, shape(t.n)
    dims = [d * len(basis) for basis in sh.bases]
    diffs = {k: Matrix.place(dims[k - 1], dims[k], [
        (ri * d, ci * d, 1, sign, t.operators[i])
        for ci, faces in enumerate(sh.faces[k]) for i, ri, sign in faces])
        for k in range(1, t.n + 1)}
    return KoszulComplex(t, dims, diffs)


def homology(c: ChainComplex) -> HomologyProfile:
    """Homology dimensions of a complex, from one rank per differential.

    The end groups of a Koszul complex need no second ranking: d_1 is the
    row of operators A_1 ... A_n (every removal sign at position 1 is +1)
    and d_n stacks the signed operators, so H_0 is the cokernel of
    hstack(A) and H_n the joint kernel by construction. The comparison
    with an independent kernel and rank lives in the tests
    (`test_end_groups_match_kernel_and_cokernel`, acceptance criterion 1).
    """
    return HomologyProfile.from_dims(c.homology_dims())


def homology_action(c: KoszulComplex, k: int, operators):
    """The matrices, in one basis of H_k(c), of the maps induced on it by
    `operators`, each of which commutes with the tuple of c: each acts on
    C_k as I (x) op, op placed on the diagonal blocks, one per basis subset."""
    d, count = c.tuple.dim, len(shape(c.n).bases[k])
    return linalg.induced_on_subquotient(
        [Matrix.place(d * count, d * count, [(i * d, i * d, 1, 1, op) for i in range(count)])
         for op in operators], c.cycles(k), c.boundaries(k))[0]


def mapping_cone(c: KoszulComplex, b: Matrix) -> ChainComplex:
    """The cone over the chain self-map induced by b on the complex of A.

    Requires b to commute with every operator of the tuple. The cone in
    degree k is K_k + K_(k-1) with differential [[d, b], [0, -d]].
    """
    if not all(linalg.commutes(op, b) for op in c.tuple.operators):
        raise CommutatorError("cone operator does not commute with the tuple")
    cone_dims = [hi + lo for hi, lo in zip(c.dims + [0], [0] + c.dims)]
    return ChainComplex(cone_dims, _cone(c, b))


def _cone(c: KoszulComplex, b: Matrix) -> dict:
    """The differentials {k: matrix} of the cone of b over c, for a b known
    to commute with the tuple, placed with no product: d_k's top rows hold
    c.d(k), then b on each diagonal block of K_(k-1), and its lower rows -c.d(k-1)
    behind a zero pad; the blocks of K_(n+1) and K_(-1) are empty."""
    d, dims = c.tuple.dim, [0] + c.dims + [0]
    diffs = {}
    for k in range(1, c.n + 2):
        top, mid, low = dims[k + 1], dims[k], dims[k - 1]  # K_k, K_(k-1), K_(k-2)
        diffs[k] = Matrix.place(mid + low, top + mid, [
            (0, 0, 1, 1, c.d(k)), *[(i * d, top + i * d, 1, 1, b) for i in range(mid // d)],
            (mid, top, 1, -1, c.d(k - 1))])
    return diffs


def verify_cone_isomorphism(c: KoszulComplex, b: Matrix) -> bool:
    """Check that the signed permutation `shape(n).cone`, bijective by
    construction, is a chain map from the cone of b over the Koszul complex c
    of A onto K(A + b, V). Two independent placements hold the same operator
    entries up to sign: full.d(k), placed by `build_complex` from shape(n+1)
    and so permuted and signed, must equal the cone's d_k placed by `_cone`,
    by equality with no arithmetic. The cone's own d*d = 0 then needs no
    product: it is the conjugate of full.d*full.d, checked when the complex
    of the extended tuple is built (over one exact operator, by `extend`
    checking b)."""
    t, d = c.tuple, c.tuple.dim
    full = build_complex(t.extend(b))  # extend checks b against the tuple
    cone = _cone(c, b)
    alphas = [[(block * d + v, s) for block, s in images for v in range(d)]
              for images in shape(t.n).cone]  # (row, sign) of each cone column
    for k in range(1, t.n + 2):
        entries = full.d(k).entries
        pulled = tuple(tuple(entries[r][col] if rs == cs else -entries[r][col]
                             for col, cs in alphas[k]) for r, rs in alphas[k - 1])
        if pulled != cone[k].entries:
            return False
    return True
