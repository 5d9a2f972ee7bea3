"""The row-filtration spectral sequence of a joined commuting pair.

The Koszul complex of the joined tuple A+B is K(A) tensor K(B), so it is
built once and filtered: a basis subset S of {1..n+m} in degree k sits at
p = |S meet {1..n}|, q = k - p. Pages are subquotients of this
subset-filtered complex, presented as nested subspaces of the fixed chain
spaces K_{p,q}: an entry on page r is cycles/boundaries where both sit
inside K_{p,q}, and every differential is computed by lifting
representatives through the joined differential. This machinery is
exact, as every Matrix is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import koszul, linalg
from .koszul import CommutingTuple
from .linalg import Matrix


class Bicomplex:
    """The Koszul complex of the joined tuple, filtered by subset: K_{p,q}
    is spanned by the basis subsets with p generators from the first tuple
    and q from the second. Within a block the joined lexicographic order is
    the order of the pairs (I, J), so the vertical (p -> p-1) and horizontal
    (q -> q-1) parts of the joined differential are those of K(A) tensor
    K(B). The bicomplex laws (both squares vanish, the two parts
    anticommute) are the three filtration components of d*d = 0. Building
    the joined complex asserts that, except for n = m = 1: a pair forms no
    product, and the laws rest on `join`'s exact cross-pair `commutes`.

    Pages and the approximate-cycle subspaces they come from are computed
    once per bicomplex and cached. Products use only the target block's
    rows of d (K_{p,q} for the boundaries of entry (p,q), K_{p-r,q+r-1}
    for its page-r differential) and only the columns the cycles are
    supported on: picking rows commutes with the product, and the other
    columns meet zero coefficients, so no other entry is computed."""

    def __init__(self, tuple_a: CommutingTuple, tuple_b: CommutingTuple):
        # the union must commute; this re-verifies all cross pairs
        self.joined = tuple_a.join(tuple_b)
        self.a = tuple_a
        self.b = tuple_b
        self.n = tuple_a.n
        self.m = tuple_b.n
        self.d = tuple_a.dim
        n, m, d = self.n, self.m, self.d
        self.complex = koszul.build_complex(self.joined)
        # blocks[k][p]: indices of K_{p,k-p} in the joined degree-k basis
        self.blocks = []
        for basis in koszul.shape(n + m).bases:
            by_p = [[] for _ in range(n + 1)]
            for pos, subset in enumerate(basis):
                by_p[sum(i <= n for i in subset)].extend(range(pos * d, pos * d + d))
            self.blocks.append(by_p)
        self.dims = [[len(self.blocks[p + q][p]) for q in range(m + 1)]
                     for p in range(n + 1)]
        self._a_cache = {}
        self._pages = {}

    @cached_property
    def profile(self) -> koszul.HomologyProfile:
        """Homology of the joined tuple, the limit of the pages."""
        return koszul.homology(self.complex)

    def _indices(self, k: int, keep):
        """Degree-k basis indices of the blocks whose p passes keep, p ascending."""
        if not 0 <= k <= self.complex.length:
            return []
        return [i for p, block in enumerate(self.blocks[k]) if keep(p) for i in block]

    def approx_cycles(self, level: int, floor: int, k: int):
        """(cols, basis) for the chains of total degree k supported in
        filtration <= level whose boundary drops to <= floor. `cols` lists
        the degree-k indices of the blocks with p <= level, p ascending, so
        block `level` is its tail; `basis` is a column basis of those chains
        in the coordinates of `cols` only. Levels above n and floors below
        -1 change nothing, so they are clamped and share one cached kernel."""
        level, floor = min(level, self.n), max(floor, -1)
        key = (level, floor, k)
        if key not in self._a_cache:
            cols = self._indices(k, lambda p: p <= level)
            # past the top degree d(k) is 0 x 0 and cols is empty
            kill = self._indices(k - 1, lambda p: p > floor) if cols else []
            d = self.complex.d(k).take_cols(cols).take_rows(kill)
            self._a_cache[key] = cols, linalg.kernel_basis(d)
        return self._a_cache[key]

    def entry(self, p: int, q: int, r: int) -> PageEntry:
        k = p + q
        cols, basis = self.approx_cycles(p, p - r, k)
        tail = range(len(cols) - self.dims[p][q], len(cols))  # block p
        cycles = linalg.image_basis(basis.take_rows(tail))
        boundaries = Matrix.zeros(self.dims[p][q], 0)
        if r:
            cols_prev, prev = self.approx_cycles(p + r - 1, p, k + 1)
            if prev.cols:
                d = self.complex.d(k + 1).take_rows(self.blocks[k][p]).take_cols(cols_prev)
                boundaries = linalg.image_basis(d @ prev)
        reps = linalg.extend_basis(boundaries, cycles)
        return PageEntry(boundaries, reps)

    def page(self, r: int) -> SpectralPage:
        if r in self._pages:
            return self._pages[r]
        entries = {}
        for p in range(self.n + 1):
            for q in range(self.m + 1):
                entries[(p, q)] = self.entry(p, q, r)
        diffs = {}
        for (p, q), entry in entries.items():
            target = entries.get((p - r, q + r - 1))
            if entry.dim == 0 or target is None:
                continue
            diffs[(p, q)] = self._differential(p, q, r, entry, target)
        self._pages[r] = SpectralPage(r, entries, diffs)
        return self._pages[r]

    def _differential(self, p, q, r, entry: PageEntry, target: PageEntry) -> Matrix:
        """Lift every representative to an approximate cycle with one solve,
        apply the rows of d that land in the target block, and read the
        target coordinates off one frame solve."""
        if target.dim == 0:
            return Matrix.zeros(0, entry.dim)
        k = p + q
        cols, basis = self.approx_cycles(p, p - r, k)
        tail = range(len(cols) - self.dims[p][q], len(cols))  # block p
        lift = basis @ linalg.solve(basis.take_rows(tail), entry.reps)
        d = self.complex.d(k).take_rows(self.blocks[k - 1][p - r]).take_cols(cols)
        image = d @ lift
        frame = Matrix.hstack([target.boundaries, target.reps])
        coords = linalg.solve(frame, image)
        return coords.take_rows(range(target.boundaries.cols, frame.cols))


def build_bicomplex(a: CommutingTuple, b: CommutingTuple) -> Bicomplex:
    """Bicomplex of the joined tuple, rows driven by `a`, columns by `b`."""
    return Bicomplex(a, b)


@dataclass(frozen=True)
class PageEntry:
    """One (p,q) spot of a page: a subquotient of K_{p,q}, held as a column
    basis of its boundaries and the chosen representatives that complete
    it to a basis of its cycles."""

    boundaries: Matrix
    reps: Matrix

    @property
    def dim(self) -> int:
        return self.reps.cols


@dataclass(frozen=True)
class SpectralPage:
    r: int
    entries: dict
    differentials: dict  # (p,q) -> Matrix into (p-r, q+r-1)

    def dim(self, p: int, q: int) -> int:
        entry = self.entries.get((p, q))
        return entry.dim if entry else 0

    def dims_grid(self):
        ps = max(p for p, _ in self.entries) + 1
        qs = max(q for _, q in self.entries) + 1
        return [[self.dim(p, q) for q in range(qs)] for p in range(ps)]

    def euler_sum(self) -> int:
        return sum((-1) ** (p + q) * e.dim for (p, q), e in self.entries.items())

    def differentials_all_zero(self) -> bool:
        return all(mat.is_zero() for mat in self.differentials.values())


def page_sequence(bc: Bicomplex, r_max: int = 2):
    """Pages E^0..E^R with R at least the filtration length + 1, so the last
    page is the limit page.

    Asserts on every run: the signed dimension sum is constant from page 2
    on, the limit page adds up to the Koszul homology of the joined tuple,
    and the page-2 (non)triviality consequences hold.
    """
    r_stop = max(r_max, bc.n + 1, 2)
    pages = [bc.page(r) for r in range(r_stop + 1)]

    for r in range(len(pages) - 1):
        _check_page_step(pages[r], pages[r + 1])
    euler_ref = pages[2].euler_sum()
    for page in pages[2:]:
        if page.euler_sum() != euler_ref:
            raise AssertionError("signed dimension sum changed between pages")

    total_profile = bc.profile
    limit = pages[-1]
    for k in range(bc.n + bc.m + 1):
        esum = sum(limit.dim(p, k - p) for p in range(max(0, k - bc.m),
                                                      min(bc.n, k) + 1))
        if esum != total_profile.dims[k]:
            raise AssertionError("limit page does not add up to the homology")

    e2 = pages[2]
    for k in range(bc.n + bc.m + 1):
        spots = [(p, k - p) for p in range(max(0, k - bc.m), min(bc.n, k) + 1)]
        if all(e2.dim(p, q) == 0 for p, q in spots) and total_profile.dims[k] != 0:
            raise AssertionError("vanishing page-2 antidiagonal with homology")
    for (p, q), entry in e2.entries.items():
        if entry.dim and not any(total_profile.dims[k] for k in
                                 range(p + q, bc.n + bc.m + 1)):
            raise AssertionError("page-2 class with no homology at or above it")
    return pages


def stabilization_page(pages) -> int:
    """First page from which every later computed differential vanishes.

    Detection is structural (differentials are zero maps), never a
    dimension plateau.
    """
    r_stab = pages[-1].r
    for page in reversed(pages):
        if page.differentials_all_zero():
            r_stab = page.r
        else:
            break
    return r_stab


def _check_page_step(cur: SpectralPage, nxt: SpectralPage):
    r = cur.r
    ranks = {spot: linalg.rank(mat) for spot, mat in cur.differentials.items()}
    for (p, q), entry in cur.entries.items():
        expected = entry.dim - ranks.get((p, q), 0) - ranks.get((p + r, q - r + 1), 0)
        if nxt.dim(p, q) != expected:
            raise AssertionError(
                f"page {r + 1} entry ({p},{q}) is {nxt.dim(p, q)}, expected {expected}")


def e2_page(bc: Bicomplex) -> SpectralPage:
    """The page-2 term, cross-checked against the independent pipeline: row
    homology, induced action of the first tuple on it, Koszul homology of
    the induced tuple."""
    page = bc.page(2)
    indep = e2_dims_independent(bc)
    for p in range(bc.n + 1):
        for q in range(bc.m + 1):
            if page.dim(p, q) != indep[p][q]:
                raise AssertionError(
                    f"page-2 pipelines disagree at ({p},{q}): "
                    f"{page.dim(p, q)} vs {indep[p][q]}")
    return page


def e2_dims_independent(bc: Bicomplex):
    """dim H_p(A, H_q(B, V)) computed without the filtration machinery."""
    complex_b = koszul.build_complex(bc.b)
    out = [[0] * (bc.m + 1) for _ in range(bc.n + 1)]
    for q in range(bc.m + 1):
        induced = koszul.homology_action(complex_b, q, bc.a.operators)
        if not induced[0].rows:
            continue
        # the induced maps commute because A's operators do (checked when
        # bc.a was built) and inducing respects products; the same fact
        # backs spectrum.localized_homology
        dims = koszul.build_complex(CommutingTuple.proven(induced)).homology_dims()
        for p in range(bc.n + 1):
            out[p][q] = dims[p]
    return out


def euler_via_e2(bc: Bicomplex) -> int:
    """Signed page-2 dimension sum; checked against the Koszul index of the
    joined tuple (both vanish in finite dimension)."""
    page = e2_page(bc)
    value = -page.euler_sum()
    if value != bc.profile.index:
        raise AssertionError("page-2 index disagrees with the Koszul index")
    return value
