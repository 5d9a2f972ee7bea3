"""The row-filtration spectral sequence of a joined commuting pair.

The Koszul complex of the joined tuple A+B is K(A) tensor K(B), so it is
built once and filtered: a basis subset S of {1..n+m} in degree k sits at
p = |S meet {1..n}|, q = k - p. A page is its grid of dimensions: the
entry (p, q) of page r is cycles/boundaries, both nested subspaces of the
fixed chain space K_{p,q}. No differential is formed: E_{r+1} = H(E_r, d_r),
so d_r vanishes exactly when pages r and r + 1 have the same grid. Pages 0,
1 and 2 are checked against routes that use no filtration. This machinery
is exact, as every Matrix is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import koszul, linalg
from .koszul import CommutingTuple, HomologyProfile
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
    once per bicomplex and cached. The boundaries of entry (p,q) use only
    the rows of d in block K_{p,q} and only the columns the cycles are
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
    def profile(self) -> HomologyProfile:
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

    def entry(self, p: int, q: int, r: int) -> int:
        """dim E_r(p, q): the block-p part of the chains whose boundary drops
        r filtration steps, modulo the boundaries of chains from at most
        r - 1 steps above."""
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
        return linalg.extend_basis(boundaries, cycles).cols

    def page(self, r: int) -> SpectralPage:
        if r not in self._pages:
            self._pages[r] = SpectralPage(r, [[self.entry(p, q, r) for q in range(self.m + 1)]
                                              for p in range(self.n + 1)])
        return self._pages[r]


def build_bicomplex(a: CommutingTuple, b: CommutingTuple) -> Bicomplex:
    """Bicomplex of the joined tuple, rows driven by `a`, columns by `b`."""
    return Bicomplex(a, b)


@dataclass(frozen=True)
class SpectralPage:
    """Page r as its grid of dimensions: dims[p][q] = dim E_r(p, q)."""

    r: int
    dims: list

    @property
    def totals(self) -> HomologyProfile:
        """The page summed along p + q, one total per degree."""
        n, m = len(self.dims) - 1, len(self.dims[0]) - 1
        return HomologyProfile([sum(self.dims[p][k - p]
                                    for p in range(max(0, k - m), min(n, k) + 1))
                                for k in range(n + m + 1)])


def page_sequence(bc: Bicomplex, r_max: int = 2):
    """Pages E^0..E^R with R = max(r_max, n + 1, 2), so the last page is the
    limit page.

    Asserts on every run: no entry grows from one page to the next (each is
    a subquotient of the one before), the signed dimension sum is constant
    from page 2 on, the limit page adds up to the Koszul homology of the
    joined tuple, and the page-2 (non)triviality consequences hold.
    """
    r_stop = max(r_max, bc.n + 1, 2)
    pages = [bc.page(r) for r in range(r_stop + 1)]
    for cur, nxt in zip(pages, pages[1:]):
        if any(after > before for row, row_after in zip(cur.dims, nxt.dims)
               for before, after in zip(row, row_after)):
            raise AssertionError(f"an entry grows from page {cur.r} to page {nxt.r}")
    if len({page.totals.euler for page in pages[2:]}) != 1:
        raise AssertionError("signed dimension sum changed between pages")

    total = bc.profile.dims
    if pages[-1].totals.dims != total:
        raise AssertionError("limit page does not add up to the homology")
    for k, e2_k in enumerate(pages[2].totals.dims):
        if not e2_k and total[k]:
            raise AssertionError("vanishing page-2 antidiagonal with homology")
        if e2_k and not any(total[k:]):
            raise AssertionError("page-2 class with no homology at or above it")
    return pages


def stabilization_page(pages) -> int:
    """The least r from which every later page of E^0..E^R has the grid of
    page r: the first page from which every differential vanishes.

    The grids decide it by rank. E_{r+1} = H(E_r, d_r), so dim E_{r+1}(p,q)
    is dim E_r(p,q) minus the ranks of d_r out of (p,q) and into it, and
    d_r = 0 exactly when pages r and r + 1 have the same grid. The last
    page, R = max(r_max, n + 1, 2), has no differential: d_R would land at
    p - R < 0.
    """
    for i, page in enumerate(pages):
        if all(later.dims == page.dims for later in pages[i + 1:]):
            return page.r


def e2_page(bc: Bicomplex) -> SpectralPage:
    """The page-2 term, with pages 0, 1 and 2 each checked against
    `e2_dims_independent`."""
    for r, grid in enumerate(e2_dims_independent(bc)):
        if bc.page(r).dims != grid:
            raise AssertionError(
                f"page-{r} routes disagree: {bc.page(r).dims} vs {grid}")
    return bc.page(2)


def e2_dims_independent(bc: Bicomplex):
    """The grids of pages 0, 1 and 2 computed without the filtration: the
    page-2 pipeline, with the closed forms of pages 0 and 1 read off the
    same K(B). E_0(p,q) = K_p(A) tensor K_q(B) has dimension C(n,p) C(m,q) d;
    d_0 is the differential of K(B) on each of the C(n,p) copies, so
    dim E_1(p,q) = C(n,p) dim H_q(K(B)); and E_2(p,q) = H_p(A, H_q(K(B))),
    the Koszul homology of the action the first tuple induces on H_q(K(B))."""
    n, m = bc.n, bc.m
    complex_b = koszul.build_complex(bc.b)
    induced = [koszul.homology_action(complex_b, q, bc.a) for q in range(m + 1)]
    e2_cols = [koszul.build_complex(t).homology_dims() if t.dim else [0] * (n + 1)
               for t in induced]
    e0 = [[comb(n, p) * comb(m, q) * bc.d for q in range(m + 1)] for p in range(n + 1)]
    e1 = [[comb(n, p) * induced[q].dim for q in range(m + 1)] for p in range(n + 1)]
    e2 = [[dims[p] for dims in e2_cols] for p in range(n + 1)]
    return e0, e1, e2


def euler_via_e2(bc: Bicomplex) -> int:
    """The index read from the page-2 totals; checked against the Koszul
    index of the joined tuple (both vanish in finite dimension)."""
    value = e2_page(bc).totals.index
    if value != bc.profile.index:
        raise AssertionError("page-2 index disagrees with the Koszul index")
    return value
