import random
from dataclasses import dataclass
from math import comb

import pytest

from koszul_index import koszul, linalg, spectral
from koszul_index.cli import Scenario, run_scenario
from koszul_index.errors import BackendMismatch, CommutatorError
from koszul_index.koszul import CommutingTuple, build_complex, homology
from koszul_index.linalg import Matrix
from koszul_index.scalars import QQi
from koszul_index.spectral import (Bicomplex, SpectralPage, build_bicomplex,
                                   e2_dims_independent, e2_page, euler_via_e2,
                                   page_sequence, stabilization_page)
from koszul_index.suites import _matrix_json
from mutations import patch_source
from random_tuples import random_bicomplex_pair

ZERO1 = Matrix.zeros(1, 1)
JORDAN = Matrix([[0, 1], [0, 0]])


def test_zero_pair_block_dims():
    bc = build_bicomplex(CommutingTuple([ZERO1]), CommutingTuple([ZERO1]))
    assert bc.dims == [[1, 1], [1, 1]]
    assert e2_page(bc).dims == [[1, 1], [1, 1]]


def test_identity_pair_total_homology_zero():
    one = Matrix.identity(1)
    bc = build_bicomplex(CommutingTuple([one]), CommutingTuple([one]))
    assert homology(build_complex(bc.joined)).dims == (0, 0, 0)
    assert e2_page(bc).dims == [[0, 0], [0, 0]]


def test_invertible_second_tuple_clears_page_two():
    bc = build_bicomplex(CommutingTuple([Matrix.zeros(2, 2)]),
                         CommutingTuple([Matrix.identity(2)]))
    assert e2_page(bc).dims == [[0, 0], [0, 0]]


def test_bicomplex_laws_assert_on_build():
    # laws hold for every commuting pair; building is the assertion
    rng = random.Random(2)
    for _ in range(10):
        a, b = random_bicomplex_pair(rng, rng.choice([1, 2]), 1, rng.randint(1, 4))
        build_bicomplex(a, b)


def test_totalization_matches_joined_complex():
    # the subset filtration of the joined complex is the bicomplex: block
    # (p, q) has the tensor-product size, and d keeps p or lowers it by one
    rng = random.Random(8)
    for _ in range(8):
        a, b = random_bicomplex_pair(rng, 2, rng.choice([1, 2]), rng.randint(1, 4))
        bc = build_bicomplex(a, b)
        for p in range(bc.n + 1):
            for q in range(bc.m + 1):
                assert len(bc.blocks[p + q][p]) == bc.d * comb(bc.n, p) * comb(bc.m, q)
        for k in range(1, bc.n + bc.m + 1):
            dk = bc.complex.d(k)
            for p, cols in enumerate(bc.blocks[k]):
                for lower, rows in enumerate(bc.blocks[k - 1]):
                    if lower not in (p, p - 1):
                        assert dk.take_cols(cols).take_rows(rows).is_zero()


def test_spectral_scenario_builds_joined_complex_once(monkeypatch):
    rng = random.Random(11)
    a, b = random_bicomplex_pair(rng, 2, 1, 3)
    calls = {"build": 0, "homology": 0, "page_two_entries": 0}
    build, homology_, entry = koszul.build_complex, koszul.homology, Bicomplex.entry

    def counting_build(t, *args, **kwargs):
        calls["build"] += t.n == 3
        return build(t, *args, **kwargs)

    def counting_homology(c, *args, **kwargs):
        calls["homology"] += getattr(c, "n", None) == 3
        return homology_(c, *args, **kwargs)

    def counting_entry(self, p, q, r):
        calls["page_two_entries"] += r == 2
        return entry(self, p, q, r)

    monkeypatch.setattr(koszul, "build_complex", counting_build)
    monkeypatch.setattr(koszul, "homology", counting_homology)
    monkeypatch.setattr(Bicomplex, "entry", counting_entry)
    scenario = Scenario("ss", "SPECTRAL_SEQUENCE", {
        "operators_a": [_matrix_json(op) for op in a.operators],
        "operators_b": [_matrix_json(op) for op in b.operators],
        "r_max": 3})
    report = run_scenario(scenario)
    assert report["error"] is None and report["pass"]
    # page 2 has (n + 1)(m + 1) = 6 entries, each computed once
    assert calls == {"build": 1, "homology": 1, "page_two_entries": 6}


def test_induced_action_builds_one_frame_per_subquotient(monkeypatch):
    from koszul_index import linalg

    bc = build_bicomplex(*random_bicomplex_pair(random.Random(1), 2, 1, 3))
    calls = []
    extend = linalg.extend_basis
    monkeypatch.setattr(linalg, "extend_basis",
                        lambda *args: calls.append(1) or extend(*args))
    e2_dims_independent(bc)
    # one per homology degree of the second tuple, not one per operator
    assert len(calls) == 2


def test_jordan_example_pipelines_agree():
    bc = build_bicomplex(CommutingTuple([JORDAN]), CommutingTuple([Matrix.zeros(2, 2)]))
    page = e2_page(bc)  # raises when the routes to pages 0, 1 or 2 disagree
    assert page.dims == [[1, 1], [1, 1]]
    assert e2_dims_independent(bc) == ([[2, 2], [2, 2]], [[2, 2], [2, 2]], [[1, 1], [1, 1]])


def test_page_sequence_converges_to_homology():
    rng = random.Random(17)
    for _ in range(10):
        a, b = random_bicomplex_pair(rng, rng.choice([1, 2]), 1, rng.randint(1, 4))
        bc = build_bicomplex(a, b)
        pages = page_sequence(bc, 2)
        limit = pages[-1]
        profile = homology(build_complex(bc.joined))
        for k in range(bc.n + bc.m + 1):
            acc = sum(limit.dims[p][k - p] for p in range(bc.n + 1)
                      if 0 <= k - p <= bc.m)
            assert acc == profile.dims[k]


def test_one_column_stabilizes_at_page_two():
    # with a single row pair (n = 1) no differential survives past page 2
    rng = random.Random(29)
    for _ in range(5):
        a, b = random_bicomplex_pair(rng, 1, 1, rng.randint(1, 4))
        pages = page_sequence(build_bicomplex(a, b), 2)
        assert stabilization_page(pages) <= 2
        for page in pages[2:]:
            assert page.dims == pages[2].dims


def test_signed_sums_constant_from_page_two():
    rng = random.Random(37)
    for _ in range(8):
        a, b = random_bicomplex_pair(rng, 2, 1, rng.randint(1, 4))
        pages = page_sequence(build_bicomplex(a, b), 4)
        sums = {page.totals.euler for page in pages[2:]}
        assert len(sums) == 1


def test_euler_via_e2_vanishes():
    rng = random.Random(43)
    for _ in range(8):
        a, b = random_bicomplex_pair(rng, rng.choice([1, 2]), 1, rng.randint(1, 4))
        bc = build_bicomplex(a, b)
        assert euler_via_e2(bc) == 0


def _entry(i, j, value):
    rows = [[0] * 6 for _ in range(6)]
    rows[i][j] = value
    return rows


def _engineered_d2_bicomplex():
    # engineered so a page-2 class must be lifted through two filtration
    # steps: basis (v, u1, u2, w, s1, s2) with A1: v->s1, u2->w; A2: v->s2;
    # B: u1->-s1, u2->-s2. Then d2[v] = [w] is nonzero.
    a1 = Matrix([[1 if (i, j) in {(4, 0), (3, 2)} else 0 for j in range(6)]
                 for i in range(6)])
    a2 = Matrix(_entry(5, 0, 1))
    b1 = Matrix([[-1 if (i, j) in {(4, 1), (5, 2)} else 0 for j in range(6)]
                 for i in range(6)])
    return build_bicomplex(CommutingTuple([a1, a2]), CommutingTuple([b1]))


def test_nonzero_page_two_differential():
    bc = _engineered_d2_bicomplex()
    pages = page_sequence(bc, 3)
    e2, e3 = pages[2], pages[3]
    source, target = _reference_entry(bc, 2, 0, 2), _reference_entry(bc, 0, 1, 2)
    assert not _reference_differential(bc, 2, 0, 2, source, target).is_zero()
    assert e2.dims == [[3, 2], [6, 5], [3, 3]]
    assert e3.dims == [[3, 1], [6, 5], [2, 3]]
    assert stabilization_page(pages) == 3
    profile = homology(build_complex(bc.joined))
    assert profile.dims == (3, 7, 7, 3)


def test_float_backend_rejected():
    # a float operator is refused when its Matrix is built
    with pytest.raises(BackendMismatch):
        f = Matrix([[0.0]])
        build_bicomplex(CommutingTuple([f]), CommutingTuple([f]))


def test_union_must_commute():
    with pytest.raises(CommutatorError):
        build_bicomplex(CommutingTuple([JORDAN]),
                        CommutingTuple([Matrix([[1, 0], [1, 1]])]))


# -- the page engine against its per-representative reference ------------------


@dataclass(frozen=True)
class _RefEntry:
    """One (p,q) spot of a reference page: a column basis of its boundaries
    and the representatives that complete it to a basis of its cycles."""

    boundaries: Matrix
    reps: Matrix

    @property
    def dim(self) -> int:
        return self.reps.cols


def _padded_cycles(bc, level, floor, k):
    """The engine's approximate cycles padded out to total degree-k
    coordinates, zero off the columns they are supported on."""
    cols, basis = bc.approx_cycles(level, floor, k)
    total = bc.complex.dims[k] if 0 <= k <= bc.complex.length else 0
    rows = [[QQi(0)] * basis.cols for _ in range(total)]
    for local, col in enumerate(cols):
        rows[col] = list(basis.entries[local])
    return Matrix(rows, shape=(total, basis.cols))


def _reference_entry(bc, p, q, r):
    """A page entry with boundaries from the full product d(k+1) @ a_prev,
    projected onto K_{p,q} afterwards."""
    k = p + q
    a_now = _padded_cycles(bc, p, p - r, k)
    cycles = linalg.image_basis(a_now.take_rows(bc.blocks[k][p]))
    boundaries = Matrix.zeros(bc.dims[p][q], 0)
    if r:
        a_prev = _padded_cycles(bc, p + r - 1, p, k + 1)
        if a_prev.cols and k + 1 <= bc.complex.length:
            img = bc.complex.d(k + 1) @ a_prev
            boundaries = linalg.image_basis(img.take_rows(bc.blocks[k][p]))
    reps = linalg.extend_basis(boundaries, cycles)
    return _RefEntry(boundaries, reps)


def _reference_differential(bc, p, q, r, entry, target):
    """The page-r differential one representative at a time: solve, lift,
    apply the full d(k), project, and solve against the target frame."""
    k = p + q
    a_now = _padded_cycles(bc, p, p - r, k)
    proj = a_now.take_rows(bc.blocks[k][p])
    cols = []
    for ci in range(entry.reps.cols):
        coeff = linalg.solve(proj, entry.reps.take_cols([ci]))
        image = bc.complex.d(k) @ (a_now @ coeff)
        if target.dim == 0:
            cols.append([])
            continue
        frame = Matrix.hstack([target.boundaries, target.reps])
        coords = linalg.solve(frame, image.take_rows(bc.blocks[k - 1][p - r]))
        cols.append([coords[target.boundaries.cols + i, 0] for i in range(target.dim)])
    return Matrix([[col[i] for col in cols] for i in range(target.dim)],
                  shape=(target.dim, entry.reps.cols))


def _reference_pages(bc, r_stop):
    """(grid, whether some differential is nonzero) of reference pages
    0..r_stop, each differential lifted one representative at a time."""
    out = []
    for r in range(r_stop + 1):
        ref = {(p, q): _reference_entry(bc, p, q, r)
               for p in range(bc.n + 1) for q in range(bc.m + 1)}
        nonzero = False
        for (p, q), entry in ref.items():
            target = ref.get((p - r, q + r - 1))
            if entry.dim and target is not None:
                nonzero |= not _reference_differential(bc, p, q, r, entry, target).is_zero()
        out.append(([[ref[(p, q)].dim for q in range(bc.m + 1)] for p in range(bc.n + 1)],
                    nonzero))
    return out


def _reference_stabilization(reference):
    """The first page from which every reference differential vanishes."""
    return max((r + 1 for r, (_, nonzero) in enumerate(reference) if nonzero), default=0)


def test_approx_cycles_live_in_their_own_blocks_columns():
    rng = random.Random(29)
    bicomplexes = [build_bicomplex(*random_bicomplex_pair(rng, n, m, rng.randint(1, 3)))
                   for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]]
    for bc in bicomplexes + [_engineered_d2_bicomplex()]:
        top = bc.n + bc.m
        for k in range(-1, top + 2):
            for level in range(-1, bc.n + 2):
                for floor in range(-2, bc.n + 1):
                    cols, basis = bc.approx_cycles(level, floor, k)
                    blocks = bc.blocks[k][:min(level, bc.n) + 1] if 0 <= k <= top else []
                    assert cols == [i for block in blocks for i in block]
                    assert basis.rows == len(cols)
                    # the boundary of every basis chain drops to <= floor
                    kill = [i for block in bc.blocks[k - 1][max(floor + 1, 0):]
                            for i in block] if 1 <= k <= top else []
                    image = bc.complex.d(k) @ _padded_cycles(bc, level, floor, k)
                    assert image.take_rows(kill).is_zero()


def _reference_bicomplexes():
    rng = random.Random(53)
    for _ in range(40):
        yield build_bicomplex(*random_bicomplex_pair(
            rng, rng.choice([1, 2]), rng.choice([1, 2]), rng.randint(1, 5)))
    yield _engineered_d2_bicomplex()


def test_page_engine_matches_the_per_representative_reference():
    nonzero = 0
    for bc in _reference_bicomplexes():
        pages = [bc.page(r) for r in range(max(3, bc.n + 1) + 1)]
        reference = _reference_pages(bc, pages[-1].r)
        assert [page.dims for page in pages] == [grid for grid, _ in reference]
        assert stabilization_page(pages) == _reference_stabilization(reference)
        nonzero += sum(flag for _, flag in reference)
    assert nonzero  # the comparison covers nonzero differentials


def _jordan_zero_bicomplex():
    # d_0 = 0 and d_1 != 0: pages 0 and 1 agree, page 2 is smaller
    return build_bicomplex(CommutingTuple([JORDAN]), CommutingTuple([Matrix.zeros(2, 2)]))


def _spectral_oracle_failures():
    """The oracles that reject the installed page engine: "checks" when
    page_sequence or e2_page raises, "stabilization" when
    stabilization_page is not the first page from which every reference
    differential vanishes."""
    rng = random.Random(71)
    bicomplexes = [_jordan_zero_bicomplex(), _engineered_d2_bicomplex()]
    bicomplexes += [build_bicomplex(*random_bicomplex_pair(rng, n, m, 3))
                    for n, m in ((2, 1), (1, 2), (2, 2))]
    failures = set()
    for bc in bicomplexes:
        try:
            pages = page_sequence(bc, 3)
            e2_page(bc)
        except AssertionError:
            failures.add("checks")
            continue
        reference = _reference_pages(bc, pages[-1].r)
        if spectral.stabilization_page(pages) != _reference_stabilization(reference):
            failures.add("stabilization")
    return failures


@pytest.mark.parametrize("path, old, new, rejected_by", [
    (None, None, None, set()),
    ("stabilization_page", "pages[i + 1:]", "pages[i + 1:i + 2]", {"stabilization"}),
    ("e2_dims_independent", "comb(n, p) * induced", "comb(m, q) * induced", {"checks"}),
    ("Bicomplex.approx_cycles", "lambda p: p > floor", "lambda p: p >= floor", {"checks"}),
], ids=["engine", "stabilized_at_first_equal_pair", "e1_with_c_m_q", "floor_off_by_one"])
def test_independent_oracles_reject_page_mutations(monkeypatch, path, old, new, rejected_by):
    if path:
        patch_source(monkeypatch, spectral, path, old, new)
    assert _spectral_oracle_failures() == rejected_by


@pytest.mark.parametrize("r", [0, 1, 2])
def test_e2_page_checks_pages_zero_one_and_two(r):
    bc = _jordan_zero_bicomplex()
    grid = [list(row) for row in bc.page(r).dims]
    grid[0][0] -= 1
    bc._pages[r] = SpectralPage(r, grid)
    with pytest.raises(AssertionError, match=f"page-{r} routes disagree"):
        e2_page(bc)


def test_an_entry_growing_between_pages_is_refused():
    bc = _jordan_zero_bicomplex()
    bc._pages[3] = SpectralPage(3, [[2, 1], [1, 1]])  # page 2 is [[1, 1], [1, 1]]
    with pytest.raises(AssertionError, match="grows from page 2 to page 3"):
        page_sequence(bc, 3)


def test_pages_past_the_limit_reuse_cached_kernels(monkeypatch):
    # every floor below -1 kills all rows, so page n + 2 needs no kernel
    # that page n + 1 did not already compute
    rng = random.Random(17)
    bicomplexes = [build_bicomplex(*random_bicomplex_pair(rng, 2, rng.choice([1, 2]), 3))
                   for _ in range(4)] + [_engineered_d2_bicomplex()]
    kernels = []
    kernel_basis = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda *args: kernels.append(1) or kernel_basis(*args))
    for bc in bicomplexes:
        limit = page_sequence(bc, bc.n + 1)[-1]
        kernels.clear()
        assert bc.page(bc.n + 2).dims == limit.dims
        assert kernels == []
