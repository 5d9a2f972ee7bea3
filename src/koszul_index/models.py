"""Polynomial model spaces over polydiscs and balls, and the index pipeline
built on them: zero classification, global and local indices, the regular
case dimension transforms, the reciprocity identity, and the nilpotent
tensor bookkeeping.

The coordinate tuple of a model space is never materialized: its index
function is -1 inside the domain and 0 outside, and every index computation
reduces to zero and multiplicity data of the polynomial symbol. Zeros on the
boundary are refused because the index function jumps there. A zero table
off Q(i) is the uncertified float fallback of `spectrum.joint_eigenvalues`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import koszul, spectrum
from .errors import ArityMismatch, NotAZero, NotNilpotent, ZeroOnBoundary
from .koszul import CommutingTuple
from .linalg import Matrix
from .multiplicity import GlobalMultiplicityTable, local_multiplicity, winding_number
from .poly import groebner, quotient_algebra
from .scalars import EXACT, QQi, as_scalar

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"
_BOUNDARY_MARGIN = Fraction(1e-6)  # around a boundary, where a float zero is refused


@dataclass(frozen=True)
class DomainDescriptor:
    """A polydisc or ball with exact rational center and radii."""

    kind: str                # "polydisc" | "ball"
    center: tuple            # QQi coordinates
    radii: tuple             # Fractions; one per coordinate, or one for a ball

    def __post_init__(self):
        if self.kind not in ("polydisc", "ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "center",
                           tuple(map(as_scalar, self.center)))
        object.__setattr__(self, "radii",
                           tuple(Fraction(r) for r in self.radii))
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        expected = len(self.center) if self.kind == "polydisc" else 1
        if len(self.radii) != expected:
            raise ValueError("radius count does not match the domain kind")

    @property
    def dimension(self) -> int:
        return len(self.center)

    @staticmethod
    def polydisc(center, radii) -> "DomainDescriptor":
        return DomainDescriptor("polydisc", tuple(center), tuple(radii))

    @staticmethod
    def ball(center, radius) -> "DomainDescriptor":
        return DomainDescriptor("ball", tuple(center), (radius,))

    @staticmethod
    def unit_disc() -> "DomainDescriptor":
        return DomainDescriptor.polydisc((QQi(0),), (Fraction(1),))

    def classify(self, point) -> str:
        """interior / boundary / exterior. Squared distances meet squared
        radii exactly, so no center, radius or point overflows; a float
        point is read as the exact value of its floats, and _BOUNDARY_MARGIN
        around the boundary is refused."""
        if len(point) != self.dimension:
            raise ArityMismatch("point dimension differs from the domain")
        margin = 0
        if not all(isinstance(p, QQi) for p in point):
            margin = _BOUNDARY_MARGIN
            point = [p if isinstance(p, QQi) else
                     QQi(Fraction(complex(p).real), Fraction(complex(p).imag))
                     for p in point]
        dists = [(p - c).abs2() for p, c in zip(point, self.center)]
        if self.kind == "ball":
            dists = [sum(dists)]
        if any(d > (r + margin) ** 2 for d, r in zip(dists, self.radii)):
            return EXTERIOR
        if all(r > margin and d < (r - margin) ** 2
               for d, r in zip(dists, self.radii)):
            return INTERIOR
        return BOUNDARY

    def coordinate_index(self, point) -> int:
        """Index of the shifted coordinate tuple of the model space: -1 on
        the interior, 0 on the exterior; boundary points are refused."""
        location = self.classify(point)
        if location == BOUNDARY:
            raise ZeroOnBoundary(
                "point sits on the domain boundary where the index jumps")
        return -1 if location == INTERIOR else 0


@dataclass(frozen=True)
class ModelTuple:
    """A model-space coordinate tuple restricted to a domain, composed with a
    square polynomial symbol."""

    domain: DomainDescriptor
    system: tuple

    def __post_init__(self):
        system = tuple(self.system)
        object.__setattr__(self, "system", system)
        if not system:
            raise ArityMismatch("empty symbol system")
        n = self.domain.dimension
        for g in system:
            if g.nvars != n:
                raise ArityMismatch("symbol arity differs from the domain dimension")
        if len(system) != n:
            raise ArityMismatch("symbol system must be square for index reports")


@dataclass(frozen=True)
class ZeroRecord:
    point: tuple
    multiplicity: int
    location: str
    coordinate_index: int


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class IndexReport:
    zeros: tuple            # ZeroRecord entries
    local_indices: tuple    # (point, local index) pairs
    global_index: int
    quotient_dim: int
    backend: str
    checks: tuple           # Check entries
    skipped: tuple = ()     # (check name, reason) pairs of checks not run

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def classify_zeros(mt: ModelTuple):
    """All zeros of the symbol with multiplicities, each tagged against the
    domain; zeros on the boundary raise ZeroOnBoundary. The table is exact
    unless a zero leaves Q(i), as `spectrum.joint_eigenvalues` decides."""
    algebra = quotient_algebra(groebner(list(mt.system)))
    # quotient_algebra has proved that the multiplication matrices commute
    entries, backend = spectrum.joint_eigenvalues(
        CommutingTuple.proven(algebra.mult_matrices), unit=algebra.unit)
    records = []
    with spectrum._raised_on(backend):
        table = GlobalMultiplicityTable(tuple(entries), algebra.dim, backend)
        for point, m in table.entries:
            location = mt.domain.classify(point)
            if location == BOUNDARY:
                raise ZeroOnBoundary(
                    "a symbol zero lies on the domain boundary; the model tuple "
                    "is not Fredholm there")
            records.append(ZeroRecord(point, m, location, -1 if location == INTERIOR else 0))
    return records, table


def local_index(mt: ModelTuple, point, n_max: int = 30) -> int:
    """Local index of the composed tuple at a common zero: minus the local
    degree inside the domain, zero outside, refused on the boundary."""
    point = tuple(map(as_scalar, point))
    for g in mt.system:
        if not g.evaluate(point).is_zero():
            raise NotAZero("the queried point is not a common zero")
    location = mt.domain.classify(point)
    if location == BOUNDARY:
        raise ZeroOnBoundary("zero on the domain boundary")
    if location == EXTERIOR:
        return 0
    return -local_multiplicity(list(mt.system), point, n_max).multiplicity


def global_index(mt: ModelTuple, n_max: int = 30) -> IndexReport:
    """The index of the composed model tuple with its cross-checks.

    The headline number comes from the zero table; interior contributions
    are re-derived through the truncation engine, all-interior scenarios are
    compared against the quotient dimension, and one-variable scenarios are
    compared against the numeric winding oracle.
    """
    records, table = classify_zeros(mt)
    with spectrum._raised_on(table.backend):
        locals_ = [(rec.point, rec.multiplicity * rec.coordinate_index) for rec in records]
        total = sum(contribution for _, contribution in locals_)
        checks = []
        skipped = []
        if table.backend == EXACT:
            recomputed = sum(local_index(mt, rec.point, n_max) for rec in records)
            checks.append(Check(
                "sum_of_local_indices", recomputed == total,
                f"truncation route {recomputed} vs eigenspace route {total}"))
        else:
            skipped.append(("sum_of_local_indices",
                            "the zeros leave Q(i) and the truncation route is exact-only"))
        interior_mult = sum(r.multiplicity for r in records if r.location == INTERIOR)
        checks.append(Check(
            "interior_zero_count", total == -interior_mult,
            f"interior multiplicity {interior_mult}"))
        if records and all(r.location == INTERIOR for r in records):
            checks.append(Check(
                "all_interior_quotient_dimension", total == -table.quotient_dim,
                f"quotient dimension {table.quotient_dim}"))
        if mt.domain.dimension == 1:
            try:
                w = winding_number(mt.system[0], complex(mt.domain.center[0]),
                                   float(mt.domain.radii[0]))
            except OverflowError:
                skipped.append(("univariate_winding_oracle",
                                "the sampling circle or the symbol leaves float range"))
            else:
                rounded = round(w)
                checks.append(Check(
                    "univariate_winding_oracle",
                    abs(w - rounded) < 0.1 and total == -rounded,
                    f"winding {w:.6f}"))
        report = IndexReport(tuple(records), tuple(locals_), total,
                             table.quotient_dim, table.backend, tuple(checks),
                             tuple(skipped))
        if not report.all_passed:
            raise AssertionError(f"index cross-checks failed: {report.checks}")
        return report


# -- regular case transforms ---------------------------------------------------


def _r_matrix(k: int, rows: int, cols: int):
    """The lifting transform with entries C(k, i-j)."""
    return [[comb(k, i - j) if 0 <= i - j <= k else 0 for j in range(cols)]
            for i in range(rows)]


def _l_matrix(k: int, rows: int, cols: int):
    """The left inverse of the lifting transform:
    entries (-1)^(i-j) C(k+i-j-1, i-j)."""
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = i - j
            row.append((-1) ** s * comb(k + s - 1, s) if s >= 0 else 0)
        out.append(row)
    return out


def int_matmul(a, b):
    """The product of two matrices given as lists of rows of Python ints."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def lr_identity_holds(n: int, m: int) -> bool:
    """L(n) R(n) is the identity on the small side."""
    size = n + m + 1
    product = int_matmul(_l_matrix(n, m + 1, size), _r_matrix(n, size, m + 1))
    return product == [[1 if i == j else 0 for j in range(m + 1)] for i in range(m + 1)]


def binomial_identity_holds(n: int, m: int, max_shift: int = 8) -> bool:
    """sum_k (-1)^k C(n+k-1, k) C(m, s-k) == C(m-n, s) for 0 <= s <= max_shift."""
    for s in range(max_shift + 1):
        lhs = sum((-1) ** k * comb(n + k - 1, k) * comb(m, s - k)
                  for k in range(max(0, s - m), s + 1))
        rhs = comb(m - n, s) if 0 <= s <= m - n else 0
        if lhs != rhs:
            return False
    return True


def regular_case_identities(dims_of_coordinates, m: int):
    """Predicted homology dimensions of the composed system at a regular zero
    from the dimensions of the shifted coordinate tuple.

    With as many symbol components as coordinates the transform is the
    identity; more components convolve against the binomials C(m-n, p).
    """
    dims = list(dims_of_coordinates)
    n = len(dims) - 1
    if m < n:
        raise ArityMismatch("fewer symbol components than coordinates")
    return [sum(comb(m - n, p) * dims[q - p]
                for p in range(m - n + 1) if 0 <= q - p <= n)
            for q in range(m + 1)]


# -- reciprocity ---------------------------------------------------------------


@dataclass(frozen=True)
class ReciprocityReport:
    lhs: int
    rhs: int
    equal: bool
    zeros: tuple  # (point, multiplicity, location in A, location in B)
    backend: str  # float when the zeros leave Q(i)


def reciprocity_check(domain_a: DomainDescriptor, domain_b: DomainDescriptor,
                      system) -> ReciprocityReport:
    """Both sides of the two-domain local index pairing.

    One side pairs the index function of the first domain against local
    indices over the second; the other swaps the roles. Zeros on either
    boundary are refused.
    """
    system = list(system)
    mt_a = ModelTuple(domain_a, tuple(system))
    mt_b = ModelTuple(domain_b, tuple(system))
    records_a, table = classify_zeros(mt_a)
    with spectrum._raised_on(table.backend):
        zeros = []
        lhs = 0
        rhs = 0
        for rec in records_a:
            loc_b = domain_b.classify(rec.point)
            if loc_b == BOUNDARY:
                raise ZeroOnBoundary("a symbol zero lies on the second boundary")
            ind_mu_a = rec.coordinate_index              # Ind(mu - A)
            ind_mu_b = -1 if loc_b == INTERIOR else 0    # Ind(mu - B)
            local_a = rec.multiplicity * ind_mu_a        # Ind_mu over domain A
            local_b = rec.multiplicity * ind_mu_b        # Ind_mu over domain B
            lhs += ind_mu_a * local_b
            rhs += local_a * ind_mu_b
            zeros.append((rec.point, rec.multiplicity, rec.location, loc_b))
        return ReciprocityReport(lhs, rhs, lhs == rhs, tuple(zeros), table.backend)


# -- nilpotent tensor bookkeeping ------------------------------------------------


@dataclass(frozen=True)
class TensorIdentityReport:
    dims_product: tuple
    dims_base: tuple
    aux_dim: int
    checks: tuple

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)


def _tensor_sums(base: CommutingTuple, nilpotent: CommutingTuple):
    """The operators A_i (x) I + I (x) C_i, placed with no product: A_i at
    step len(C_i) from each diagonal offset, then C_i on each diagonal block."""
    d, e = base.dim, nilpotent.dim
    return [Matrix.place(d * e, d * e, [(p, p, e, 1, a) for p in range(e)]
                         + [(i * e, i * e, 1, 1, c) for i in range(d)])
            for a, c in zip(base.operators, nilpotent.operators)]


def tensor_index_identity(base: CommutingTuple,
                          nilpotent: CommutingTuple) -> TensorIdentityReport:
    """Homology bookkeeping for the sum tuple on a tensor product with a
    nilpotent tuple, both exact.

    The index transformation degenerates to 0 = 0 on finite-dimensional
    spaces and is asserted as such; the recursion over an invariant flag
    bounds each homology dimension by the base dimension times the auxiliary
    dimension, with equality when the nilpotent tuple vanishes.
    """
    if base.n != nilpotent.n:
        raise ArityMismatch("tuple lengths differ")
    nil_dim = nilpotent.dim
    for op in nilpotent.operators:
        if not spectrum._power_at_least(op, nil_dim).is_zero():
            raise NotNilpotent("auxiliary tuple is not nilpotent")
    product = CommutingTuple(_tensor_sums(base, nilpotent))
    dims_product = koszul.homology(koszul.build_complex(product)).dims
    dims_base = koszul.homology(koszul.build_complex(base)).dims
    index_product = sum((-1) ** (k + 1) * d for k, d in enumerate(dims_product))
    index_base = sum((-1) ** (k + 1) * d for k, d in enumerate(dims_base))
    checks = [
        Check("index_transformation",
              index_product == index_base * nil_dim and index_product == 0,
              f"{index_product} vs {index_base} * {nil_dim}"),
        Check("recursion_bound",
              all(dp <= nil_dim * db for dp, db in zip(dims_product, dims_base)),
              f"{dims_product} within {nil_dim} * {dims_base}"),
    ]
    if all(op.is_zero() for op in nilpotent.operators):
        checks.append(Check(
            "split_case_equality",
            list(dims_product) == [nil_dim * d for d in dims_base],
            "zero auxiliary tuple splits the homology"))
    return TensorIdentityReport(tuple(dims_product), tuple(dims_base),
                                nil_dim, tuple(checks))
