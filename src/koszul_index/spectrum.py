"""Joint spectra of commuting tuples, simultaneous generalized-eigenspace
decompositions, polynomial functional calculus, and localized homology.

The exact decomposition is deterministic: it splits the space by one
operator at a time. On each piece an operator either has one eigenvalue,
which a nilpotency test proves without a characteristic polynomial, or
its characteristic polynomial is split over the Gaussian rationals
(square-free decomposition, then numerically guided rational
reconstruction, then exact verification) and the piece is cut into the
kernels of (A - mu)^mult. When some eigenvalue leaves the Gaussian
rationals, IrrationalSpectrum is raised and the caller may retry with the
float backend. numpy is imported only where float code runs: the numeric
root guesses and the float decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import koszul, linalg
from .errors import ArityMismatch, ClusteringAmbiguity, IrrationalSpectrum
from .koszul import CommutingTuple
from .linalg import Matrix, Subspace
from .scalars import EXACT, FLOAT, QQi, TolerancePolicy, DEFAULT_TOL

DEFAULT_SEED = 0x5EED
_DENOMINATOR_LADDER = (1, 100, 10**4, 10**6, 10**9)


# -- exact univariate polynomial helpers (coefficients low to high) -----------


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _degree(p):
    return len(p) - 1


def _monic(p):
    inv = QQi(1) / p[-1]
    return [inv * c for c in p]


def _deriv(p):
    return _trim([QQi(k) * p[k] for k in range(1, len(p))])


def _divmod(a, b):
    a = list(a)
    quot = [QQi(0)] * max(0, len(a) - len(b) + 1)
    inv = QQi(1) / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        factor = a[k + len(b) - 1] * inv
        if factor:
            quot[k] = factor
            for j, bc in enumerate(b):
                a[k + j] = a[k + j] - factor * bc
    return _trim(quot), _trim(a)


def _gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a) if a else a


def _eval(p, x: QQi) -> QQi:
    acc = QQi(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _trace(m: Matrix) -> QQi:
    acc = QQi(0)
    for i in range(m.rows):
        acc = acc + m[i, i]
    return acc


def charpoly(m: Matrix):
    """Characteristic polynomial of an exact matrix, low-to-high coefficients,
    by the Faddeev-LeVerrier recursion."""
    d = m.rows
    coeffs = [QQi(0)] * (d + 1)
    coeffs[d] = QQi(1)
    mk = m
    ident = Matrix.identity(d, EXACT)
    for k in range(1, d + 1):
        ck = -_trace(mk) / QQi(k)
        coeffs[d - k] = ck
        if k < d:
            mk = m @ (mk + ident.scale(ck))
    return coeffs


def _squarefree(p):
    """Yun decomposition [(factor, multiplicity)] of a monic polynomial."""
    p = _monic(list(p))
    dp = _deriv(p)
    g = _gcd(p, dp)
    if _degree(g) == 0:
        return [(p, 1)]
    c = _divmod(p, g)[0]
    d = [x - y for x, y in _pad(_divmod(dp, g)[0], _deriv(c))]
    out = []
    i = 1
    while _degree(c) > 0:
        y = _gcd(c, _trim(list(d)))
        if _degree(y) > 0:
            out.append((y, i))
        c = _divmod(c, y)[0]
        d = [x - y_ for x, y_ in _pad(_divmod(_trim(list(d)), y)[0], _deriv(c))]
        i += 1
    return out


def _pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [QQi(0)] * (n - len(a))
    b = list(b) + [QQi(0)] * (n - len(b))
    return zip(a, b)


def _reconstruct_root(z: complex, factor, radius: float) -> QQi | None:
    """The first exact root of `factor` on the denominator ladder that lies
    within `radius` of the numeric root z, so it is z's root and not a
    neighbour's."""
    for bound in _DENOMINATOR_LADDER:
        cand = QQi(Fraction(z.real).limit_denominator(bound),
                   Fraction(z.imag).limit_denominator(bound))
        if abs(complex(cand) - z) < radius and _eval(factor, cand).is_zero():
            return cand
    return None


def exact_eigenvalues(m: Matrix):
    """Eigenvalues of an exact matrix certified in the Gaussian rationals,
    as (value, algebraic multiplicity) pairs; raises IrrationalSpectrum."""
    if m.rows == 0:
        return []
    import numpy as np

    p = charpoly(m)
    out = {}
    for factor, mult in _squarefree(p):
        numeric = [complex(z) for z in np.roots([complex(c) for c in reversed(factor)])]
        found = set()
        for i, z in enumerate(numeric):
            # half the gap to the nearest other root of this square-free factor
            radius = min((abs(z - w) / 2 for j, w in enumerate(numeric) if j != i),
                         default=float("inf"))
            cand = _reconstruct_root(z, factor, radius)
            if cand is None:
                raise IrrationalSpectrum(
                    "characteristic polynomial does not split over the "
                    "Gaussian rationals")
            found.add(cand)
        if len(found) != _degree(factor):
            raise IrrationalSpectrum(
                "root reconstruction collapsed distinct eigenvalues")
        for root in found:
            out[root] = out.get(root, 0) + mult
    if sum(out.values()) != m.rows:
        raise IrrationalSpectrum("eigenvalue multiplicities do not add up")
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


@dataclass(frozen=True)
class SpectralDecomposition:
    """Joint generalized eigenspaces V(lambda) with their base tuple.

    Invariants (established by the decomposition routine): the eigenspaces
    are invariant under every operator, each shifted operator is nilpotent
    on its eigenspace, and the dimensions add up to the whole space.
    """

    tuple: CommutingTuple
    components: tuple  # ((lambda_1..lambda_n), Subspace) pairs

    def eigenvalues(self):
        return [point for point, _ in self.components]

    def multiplicities(self):
        return [(point, space.dim) for point, space in self.components]

    def total_dim(self) -> int:
        return sum(space.dim for _, space in self.components)


def _restriction(op: Matrix, basis: Matrix) -> Matrix:
    """Matrix of op on span(basis), solving basis @ X = op @ basis."""
    return linalg.solve(basis, op @ basis)


def _power_at_least(m: Matrix, k: int) -> Matrix:
    """m^e for the least power of two e >= k by repeated squaring, stopping
    early at zero. When k bounds the size of m's Jordan blocks at 0, this
    has the kernel of m^k, and it is zero exactly when m^k is."""
    e = 1
    while e < k and not m.is_zero():
        m, e = m @ m, 2 * e
    return m


def _decomposition_exact(t: CommutingTuple) -> SpectralDecomposition:
    """Split the space by one operator at a time. Each piece carries its
    basis and the operators not yet used, restricted to it. An operator
    with one eigenvalue on a piece keeps it whole; otherwise the piece is
    cut into the generalized eigenspaces of that operator. A piece on which
    every operator has one eigenvalue is a component."""
    pieces = [((), Matrix.identity(t.dim, EXACT), t.operators)]
    for _ in range(t.n):
        refined = []
        for point, basis, (rep, *rest) in pieces:
            k = rep.rows
            ident = Matrix.identity(k, EXACT)
            lam = _trace(rep) / QQi(k)
            if _power_at_least(rep - ident.scale(lam), k).is_zero():
                refined.append((point + (lam,), basis, rest))
                continue
            for mu, mult in exact_eigenvalues(rep):
                kernel = linalg.kernel_basis(
                    _power_at_least(rep - ident.scale(mu), mult)).basis
                if kernel.cols != mult:
                    raise AssertionError("generalized eigenspace dimension "
                                         "differs from the multiplicity")
                refined.append((point + (mu,), basis @ kernel,
                                [_restriction(op, kernel) for op in rest]))
        pieces = refined
    components = sorted(((point, Subspace(t.dim, basis, check=False))
                         for point, basis, _ in pieces),
                        key=lambda cs: tuple(x.sort_key() for x in cs[0]))
    return SpectralDecomposition(t, tuple(components))


def _decomposition_float(t: CommutingTuple, tol: TolerancePolicy):
    import numpy as np

    d = t.dim
    ops = [op.to_numpy() for op in t.operators]
    rng = np.random.default_rng(DEFAULT_SEED)
    comb = sum(float(c) * op for c, op in zip(rng.uniform(0.5, 1.5, len(ops)), ops))
    values = sorted(np.linalg.eigvals(comb), key=lambda z: (z.real, z.imag))
    clusters = []
    for z in values:
        if clusters and abs(z - clusters[-1][-1]) <= tol.cluster:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    for cluster in clusters:
        if abs(cluster[-1] - cluster[0]) > 2 * tol.cluster:
            raise ClusteringAmbiguity("eigenvalue clusters overlap within tolerance")
    components = []
    for cluster in clusters:
        mult = len(cluster)
        mu = complex(np.mean(cluster))
        power = np.linalg.matrix_power(comb - mu * np.eye(d), min(mult, d))
        u, s, vh = np.linalg.svd(power)
        cut = tol.rel * max(s[0], 1.0)
        null = vh[[i for i in range(len(s)) if s[i] <= cut]].conjugate().T
        if null.shape[1] != mult:
            raise ClusteringAmbiguity(
                "generalized eigenspace dimension does not match the cluster")
        point = []
        for op in ops:
            if np.linalg.norm(op @ null - null @ (null.conj().T @ op @ null)) > \
                    np.sqrt(tol.cluster) * max(1.0, np.linalg.norm(op)):
                raise ClusteringAmbiguity("cluster space is not invariant")
            rep = null.conj().T @ op @ null
            lam = complex(np.trace(rep)) / mult
            nil = np.linalg.matrix_power(rep - lam * np.eye(mult), mult)
            if np.linalg.norm(nil) > np.sqrt(tol.cluster) * max(
                    1.0, np.linalg.norm(rep)) ** mult:
                raise ClusteringAmbiguity("shifted operator is not nilpotent "
                                          "on the cluster space")
            point.append(lam)
        components.append((tuple(point),
                           Subspace(d, Matrix.from_numpy(null), check=False)))
    components.sort(key=lambda cs: tuple((z.real, z.imag) for z in cs[0]))
    return SpectralDecomposition(t, tuple(components))


def spectral_decomposition(t: CommutingTuple,
                           tol: TolerancePolicy | None = None) -> SpectralDecomposition:
    """Decompose the space into joint generalized eigenspaces."""
    if t.dim == 0:
        return SpectralDecomposition(t, ())
    if t.backend == FLOAT:
        return _decomposition_float(t, tol or DEFAULT_TOL)
    result = _decomposition_exact(t)
    _verify_decomposition(result)
    return result


def _verify_decomposition(dec: SpectralDecomposition):
    t = dec.tuple
    if dec.total_dim() != t.dim:
        raise AssertionError("eigenspace dimensions do not add up")
    if dec.components:
        joint = Matrix.hstack([space.basis for _, space in dec.components])
        if linalg.rank(joint) != t.dim:
            raise AssertionError("eigenspaces do not span the whole space")


@dataclass(frozen=True)
class JointSpectrumReport:
    """Equivalence data for one candidate point: membership in the Taylor
    spectrum, in the eigenvalue support, and nontriviality of the top
    homology, plus the full joint-eigenvalue table."""

    point: tuple
    in_taylor_spectrum: bool
    in_eigenvalue_support: bool
    top_homology_nonzero: bool
    eigenvalues: tuple  # (point, multiplicity) pairs

    @property
    def agree(self) -> bool:
        return self.in_taylor_spectrum == self.in_eigenvalue_support \
            == self.top_homology_nonzero


def generalized_eigenspace(t: CommutingTuple, point,
                           tol: TolerancePolicy | None = None) -> Subspace:
    """V(point) = the joint kernel of the d-th powers of the shifted tuple."""
    shifted = t.shift(point)
    powers = [op.power(t.dim) for op in shifted.operators]
    return linalg.kernel_basis(Matrix.vstack(powers), tol)


def joint_spectrum_equivalences(t: CommutingTuple, point,
                                tol: TolerancePolicy | None = None) -> JointSpectrumReport:
    """Evaluate the three equivalent membership predicates at a point."""
    point = tuple(point)
    if len(point) != t.n:
        raise ArityMismatch("point dimension differs from tuple length")
    shifted = t.shift(point)
    profile = koszul.homology(koszul.build_complex(shifted), tol)
    vlam = generalized_eigenspace(t, point, tol)
    top = linalg.kernel_basis(Matrix.vstack(shifted.operators), tol)
    decomposition = spectral_decomposition(t, tol)
    return JointSpectrumReport(
        point=point,
        in_taylor_spectrum=any(profile.dims),
        in_eigenvalue_support=vlam.dim > 0,
        top_homology_nonzero=top.dim > 0,
        eigenvalues=tuple(decomposition.multiplicities()),
    )


def apply_polynomial_map(t: CommutingTuple, polys) -> CommutingTuple:
    """The tuple (g_1(A), ..., g_m(A)) by exact substitution; the result is
    checked to commute with the source tuple."""
    polys = list(polys)
    for g in polys:
        if g.nvars != t.n:
            raise ArityMismatch("polynomial arity differs from tuple length")
    ops = [g.eval_matrices(t.operators) for g in polys]
    result = CommutingTuple(ops)
    for new in ops:
        for old in t.operators:
            if not linalg.commutes(new, old):
                raise AssertionError("polynomial image fails to commute with source")
    return result


def localized_homology(t: CommutingTuple, polys, point,
                       tol: TolerancePolicy | None = None):
    """Dimensions, per degree, of the generalized eigenspace at `point` of
    the induced coordinate action on the homology of the mapped tuple.

    Summing these dimensions over all common zeros recovers the full
    homology dimensions of the mapped tuple.
    """
    point = [p if isinstance(p, QQi) else QQi(p) for p in point]
    if len(point) != t.n:
        raise ArityMismatch("point dimension differs from tuple length")
    mapped = apply_polynomial_map(t, polys)
    complex_ = koszul.build_complex(mapped, tol)
    # the induced matrices commute because the operators of t do
    return [generalized_eigenspace(CommutingTuple.proven(
                koszul.homology_action(complex_, k, t.operators, tol)), point, tol).dim
            for k in range(mapped.n + 1)]
