"""Joint spectra of commuting tuples, simultaneous generalized-eigenspace
decompositions, polynomial functional calculus, and localized homology.

Exact joint eigenvalues come from a random Gaussian-rational separating
combination: its characteristic polynomial is split over the Gaussian
rationals (square-free decomposition, then numerically guided rational
reconstruction, then exact verification). When splitting or the nilpotency
verification fails, IrrationalSpectrum is raised and the caller may retry
with the float backend. numpy is imported only where float code runs: the
numeric root guesses and the float decomposition.
"""

from __future__ import annotations

import random
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


def charpoly(m: Matrix):
    """Characteristic polynomial of an exact matrix, low-to-high coefficients,
    by the Faddeev-LeVerrier recursion."""
    d = m.rows
    coeffs = [QQi(0)] * (d + 1)
    coeffs[d] = QQi(1)
    mk = m
    ident = Matrix.identity(d, EXACT)
    for k in range(1, d + 1):
        trace = QQi(0)
        for i in range(d):
            trace = trace + mk[i, i]
        ck = -trace / QQi(k)
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


def _reconstruct_root(z: complex, factor) -> QQi | None:
    for bound in _DENOMINATOR_LADDER:
        cand = QQi(Fraction(z.real).limit_denominator(bound),
                   Fraction(z.imag).limit_denominator(bound))
        if _eval(factor, cand).is_zero():
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
        numeric = np.roots([complex(c) for c in reversed(factor)])
        found = set()
        for z in numeric:
            cand = _reconstruct_root(complex(z), factor)
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

    Invariants (verified at construction time by the decomposition routine):
    the eigenspaces are invariant under every operator, each shifted operator
    is nilpotent on its eigenspace, and the dimensions add up to the whole
    space.
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


def _try_decomposition_exact(t: CommutingTuple, coeffs):
    d = t.dim
    comb = Matrix.zeros(d, d, EXACT)
    for c, op in zip(coeffs, t.operators):
        comb = comb + op.scale(c)
    eigen = exact_eigenvalues(comb)
    ident = Matrix.identity(d, EXACT)
    components = []
    total = 0
    for mu, mult in eigen:
        power = (comb - ident.scale(mu)).power(min(mult, d))
        space = linalg.kernel_basis(power)
        if space.dim != mult:
            return None
        point = []
        for op in t.operators:
            rep = _restriction(op, space.basis)
            trace = QQi(0)
            for i in range(rep.rows):
                trace = trace + rep[i, i]
            lam = trace / QQi(mult)
            nil = (rep - Matrix.identity(mult, EXACT).scale(lam)).power(mult)
            if not nil.is_zero():
                return None
            point.append(lam)
        components.append((tuple(point), space))
        total += mult
    if total != d:
        return None
    components.sort(key=lambda cs: tuple(x.sort_key() for x in cs[0]))
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


def spectral_decomposition(t: CommutingTuple, tol: TolerancePolicy | None = None,
                           rng: random.Random | None = None,
                           max_tries: int = 8) -> SpectralDecomposition:
    """Decompose the space into joint generalized eigenspaces.

    The random coefficients of the separating combination come from the
    explicit generator `rng` (a fixed default seed keeps runs deterministic).
    """
    if t.dim == 0:
        return SpectralDecomposition(t, ())
    if t.backend == FLOAT:
        return _decomposition_float(t, tol or DEFAULT_TOL)
    rng = rng or random.Random(DEFAULT_SEED)
    last_error = None
    for attempt in range(max_tries):
        if attempt == 0:
            coeffs = [QQi(1)] + [QQi(0)] * (t.n - 1)
        else:
            coeffs = [QQi(rng.randint(-9, 9), 0) for _ in range(t.n)]
            if all(not c for c in coeffs):
                coeffs[0] = QQi(1)
        try:
            result = _try_decomposition_exact(t, coeffs)
        except IrrationalSpectrum as err:
            last_error = err
            result = None
        if result is not None:
            _verify_decomposition(result)
            return result
    raise last_error or IrrationalSpectrum(
        "no separating Gaussian-rational combination found")


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
                                tol: TolerancePolicy | None = None,
                                rng: random.Random | None = None) -> JointSpectrumReport:
    """Evaluate the three equivalent membership predicates at a point."""
    point = tuple(point)
    if len(point) != t.n:
        raise ArityMismatch("point dimension differs from tuple length")
    shifted = t.shift(point)
    profile = koszul.homology(koszul.build_complex(shifted), tol)
    vlam = generalized_eigenspace(t, point, tol)
    top = linalg.kernel_basis(Matrix.vstack(shifted.operators), tol)
    decomposition = spectral_decomposition(t, tol, rng)
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
    m = mapped.n
    from math import comb as _comb
    dims = []
    for k in range(m + 1):
        cycles = complex_.cycles(k, tol)
        boundaries = complex_.boundaries(k, tol)
        hdim = cycles.dim - boundaries.dim
        if hdim == 0:
            dims.append(0)
            continue
        blocks = _comb(m, k)
        induced = []
        for op in t.operators:
            big = Matrix.identity(blocks, t.backend).kron(op)
            mat, _ = linalg.induced_on_subquotient(big, cycles, boundaries, tol)
            induced.append(mat)
        stacked = Matrix.vstack([
            (ind - Matrix.identity(hdim, t.backend).scale(lam)).power(hdim)
            for ind, lam in zip(induced, point)])
        dims.append(linalg.kernel_basis(stacked, tol).dim)
    return dims
