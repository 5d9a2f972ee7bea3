"""Joint spectra of commuting tuples, simultaneous generalized-eigenspace
decompositions, polynomial functional calculus, and localized homology.

Every tuple is exact. Its joint eigenvalues are split by one route: split
the space by one operator at a time into generalized eigenspaces, each a
kernel chain that forms no matrix power. An operator keeps a piece whole
when its shift by the mean eigenvalue is proved nilpotent there: by
matrix-vector products from the unit's component in the piece when the
tuple multiplies on C[z]/I, else by a matrix power. Eigenvalues are the
roots in Q(i) of the characteristic polynomial, formed with no division by
Berkowitz's recurrence on Gaussian-integer numerators, found modulo a prime,
Newton-lifted, read back and verified exactly, with no float (Loos, SIAM J.
Comput. 12, 1983); IrrationalSpectrum is raised when they leave Q(i).
`joint_eigenvalues` alone decides exact or float: on IrrationalSpectrum it
runs `float_spectrum`, the same route on complex128 copies of the operators
(Matrix.to_numpy) with eigenvalues clustered within _CLUSTER, kernels read
from one SVD with the fixed cut _KERNEL_CUT and each later operator
restricted to an eigenspace by least squares. What it reports is not
certified. numpy is imported only by the float split.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import koszul, linalg
from .errors import (ArityMismatch, ClusteringAmbiguity, InconsistentSystem,
                     IrrationalSpectrum, KoszulIndexError, ResourceLimit)
from .koszul import CommutingTuple
from .linalg import Matrix
from .poly import _gauss_eval, _gauss_mul, _gauss_ratio
from .scalars import EXACT, FLOAT, QQi, as_scalar

_PRIME_FLOOR = 4096  # every prime tried is above it and above deg f
_PRIME_TRIES = 8  # primes whose readings fail before IrrationalSpectrum
_CLUSTER = 1e-6  # the link radius of float eigenvalues (_float_eigenvalues)
_INDEPENDENCE_FLOOR = 1e-6  # of float eigenspaces (float_spectrum)
_KERNEL_CUT = 1e-9  # relative: singular values up to 1e-9 * max(sigma_max, 1) are zero


def charpoly(m: Matrix):
    """det(x - m), low to high, with no division: on m cleared once to
    Gaussian-integer pairs over the least common denominator L of its
    entries, Berkowitz's recurrence (Inf. Process. Lett. 18(3), 1984)
    multiplies the polynomial of each leading block B, bordered by R, C and
    b, by the Toeplitz matrix of (1, -b, -R C, -R B C, ..., -R B^(k-1) C):
    det(x - L m), whose coefficient a_k of x^k stands for a_k / L^(d - k)."""
    d = m.rows
    lcm, flat = linalg._clear_denominators([x for row in m.entries for x in row])
    # each row's nonzero (column, entry), as multiplication tables are sparse
    rows = [[(j, x) for j, x in enumerate(flat[i * d:i * d + d]) if x != (0, 0)] for i in range(d)]
    poly = [(1, 0)]  # high to low
    for k in range(d):
        b = flat[k * d + k]
        t, col = [(1, 0), (-b[0], -b[1])], flat[k:k * d:d]
        for _ in range(k):
            re, im = _dot(rows[k], col)
            t.append((-re, -im))
            col = [_dot(rows[i], col) for i in range(k)]
        poly = [_dot(enumerate(t[i::-1]), poly) for i in range(k + 2)]
    return [QQi(Fraction(x, lcm ** j), Fraction(y, lcm ** j))
            for j, (x, y) in enumerate(poly)][::-1]


def _dot(xs, ys):
    """Sum of x ys[j] over the (j, x) of xs, by increasing j, while j < len(ys)."""
    re = im = 0
    for j, (p, q) in xs:
        if j >= len(ys):
            break
        u, v = ys[j]
        re += p * u - q * v
        im += p * v + q * u
    return re, im


# -- univariate polynomials over Z[i]: (re, im) int pairs, low to high -------


def _norm(x):
    return x[0] * x[0] + x[1] * x[1]


def _reduce(x, y):
    """x - q y for the Gaussian integer q nearest x / y: x's residue of least norm."""
    n = _norm(y)
    a, b = _gauss_mul(((2 * (x[0] * y[0] + x[1] * y[1]) + n) // (2 * n),
                       (2 * (x[1] * y[0] - x[0] * y[1]) + n) // (2 * n)), y)
    return x[0] - a, x[1] - b


def _gauss_gcd(x, y):
    """A gcd in Z[i]: Euclid with rounded quotients at least halves the norm each step."""
    while y != (0, 0):
        x, y = y, _reduce(x, y)
    return x


# -- univariate polynomials over F_p: ints in [0, p), low to high, no zero lead


def _pmod(a, b, p):
    """a mod b over F_p."""
    r, inv, top = list(a), pow(b[-1], p - 2, p), len(b) - 1
    for k in range(len(a) - top - 1, -1, -1):
        c = r[k + top] * inv % p
        for j in range(top):
            r[k + j] -= c * b[j]
    r = [c % p for c in r[:top]]
    while r and not r[-1]:
        r.pop()
    return r


def _pmulmod(a, b, g, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _pmod(prod, g, p)


def _ppow(a, e, g, p):
    """a^e mod g over F_p, by squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pmulmod(out, out, g, p)
        if bit == "1":
            out = _pmulmod(out, a, g, p)
    return out


def _horner(h, x, q):
    acc = 0
    for c in reversed(h):
        acc = (acc * x + c) % q
    return acc


def _split(g, p, d=0):
    """The distinct roots in F_p of g over F_p, p odd. As x^p - x is
    x (x^((p-1)/2) - 1) (x^((p-1)/2) + 1), with h = (x + d)^((p-1)/2) mod g,
    gcd(h - 1, g) and gcd(h + 1, g) hold once each the roots r with r + d a
    nonzero square and a non-square, and -d may be one; each gcd is split
    again at d + 1 (Cantor-Zassenhaus)."""
    if len(g) <= 2:
        return [-g[0] * pow(g[1], p - 2, p) % p] if len(g) == 2 else []
    h = _ppow([d, 1], (p - 1) // 2, g, p) or [0]
    roots = [] if _horner(g, -d, p) else [-d % p]
    for c in (1, -1):
        a, b = [(h[0] - c) % p] + h[1:], g
        while b:  # Euclid: a becomes gcd(h - c, g)
            a, b = b, _pmod(a, b, p)
        roots += _split(a, p, d + 1)
    return roots


# -- roots in Q(i) by p-adic lifting -----------------------------------------


@functools.cache
def _prime_after(q):
    """(p, iota, pi) for the least prime p = 1 (mod 4) above q, iota^2 = -1
    (mod p) and pi = gcd(p, iota - i) in Z[i]."""
    p = q + 1 + (-q) % 4
    while any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
        p += 4
    g = next(g for g in itertools.count(2) if pow(g, (p - 1) // 2, p) == p - 1)
    iota = pow(g, (p - 1) // 4, p)
    return p, iota, _gauss_gcd((p, 0), (iota, -1))


def _lift(h, r, p, k):
    """The root modulo p^k of h in Z[x] that is its simple root r modulo p:
    Newton's iteration, h'(r)^-1 lifted beside it, doubling the precision."""
    dh = [j * c for j, c in enumerate(h)][1:]
    inv, e = pow(_horner(dh, r, p), p - 2, p), 1
    while e < k:
        e = min(2 * e, k)
        q = p ** e
        r = (r - _horner(h, r, q) * inv) % q
        inv = inv * (2 - _horner(dh, r, q) * inv) % q
    return r


def _read(derivs, roots, p, iota, pi):
    """{root: multiplicity} of f = derivs[0], derivs[j] = f^(j), from its
    roots rho modulo pi of multiplicity m, or None when one fails its check:
    rho, a simple root of f^(m-1), is lifted to modulo p^k, and so is iota,
    so that Z[i] / pi^k is Z / p^k with i -> iota. A root r in Q(i) has
    lc r in Z[i] within Cauchy's bound b >= |lc| + max |c_j|; as
    p^k > 4 b^2, lc r is lc rho's residue of least norm modulo pi^k, kept
    when f^(j)(r) = 0 for every j < m. Roots that merge modulo pi fail."""
    f, lc = derivs[0], derivs[0][-1]
    b = math.isqrt(_norm(lc)) + math.isqrt(max(map(_norm, f[:-1]))) + 2
    k = next(k for k in itertools.count(1) if p ** k > 4 * b * b)
    q, iota = p ** k, _lift([1, 0, 1], iota, p, k)
    pk, lcq, out = functools.reduce(_gauss_mul, [pi] * k), (lc[0] + lc[1] * iota) % q, {}
    for rho, mult in roots:
        r = _lift([(x + y * iota) % q for x, y in derivs[mult - 1]], rho, p, k)
        root = _gauss_ratio(_reduce((lcq * r % q, 0), pk), lc)
        den, z = linalg._clear_denominators([root])
        if any(_gauss_eval([((j,), c) for j, c in enumerate(h)], z, den)[0] != (0, 0)
               for h in derivs[:mult]):
            return None
        out[root] = mult
    return out


def _roots(f):
    """(value, multiplicity) pairs, by value, of the roots in Q(i) of f over
    Z[i], deg f >= 1. Modulo a prime p = 1 (mod 4) above _PRIME_FLOOR and
    deg f, i -> iota, where lc(f) is a unit, a root rho has multiplicity the
    least j with f^(j)(rho) != 0: fewer than deg f in all certify that f does
    not split over Q(i), else _read reads them or the next prime is tried,
    up to _PRIME_TRIES; then IrrationalSpectrum is raised."""
    derivs = [f]
    while len(derivs[-1]) > 1:
        derivs.append([(k * a, k * b) for k, (a, b) in enumerate(derivs[-1]) if k])
    p, tries = max(len(f), _PRIME_FLOOR), 0
    while tries < _PRIME_TRIES:
        p, iota, pi = _prime_after(p)
        images = [[(x + y * iota) % p for x, y in h] for h in derivs]
        if not images[0][-1]:  # pi divides lc(f)
            continue
        roots = [(rho, next(j for j, h in enumerate(images) if _horner(h, rho, p)))
                 for rho in _split(images[0], p)]
        if sum(mult for _, mult in roots) < len(f) - 1:
            raise IrrationalSpectrum(
                "characteristic polynomial does not split over the Gaussian rationals")
        found = _read(derivs, roots, p, iota, pi)
        if found is not None:
            return sorted(found.items(), key=lambda kv: kv[0].sort_key())
        tries += 1
    raise IrrationalSpectrum(f"no root reading passed its check modulo {_PRIME_TRIES} primes")


def exact_eigenvalues(m: Matrix):
    """Eigenvalues of an exact matrix certified in the Gaussian rationals,
    as (value, algebraic multiplicity) pairs sorted by value; raises IrrationalSpectrum."""
    return _roots(linalg._clear_denominators(charpoly(m))[1]) if m.rows else []


@dataclass(frozen=True)
class SpectralDecomposition:
    """Joint generalized eigenspaces V(lambda).

    Invariants (established by the decomposition routine): the eigenspaces
    are invariant under every operator, each shifted operator is nilpotent
    on its eigenspace, and the dimensions add up to the whole space.
    """

    components: tuple  # ((lambda_1..lambda_n), column basis Matrix) pairs

    def multiplicities(self):
        return [(point, space.cols) for point, space in self.components]

    def total_dim(self) -> int:
        return sum(space.cols for _, space in self.components)


def _power_at_least(m: Matrix, k: int) -> Matrix:
    """m^e for the least power of two e >= k by repeated squaring, stopping
    early at zero. When k bounds the size of m's Jordan blocks at 0, this
    has the kernel of m^k, and it is zero exactly when m^k is."""
    e = 1
    while e < k and not m.is_zero():
        m, e = m @ m, 2 * e
    return m


def _kernel_chain(ops, bound: int) -> Matrix:
    """Basis of the joint generalized kernel of commuting operators, with no
    power of any of them: start from the joint kernel, and pull the space
    back through every operator, {v : N v in the space for each N}, until
    its dimension reaches `bound` or stops growing."""
    n = ops[0].rows
    space = linalg.kernel_basis(
        Matrix.place(n * len(ops), n, [(i * n, 0, 1, 1, op) for i, op in enumerate(ops)]))
    while 0 < space.cols < bound:
        s = space.cols
        pull = Matrix.place(n * len(ops), n + s * len(ops), [
            block for i, op in enumerate(ops) for block in
            ((i * n, 0, 1, 1, op), (i * n, n + i * s, 1, -1, space))])
        top = linalg.kernel_basis(pull).take_rows(range(space.rows))
        grown = linalg.image_basis(top)
        if grown.cols == space.cols:
            break
        space = grown
    return space


def _decomposition(t: CommutingTuple, unit: Matrix | None) -> SpectralDecomposition:
    """Split the space by one operator at a time. Each piece carries its
    basis, the operators not yet used, restricted to it, and its generator
    or None, and is cut into the generalized eigenspaces of the next one.
    An operator whose shift by its mean trace is proved nilpotent on a piece
    (_nilpotent) has that one eigenvalue there and keeps it whole. A piece
    on which every operator has been used is a component."""
    pieces = [((), Matrix.identity(t.dim), t.operators, unit)]
    for _ in range(t.n):
        refined = []
        for point, basis, (rep, *rest), gen in pieces:
            k = rep.rows
            lam = sum((rep[i, i] for i in range(k)), QQi(0)) / QQi(k)
            if _nilpotent(rep.shift(lam), gen):
                refined.append((point + (lam,), basis, rest, gen))
                continue
            eigenvalues = exact_eigenvalues(rep)
            kernels = [_kernel_chain([rep.shift(mu)], mult) for mu, mult in eigenvalues]
            if [kernel.cols for kernel in kernels] != [mult for _, mult in eigenvalues]:
                raise AssertionError(
                    "generalized eigenspace dimension differs from the multiplicity")
            # the generator in the eigenspaces' joint basis, cut by eigenspace
            coords = gen and linalg.solve(Matrix.hstack(kernels), gen)
            start = 0
            for (mu, mult), kernel in zip(eigenvalues, kernels):
                # each remaining operator on span(kernel): kernel @ X = op @ kernel
                refined.append((point + (mu,), basis @ kernel,
                                [linalg.solve(kernel, op @ kernel) for op in rest],
                                coords and coords.take_rows(range(start, start + mult))))
                start += mult
        pieces = refined
    components = sorted(((point, basis) for point, basis, _, _ in pieces),
                        key=lambda cs: tuple(x.sort_key() for x in cs[0]))
    return SpectralDecomposition(tuple(components))


def _nilpotent(m: Matrix, gen: Matrix | None) -> bool:
    """Whether m^k = 0 for the k x k matrix m, an operator shifted on a
    piece. A generator g of the piece, the unit's component in it, stands
    for an idempotent e of the commutative algebra A the tuple multiplies
    on, with piece A*e; as m^k (a e) = a m^k e, m^k = 0 exactly when
    m^k g = 0, at most k matrix-vector products. Else, a matrix power."""
    if gen is None:
        return _power_at_least(m, m.rows).is_zero()
    return any((gen := m @ gen).is_zero() for _ in range(m.rows))


def spectral_decomposition(t: CommutingTuple, *,
                           unit: Matrix | None = None) -> SpectralDecomposition:
    """Decompose the space into joint generalized eigenspaces; raises
    IrrationalSpectrum when an eigenvalue leaves the Gaussian rationals.
    `unit` is the column of coordinates of the unit when the tuple
    multiplies on a commutative algebra, as on C[z]/I; it speeds the
    decomposition only."""
    if t.dim == 0:
        return SpectralDecomposition(())
    result = _decomposition(t, unit)
    if not result.total_dim() == t.dim == linalg.rank(
            Matrix.hstack([space for _, space in result.components])):
        raise AssertionError("eigenspaces are not a direct sum of the space")
    return result


def _float_eigenvalues(a):
    """Eigenvalues of a square complex array as (cluster mean, size) pairs,
    by single linkage: two eigenvalues share a cluster when they lie within
    _CLUSTER, or within sqrt(_CLUSTER) with unit eigenvectors parallel
    to within sqrt(_CLUSTER). The second link is how a Jordan block looks
    after rounding: a block of size j splits by about eps^(1/j) into
    eigenvalues with one eigenvector (Moro-Burke-Overton, SIAM J. Matrix
    Anal. Appl. 18(4), 1997). A cluster wider than twice its link radius
    raises ClusteringAmbiguity."""
    import numpy as np

    values, vectors = np.linalg.eig(a)
    near = math.sqrt(_CLUSTER)

    def link(i, j):  # the radius of the link from i to j, 0 for none
        gap = abs(values[i] - values[j])
        if gap <= _CLUSTER:
            return _CLUSTER
        if gap > near:
            return 0.0
        sine2 = 1 - abs(np.vdot(vectors[:, i], vectors[:, j])) ** 2
        return near if sine2 <= _CLUSTER else 0.0

    clusters = []  # (members, link radius)
    for i in sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag)):
        members, radius, apart = [], _CLUSTER, []
        for cluster, r in clusters:
            radii = [link(i, j) for j in cluster]
            if any(radii):
                members, radius = members + cluster, max(radius, r, *radii)
            else:
                apart.append((cluster, r))
        clusters = apart + [(members + [i], radius)]
    out = []
    for cluster, radius in clusters:
        zs = sorted(values[cluster], key=lambda z: (z.real, z.imag))
        if max(abs(a - b) for a in zs for b in zs) > 2 * radius:
            raise ClusteringAmbiguity("eigenvalue clusters overlap within tolerance")
        out.append((complex(np.mean(zs)), len(zs)))
    return out


def _float_split(a):
    """The one float kernel cut: a full SVD (u, vh, r) of a nonempty complex
    array, r counting singular values above the cut, so rounding noise has
    rank 0; u[:, :r] spans the image, vh[r:].conj() the kernel."""
    import numpy as np

    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return u, vh, int(np.sum(s > _KERNEL_CUT * max(s[0], 1.0)))


def _float_kernel_chain(a, bound: int):
    """_kernel_chain of one square complex array, every kernel and image
    read from _float_split."""
    import numpy as np

    _, vh, r = _float_split(a)
    space = vh[r:].conj().T
    while 0 < space.shape[1] < bound:
        _, vh, r = _float_split(np.hstack([a, -space]))
        u, _, r = _float_split(vh[r:].conj().T[:len(a)])
        if r == space.shape[1]:
            break
        space = u[:, :r]
    return np.ascontiguousarray(space)  # products then see one memory layout


def _float_restrict(basis, image):
    """The least-squares X with basis @ X = image; raises InconsistentSystem
    when the residual exceeds _KERNEL_CUT * max(|basis|, 1) * max(|X|, 1),
    the rounding scale of the product basis @ X."""
    import numpy as np

    x, *_ = np.linalg.lstsq(basis, image, rcond=None)
    scale = max(np.linalg.norm(basis, 2), 1.0) * max(np.linalg.norm(x, 2), 1.0)
    if np.linalg.norm(basis @ x - image, 2) > _KERNEL_CUT * scale:
        raise InconsistentSystem("no float solution within tolerance")
    return np.ascontiguousarray(x)


def float_spectrum(t: CommutingTuple):
    """Uncertified (point, multiplicity) pairs of t, sorted by point, split
    on complex128 copies of the operators by the route of
    spectral_decomposition, with the relative kernel cut _KERNEL_CUT. Raises
    ClusteringAmbiguity when the clusters, the eigenspace dimensions or the
    independence of the eigenspaces (_INDEPENDENCE_FLOOR) are in doubt."""
    import numpy as np

    if t.dim == 0:
        return []
    try:
        ops = [op.to_numpy() for op in t.operators]
    except OverflowError:
        raise ResourceLimit("an operator entry leaves float range")
    pieces = [((), np.eye(t.dim, dtype=complex), ops)]
    for _ in range(t.n):
        refined = []
        for point, basis, (rep, *rest) in pieces:
            eigenvalues = _float_eigenvalues(rep)
            kernels = [_float_kernel_chain(rep - np.diag([mu] * len(rep)), mult)
                       for mu, mult in eigenvalues]
            if [kernel.shape[1] for kernel in kernels] != [mult for _, mult in eigenvalues]:
                raise ClusteringAmbiguity(
                    "generalized eigenspace dimension differs from the multiplicity")
            for (mu, _), kernel in zip(eigenvalues, kernels):
                refined.append((point + (mu,), basis @ kernel,
                                [_float_restrict(kernel, op @ kernel) for op in rest]))
        pieces = refined
    joint = np.hstack([np.linalg.qr(basis)[0] for _, basis, _ in pieces])
    if np.linalg.svd(joint, compute_uv=False)[-1] < _INDEPENDENCE_FLOOR:
        raise ClusteringAmbiguity("eigenspaces are not independent within tolerance")
    return sorted(((point, basis.shape[1]) for point, basis, _ in pieces),
                  key=lambda pm: tuple((x.real, x.imag) for x in pm[0]))


@contextmanager
def _raised_on(backend: str):
    """Name `backend` as the `backend` of an error raised inside: an error
    after the float fallback fired is reported under float, not exact."""
    try:
        yield
    except (KoszulIndexError, AssertionError) as err:
        err.backend = backend
        raise


def joint_eigenvalues(t: CommutingTuple, unit: Matrix | None = None):
    """(pairs, backend): the (point, multiplicity) pairs of t sorted by
    point, certified by spectral_decomposition under EXACT; when an
    eigenvalue leaves the Gaussian rationals, the uncertified pairs of
    float_spectrum under FLOAT, any error of that split tagged float.
    `unit` is as for spectral_decomposition."""
    try:
        return spectral_decomposition(t, unit=unit).multiplicities(), EXACT
    except IrrationalSpectrum:
        with _raised_on(FLOAT):
            return float_spectrum(t), FLOAT


@dataclass(frozen=True)
class JointSpectrumReport:
    """Equivalence data for one candidate point: membership in the Taylor
    spectrum, in the eigenvalue support, and nontriviality of the top
    homology."""

    point: tuple
    in_taylor_spectrum: bool
    in_eigenvalue_support: bool
    top_homology_nonzero: bool

    @property
    def agree(self) -> bool:
        return self.in_taylor_spectrum == self.in_eigenvalue_support \
            == self.top_homology_nonzero


def generalized_eigenspace(t: CommutingTuple, point) -> Matrix:
    """Column basis of V(point), the joint generalized kernel of the
    shifted tuple."""
    return _kernel_chain(t.shift(point).operators, t.dim)


def joint_spectrum_equivalences(t: CommutingTuple, point) -> JointSpectrumReport:
    """Evaluate the three equivalent membership predicates at a point of an
    exact tuple.

    The top homology and the eigenvalue support share one kernel, that of
    the stacked shifted operators: the top Koszul differential stacks them,
    so H_n is that kernel by construction, and the generalized eigenspace's
    chain starts from it. Only `in_taylor_spectrum` is computed
    independently."""
    point = tuple(point)
    if len(point) != t.n:
        raise ArityMismatch("point dimension differs from tuple length")
    profile = koszul.homology(koszul.build_complex(t.shift(point)))
    return JointSpectrumReport(
        point=point,
        in_taylor_spectrum=any(profile.dims),
        in_eigenvalue_support=generalized_eigenspace(t, point).cols > 0,
        top_homology_nonzero=profile.dims[-1] > 0,
    )


def apply_polynomial_map(t: CommutingTuple, polys) -> CommutingTuple:
    """The tuple (g_1(A), ..., g_m(A)) by exact substitution. Polynomials in
    commuting matrices commute, and a CommutingTuple's operators commute by
    construction (checked when it was built, or proved where `proven` was
    called), so no pair is re-checked."""
    polys = list(polys)
    for g in polys:
        if g.nvars != t.n:
            raise ArityMismatch("polynomial arity differs from tuple length")
    return CommutingTuple.proven([g.eval_matrices(t.operators) for g in polys])


def localized_homology(t: CommutingTuple, polys, point):
    """Dimensions, per degree, of the generalized eigenspace at `point` of
    the induced coordinate action on the homology of the mapped tuple.

    Summing these dimensions over all common zeros recovers the full
    homology dimensions of the mapped tuple.
    """
    point = [as_scalar(p) for p in point]
    if len(point) != t.n:
        raise ArityMismatch("point dimension differs from tuple length")
    mapped = apply_polynomial_map(t, polys)
    complex_ = koszul.build_complex(mapped)
    # the induced matrices commute because the operators of t do
    return [generalized_eigenspace(CommutingTuple.proven(
                koszul.homology_action(complex_, k, t.operators)), point).cols
            for k in range(mapped.n + 1)]
