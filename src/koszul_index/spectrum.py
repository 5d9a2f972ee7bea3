"""Joint spectra of commuting tuples, simultaneous generalized-eigenspace
decompositions, polynomial functional calculus, and localized homology.

Every tuple is exact. Its joint eigenvalues are split by one route: split
the space by one operator at a time into generalized eigenspaces, each a
kernel chain that forms no matrix power. An operator keeps a piece whole
when its shift by the mean eigenvalue is proved nilpotent there: by
matrix-vector products from the unit's component in the piece when the
tuple multiplies on C[z]/I, else by a matrix power. Eigenvalues split the
Hessenberg characteristic polynomial, made primitive over Z[i], into
square-free factors by Musser's algorithm on int pairs; a root in Q(i) of a
factor with lead lc is in Z[i] / lc, so it is read off an Aberth-Ehrlich
guess x as round(lc x) / lc, after exact Newton steps on a grid finer than
1 / |lc| while x is too coarse, and verified exactly. When a root leaves
Q(i), IrrationalSpectrum is raised.
`joint_eigenvalues` alone decides exact or float: on IrrationalSpectrum it
runs `float_spectrum`, the same route on complex128 copies of the operators
(Matrix.to_numpy) with eigenvalues clustered within _CLUSTER, kernels read
from one SVD with the fixed cut _KERNEL_CUT and each later operator
restricted to an eigenspace by least squares. What it reports is not
certified. numpy is imported only by the float split.
"""

from __future__ import annotations

import cmath
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import koszul, linalg
from .errors import (ArityMismatch, ClusteringAmbiguity, InconsistentSystem,
                     IrrationalSpectrum, KoszulIndexError, ResourceLimit)
from .koszul import CommutingTuple
from .linalg import Matrix
from .poly import _gauss_mul, _gauss_ratio
from .scalars import EXACT, FLOAT, QQi

_ABERTH_TOL = 1e-15
_ABERTH_SWEEPS = 200
_NEWTON_STEPS = 6
_CLUSTER = 1e-6  # the link radius of float eigenvalues (_float_eigenvalues)
_INDEPENDENCE_FLOOR = 1e-6  # of float eigenspaces (float_spectrum)
_KERNEL_CUT = 1e-9  # relative: singular values up to 1e-9 * max(sigma_max, 1) are zero


# -- univariate polynomials over Z[i]: (re, im) int pairs, low to high -------


def _deriv(p):
    return [(k * a, k * b) for k, (a, b) in enumerate(p) if k]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _divide(x, y, rounding=0):
    """x conj(y) / |y|^2 in Z[i]: exact when y divides x, else floored or rounded."""
    n = y[0] * y[0] + y[1] * y[1]
    return ((2 * (x[0] * y[0] + x[1] * y[1]) + rounding * n) // (2 * n),
            (2 * (x[1] * y[0] - x[0] * y[1]) + rounding * n) // (2 * n))


def _gauss_gcd(x, y):
    """A gcd in Z[i]: Euclid with rounded quotients at least halves the norm each step."""
    while y != (0, 0):
        x, y = y, _sub(x, _gauss_mul(_divide(x, y, 1), y))
    return x


def _primitive(p):
    """p over its content: the gcd h of every part, times a gcd in Z[i] of
    the coefficients over h, whose Euclid starts from the gcd of their norms."""
    h = math.gcd(*(x for c in p for x in c))
    p = [(a // h, b // h) for a, b in p] if h > 1 else p
    g = functools.reduce(_gauss_gcd, p, (math.gcd(*(a * a + b * b for a, b in p)), 0))
    return [_divide(c, g) for c in p] if g[0] * g[0] + g[1] * g[1] > 1 else p


def _prem(a, b):
    """lc(b)^e a mod b (e >= 0), each step scaled by lc(b) to stay in Z[i]."""
    r, lc, top = list(a), b[-1], len(b) - 1
    while r and (len(r) > top or r[-1] == (0, 0)):  # and drop zero leads
        x = r.pop()
        if x != (0, 0):
            r = [_gauss_mul(lc, c) for c in r]
            for j in range(top):
                r[len(r) - top + j] = _sub(r[len(r) - top + j], _gauss_mul(x, b[j]))
    return r


def _gcd(a, b):
    """A primitive gcd of primitive a and b: the primitive pseudo-remainder
    sequence (Geddes-Czapor-Labahn, Algorithms for Computer Algebra, 7.3)."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _quo(a, b):
    """a / b for b dividing a in Z[i][x], each division by lc(b) exact."""
    r, top = list(a), len(b) - 1
    q = [(0, 0)] * (len(a) - top)
    for k in range(len(q) - 1, -1, -1):
        x = q[k] = _divide(r[k + top], b[-1])
        for j in range(top):
            r[k + j] = _sub(r[k + j], _gauss_mul(x, b[j]))
    return q


def _squarefree(p):
    """Musser's square-free decomposition [(factor, multiplicity)] of a
    primitive p of degree >= 1 by gcds and exact divisions (Geddes-Czapor-
    Labahn, 8.2): with c = gcd(p, p') and w = p / c, y = gcd(w, c) keeps the
    factors of multiplicity above i, so w / y is the primitive i-th one."""
    c = _gcd(p, _primitive(_deriv(p)))
    w = _quo(p, c)
    out, i = [], 1
    while len(w) > 1:
        y = _gcd(w, c)
        if len(y) < len(w):
            out.append((_quo(w, y), i))
        w, c, i = y, _quo(c, y), i + 1
    return out


def _eval(p, x: QQi) -> QQi:
    acc = QQi(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def charpoly(m: Matrix):
    """Characteristic polynomial det(x - m) of an exact matrix, low-to-high
    coefficients, in O(d^3) field operations: an exact similarity reduction
    to upper Hessenberg form, then the Hessenberg recurrence (Cohen, A
    Course in Computational Algebraic Number Theory, GTM 138, 2.2.9)."""
    h = [list(r) for r in m.entries]
    d = len(h)
    for k in range(1, d - 1):
        piv = next((i for i in range(k, d) if h[i][k - 1]), None)
        if piv is None:
            continue
        h[k], h[piv] = h[piv], h[k]
        for row in h:
            row[k], row[piv] = row[piv], row[k]
        for i in range(k + 1, d):
            u = h[i][k - 1] / h[k][k - 1]
            if u:  # row i -= u * row k, then column k += u * column i
                h[i] = [a - u * b if b else a for a, b in zip(h[i], h[k])]
                for row in h:
                    row[k] = row[k] + u * row[i] if row[i] else row[k]
    # p_(k+1) = x p_k - sum over i <= k of h_ik (h_(i+1),i ... h_k,(k-1)) p_i
    polys = [[QQi(1)]]
    for k in range(d):
        p, t = [QQi(0)] + polys[k], QQi(1)
        for i in range(k, -1, -1):
            f = t * h[i][k]
            for j, c in enumerate(polys[i] if f else ()):
                p[j] = p[j] - f * c
            t = t * h[i][i - 1]  # unused after i = 0
        polys.append(p)
    return polys[d]


def _bit_size(x: QQi) -> int:
    """log2 |x| to within one, from the bit lengths of a nonzero x's parts."""
    return max(abs(q.numerator).bit_length() - q.denominator.bit_length()
               for q in (x.re, x.im) if q)


def _numeric_roots(factor):
    """Numeric roots of a square-free polynomial of degree >= 2 by the
    Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973) from fixed
    points on a circle. A root is settled when its step is below
    _ABERTH_TOL of it or its residual is at the rounding level of its
    evaluation (Bini, Numer. Algorithms 13, 1996). A monic p whose
    coefficients leave float range is solved as q(w) = p(2^s w) / 2^(s n),
    with 2^s near the largest |c_(n-k)|^(1/k), so its roots are 2^s w;
    ResourceLimit is raised when those leave float range too."""
    n = len(factor) - 1
    try:
        s, c = 0, [complex(x) for x in factor]  # made monic by the caller
    except OverflowError:
        s = max(-(-_bit_size(x) // (n - j)) for j, x in enumerate(factor[:n]) if x)
        c = [complex(x / QQi(2 ** (s * (n - j)))) for j, x in enumerate(factor)]
    radius = max(abs(c[n - k]) ** (1 / k) for k in range(1, n + 1))
    zs = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(_ABERTH_SWEEPS):
        settled = True
        for i, z in enumerate(zs):
            p, dp, scale = c[n], 0j, 1.0
            for coeff in reversed(c[:n]):
                p, dp = p * z + coeff, dp * z + p
                scale = scale * abs(z) + abs(coeff)
            if abs(p) <= _ABERTH_TOL * scale:
                continue
            denom = dp - p * sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
            step = p / denom if denom else 0j
            zs[i] = z - step
            settled = settled and abs(step) <= _ABERTH_TOL * abs(zs[i])
        if settled:
            break
    try:
        return [complex(math.ldexp(z.real, s), math.ldexp(z.imag, s)) for z in zs] if s else zs
    except OverflowError:
        raise ResourceLimit("a characteristic polynomial root leaves float range")


def _reconstruct_root(z: complex, factor, radius: float) -> QQi | None:
    """The root of a primitive `factor` near its numeric root z: Z[i] is
    integrally closed, so lc r is in Z[i] for its lead lc and a root r in
    Q(i); the candidate round(lc x) / lc, x = z exactly, must vanish and lie
    within `radius` of z, so it is z's root and not a neighbour's. While z
    is too coarse, x takes exact Newton steps, each rounded to multiples of
    2^-b with 2^b > 16 |lc|, far below the 1 / (2 |lc|) the reading needs,
    and is read again; quadratic convergence from double precision bounds
    the steps by _NEWTON_STEPS plus the bit length of b."""
    lc = factor[-1]
    b = max(map(abs, lc)).bit_length() + 5
    grid = 1 << b
    p, dp = ([QQi(*c) for c in f] for f in (factor, _deriv(factor)))

    def read(x: QQi) -> QQi | None:
        cand = _gauss_ratio((round(lc[0] * x.re - lc[1] * x.im),
                             round(lc[0] * x.im + lc[1] * x.re)), lc)
        return cand if abs(complex(cand) - z) < radius and not _eval(p, cand) else None

    x = QQi(Fraction(z.real), Fraction(z.imag))
    for _ in range(_NEWTON_STEPS + b.bit_length()):
        if (cand := read(x)) is not None or not (slope := _eval(dp, x)):
            return cand
        step = _eval(p, x) / slope
        x = QQi(Fraction(round((x.re - step.re) * grid), grid),
                Fraction(round((x.im - step.im) * grid), grid))
    return read(x)


def exact_eigenvalues(m: Matrix):
    """Eigenvalues of an exact matrix certified in the Gaussian rationals,
    as (value, algebraic multiplicity) pairs; raises IrrationalSpectrum."""
    if m.rows == 0:
        return []
    out = {}
    for factor, mult in _squarefree(_primitive(linalg._clear_denominators(charpoly(m))[1])):
        if len(factor) == 2:
            found = {-_gauss_ratio(*factor)}
        else:
            numeric = _numeric_roots([_gauss_ratio(c, factor[-1]) for c in factor])
            found = set()
            for i, z in enumerate(numeric):
                # half the gap to the nearest other root of this square-free factor
                radius = min(abs(z - w) / 2 for j, w in enumerate(numeric) if j != i)
                cand = _reconstruct_root(z, factor, radius)
                if cand is None:
                    raise IrrationalSpectrum(
                        "characteristic polynomial does not split over the "
                        "Gaussian rationals")
                found.add(cand)
            if len(found) != len(factor) - 1:
                raise IrrationalSpectrum(
                    "root reconstruction collapsed distinct eigenvalues")
        for root in found:
            out[root] = out.get(root, 0) + mult
    if sum(out.values()) != m.rows:
        raise IrrationalSpectrum("eigenvalue multiplicities do not add up")
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


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
    space = linalg.kernel_basis(Matrix.vstack(ops))
    while 0 < space.cols < bound:
        zero = Matrix.zeros(space.rows, space.cols)
        pull = Matrix.block([[op] + [-space if j == i else zero for j in range(len(ops))]
                             for i, op in enumerate(ops)])
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
    point = [p if isinstance(p, QQi) else QQi(p) for p in point]
    if len(point) != t.n:
        raise ArityMismatch("point dimension differs from tuple length")
    mapped = apply_polynomial_map(t, polys)
    complex_ = koszul.build_complex(mapped)
    # the induced matrices commute because the operators of t do
    return [generalized_eigenspace(CommutingTuple.proven(
                koszul.homology_action(complex_, k, t.operators)), point).cols
            for k in range(mapped.n + 1)]
