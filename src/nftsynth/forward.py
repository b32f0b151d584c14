"""Forward discrete scattering: samples -> (a, b), reflection, eigenvalues.

The one-sample update (normalized by 1/sqrt(1+|Q|^2); the step's scalar
z^{1/2} multiplies a and b alike, cancels in every ratio and is dropped) is

    a <- (a + Q z^{-1} b)/theta,    b <- (-conj(Q) a + z^{-1} b)/theta

starting from (a, b) = (1, 0).  After D steps a and b are degree-(D-1)
polynomials in z^{-1} and |a|^2 + |b|^2 = 1 holds exactly on the circle.

This is the step matrix F(Q) of the `inverse` module docstring applied
to a column: `forward_fast` is the first column of the samples' forward
matrix F(q[D-1]) ... F(q[0]), which `inverse._first_column` computes in
O(D log^2 D).
"""

import numpy as np

from .inverse import Signal, _finite, _first_column
from .poly import grid_omega, poly_eval, power_sums
from .synthesis import ROOT_INNER, ROOT_OUTER, ScatteringPair, z_to_lambda

REFLECTION_GRID_FACTOR = 4
POLE_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-6
MULTIPLE_ROOT_TOL = 1e-12
COUNT_GRID_FACTOR = 8        # first contour grid: a power of two >= 8 len(a)
INNER_GRID = 1024            # first grid on |w| = 1/ROOT_OUTER (a_j r^j underflows past j ~ 230)
MAX_GRID = 1 << 21           # largest grid refinement (32 MB per complex128 array, 64 MB extended)
COUNT_TOL = 1e-6             # distance of a trusted zero count from an integer, ...
FOG_MAX = 0.25               # ... plus its rounding-error bound, which must stay below this
NEAR_GRID = 20               # zeros within NEAR_GRID / M (relative) of a circle are deflated ...
NEAR_MAX = 64                # ... unless more than this many, when the grid grows
SEED_MAX = 8                 # most roots seeded from the moments of one sub-annulus
SPLIT_DEPTH = 40             # most radial halvings of the annulus
SPLIT_AT = (0.5, 0.3, 0.7)   # tried split circles, as fractions of the log width
NEWTON_STEPS = 20            # per precision
NEWTON_TOL = 1e-10           # relative Newton step that ends the polish
NEWTON_FLOOR = 4 * np.finfo(np.longdouble).eps  # |A(w)| / sum |a_j w^j| that ends it too
ROOT_SEPARATION_TOL = 1e-10  # relative; closer polished roots are one root


def forward_fast(signal: Signal) -> ScatteringPair:
    q = np.asarray(signal.samples, dtype=complex)
    D = len(q)
    if D < 1 or D & (D - 1):
        raise ValueError(f"D={D} is not a power of two")
    # initial state is [1; 0]: (a, b) is the first column
    a, b = _first_column(_finite(q, "sample q"))
    return ScatteringPair(a, b)


def reflection_coefficient(pair):
    """Q-hat(omega) = b/a on 4D equispaced points of the circle (one FFT).

    Points where |a| < 1e-12 are flagged as poles and returned as NaN
    rather than divided through.
    """
    M = REFLECTION_GRID_FACTOR * pair.D
    av = np.fft.fft(pair.a, M)
    bv = np.fft.fft(pair.b, M)
    # grid_omega falls as m rises, from 0 at m = 0 to its least at m = M/2,
    # then wraps to its greatest at m = M/2 + 1: this order ascends
    order = (M // 2 - np.arange(M)) % M
    omega, av, bv = grid_omega(order, M, pair.D), av[order], bv[order]
    poles = np.abs(av) < POLE_TOL
    vals = np.full_like(av, np.nan + 0j)
    np.divide(bv, av, out=vals, where=~poles)
    return omega, vals, poles


def _fft_folded(x, M):
    """M-point DFT of x of any length: x longer than M is folded modulo M first.

    In x's precision: numpy's FFT transforms clongdouble in long double.
    """
    if len(x) > M:
        x = np.pad(x, (0, -len(x) % M)).reshape(-1, M).sum(axis=0)
    return np.fft.fft(x, M)


def _values(a, w):
    """A(w), w A'(w) and sum_j |a_j w^j| at the points w, in the precision of w.

    Two power_sums calls: the stack [a; j a] gives A and w A', and |a|
    at |w| the rounding scale.
    """
    a = a.astype(w.dtype)
    return (*power_sums(np.stack([a, np.arange(len(a)) * a]), w),
            power_sums(np.abs(a)[None], np.abs(w))[0])


def _newton(a, w):
    """Newton's method on A(w) = sum a_j w^j from each point of w.

    Returns the points and which of them converged: a relative step
    <= NEWTON_TOL within NEWTON_STEPS steps in double precision, or else
    within NEWTON_STEPS more in extended precision, where |A(w)| down to
    the rounding error of evaluating it also counts (a root to working
    accuracy; for a root of large condition number no step does better).
    The extended-precision pass starts over from the given points.
    """
    starts = np.asarray(w, dtype=complex)
    w = starts.copy()
    done = np.zeros(len(w), dtype=bool)
    with np.errstate(all="ignore"):
        for dtype, floor in ((complex, 0.0), (np.clongdouble, NEWTON_FLOOR)):
            todo = np.flatnonzero(~done)
            v = starts[todo].astype(dtype)
            for _ in range(NEWTON_STEPS):
                if not len(todo):
                    break
                val, wder, scale = _values(a, v)
                step = v * val / wder
                ok = ((np.abs(step) <= NEWTON_TOL * np.abs(v))
                      | (np.abs(val) <= floor * scale))
                v = v - step
                w[todo[ok]], done[todo[ok]] = v[ok], True
                todo, v = todo[~ok], v[~ok]
            w[todo] = v
    return w, done


def _distinct(w):
    """w without the points within ROOT_SEPARATION_TOL (relative) of an earlier one."""
    keep = []
    for wk in w:
        if all(abs(wk - k) > ROOT_SEPARATION_TOL * abs(wk) for k in keep):
            keep.append(wk)
    return np.array(keep, dtype=complex)


def _circle(a, r, M):
    """(count, power sums s_0..s_SEED_MAX) of the zeros of A inside |w| = r.

    A(w) = sum a_j w^j is a(z) at w = 1/z.  On the grid w_m = r e^{-2 pi i m/M},
    A(w_m) and w A'(w_m) are the M-point DFTs of a_j r^j and j a_j r^j, and
    the trapezoid rule gives s_p = mean(w^p w A'/A) = r^p fft(w A'/A)[p] / M.
    By the argument principle s_p tends to the sum of w_k^p over the zeros
    inside, s_0 to their count.  A zero at relative distance d from the
    circle puts the sums off by about (1-d)^M.  So the zeros within
    NEAR_GRID / M of the circle are found by Newton's method from the grid
    points where its step A/A' is locally shortest; their terms w/(w - w_k)
    leave the integrand and their exact share (w_k^p if inside) is added
    back.  If s_0 is still not within COUNT_TOL of an integer, M grows,
    sized from the error seen.  Where double rounding alone could put s_0
    off by more than COUNT_TOL, all of this is done in extended precision.
    More than NEAR_MAX zeros near the circle also make M grow.  None when
    M passes MAX_GRID (or the first M, if larger), when the rounding-error
    bound passes FOG_MAX, or when a zero lies on the circle to within
    Newton's accuracy.
    """
    j = np.arange(len(a))
    p = np.arange(SEED_MAX + 1)
    dtype = complex
    limit = max(M, MAX_GRID)
    while M <= limit:
        x = a.astype(dtype) * np.finfo(dtype).dtype.type(r) ** j
        jx = j * x
        with np.errstate(divide="ignore", invalid="ignore"):
            A = _fft_folded(x, M)
            g = _fft_folded(jx, M) / A
            h = np.abs(g)  # inverse relative Newton step |w A'/A|
            # first-order bound on the rounding error of s_0
            fog = np.finfo(dtype).eps * np.mean(
                (np.sum(np.abs(jx)) + h * np.sum(np.abs(x))) / np.abs(A))
        if not fog <= COUNT_TOL and dtype is complex:
            dtype = np.clongdouble
            continue
        if not fog <= FOG_MAX:
            return None
        peaks = np.flatnonzero((h > M / NEAR_GRID)
                               & (h >= np.roll(h, 1)) & (h >= np.roll(h, -1)))
        if len(peaks) > NEAR_MAX:
            M *= 4  # a finer grid has fewer zeros near it
            continue
        grid = lambda m: r * np.exp(-2j * np.pi * m / M)
        near, done = _newton(a, grid(peaks))
        near = _distinct(near[done])
        if np.any(np.abs(np.abs(near) - r) <= NEWTON_TOL * r):
            return None
        if len(near):
            w = grid(np.arange(M))
            for wk in near:
                g = g - w / (w - wk)
        inside = near[np.abs(near) < r]
        s = (np.fft.fft(g)[: SEED_MAX + 1].astype(complex) / M * r ** p
             + np.sum(inside[:, None] ** p, axis=0))
        err = abs(s[0] - round(s[0].real)) if np.isfinite(s[0]) else 1.0
        if err <= COUNT_TOL + fog:
            return round(s[0].real), s
        grow = np.log(COUNT_TOL / 10) / np.log(min(err, 0.5))
        M = max(2 * M, 1 << int(M * grow).bit_length())
    return None


def _moment_seeds(s, r):
    """Roots of the polynomial whose zeros have the power sums s_1..s_n.

    Newton's identities turn the power sums, scaled to the circle |w| = r,
    into its coefficients.  Non-finite power sums give no seeds, without
    a warning.
    """
    n = len(s) - 1
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    with np.errstate(all="ignore"):   # a non-finite s makes e non-finite, refused below
        s = s / r ** np.arange(n + 1)
        for k in range(1, n + 1):
            i = np.arange(1, k + 1)
            e[k] = np.sum((-1.0) ** (i - 1) * e[k - i] * s[i]) / k
    if not np.all(np.isfinite(e)):
        return np.array([], dtype=complex)
    return r * np.roots((-1.0) ** np.arange(n + 1) * e)


def _polished(a, s, r_lo, r_hi):
    """The zeros of A between |w| = r_lo and r_hi, with power sums s_0..s_n.

    Newton's method from the roots of the moment polynomial
    (_moment_seeds).  None unless it converges to n distinct roots of a
    between the circles, each with |a| <= ROOT_RESIDUAL_TOL.
    """
    n = len(s) - 1
    w, done = _newton(a, _moment_seeds(s, r_hi))
    if (len(w) == n and np.all(done)
            and np.all((np.abs(w) > r_lo) & (np.abs(w) < r_hi))
            and len(_distinct(w)) == n
            and np.all(np.abs(_values(a, w)[0]) <= ROOT_RESIDUAL_TOL)):
        return w
    return None


def _zeros_between(a, lo, hi, M, depth):
    """Zeros of A between two circles lo and hi, each (r, count, sums).

    When they hold at most SEED_MAX zeros, their moments seed Newton's
    method (_polished).  Otherwise, or if that does not give certified
    roots, the sub-annulus is split at a circle in between and each half
    searched on its own.
    """
    (r_lo, n_lo, s_lo), (r_hi, n_hi, s_hi) = lo, hi
    n = n_hi - n_lo
    if n == 0:
        return np.array([], dtype=complex)
    if 0 < n <= SEED_MAX:
        w = _polished(a, (s_hi - s_lo)[: n + 1], r_lo, r_hi)
        if w is not None:
            return w
    if n > 0 and depth > 0:
        for t in SPLIT_AT:
            r = r_lo ** (1 - t) * r_hi ** t
            mid = _circle(a, r, M)
            if mid is not None:
                mid = (r, *mid)
                return np.concatenate([_zeros_between(a, lo, mid, M, depth - 1),
                                       _zeros_between(a, mid, hi, M, depth - 1)])
    raise RuntimeError(
        f"contour count {n} between |z| = {1 / r_hi:.17g} and {1 / r_lo:.17g} "
        f"not confirmed: neither Newton from the contour seeds nor a split of "
        f"that annulus gave {n} distinct roots of a there"
    )


def find_eigenvalues(a):
    """Roots of a(z) in the annulus 1 + 1e-6 < |z| < e^pi, by contour moments.

    Roots outside the annulus are overwhelmingly numerical artifacts of
    the truncated polynomial rather than bound states.  In w = 1/z the
    contour moments (_circle) on the annulus' two boundary circles give the
    count N and the power sums of the roots inside it; Newton's identities
    turn them into a polynomial whose roots seed Newton's method on the
    full a (Delves & Lyness, Math. Comp. 1967).  A sub-annulus with more
    than SEED_MAX roots, or whose seeds do not polish into certified roots,
    is halved at a circle in between (radial bisection) until they do.
    Each circle costs O(D log D).

    Certified: a boundary count that does not settle on an integer means
    a zero on or near the boundary (ValueError).  A sub-annulus whose
    roots are not found as that many distinct converged roots of a inside
    it raises RuntimeError.  Ordered by the eigenvalue they map to
    (imaginary part, then real part) so repeated runs and the
    norming-constant bookkeeping line up deterministically.
    """
    D = len(a)
    a = np.trim_zeros(np.asarray(a, dtype=complex), "b")
    if len(a) < 2:
        return np.array([], dtype=complex)
    M = 1 << (COUNT_GRID_FACTOR * len(a) - 1).bit_length()
    outer = _circle(a, 1.0 / ROOT_INNER, M)
    inner = _circle(a, 1.0 / ROOT_OUTER, INNER_GRID)
    if outer is None or inner is None:
        raise ValueError(
            f"the zero count of a inside |z| = "
            f"{ROOT_INNER if outer is None else ROOT_OUTER:.17g} does not "
            f"settle on an integer: zeros of a lie on or near that annulus "
            f"boundary, or a is too ill-conditioned there"
        )
    w = _zeros_between(a, (1.0 / ROOT_OUTER, *inner),
                       (1.0 / ROOT_INNER, *outer), M, SPLIT_DEPTH)
    roots = 1.0 / w
    lams = np.array([z_to_lambda(z, 1.0 / D) for z in roots])
    return roots[np.lexsort((lams.real, lams.imag))]


def norming_constants(pair, eigen_z):
    """Residue-style norming constants at simple roots of a.

    Q_k = -b(z_k) / (2 i eps z_k) / a'(z_k), requiring each z_k to be a
    root to 1e-6 and a'(z_k) = -sum_j j a_j z^{-j-1} to be comfortably nonzero.
    """
    a, b = pair.a, pair.b
    eps = 1.0 / len(a)
    zs = np.asarray(eigen_z, dtype=complex)
    av, jav, bv = poly_eval(np.stack([a, np.arange(len(a)) * a, b]), zs)
    dval = -jav / zs
    for z, res, d in zip(zs, av, dval):
        if abs(res) > ROOT_RESIDUAL_TOL:
            raise ValueError(f"z={z} is not a root of a (residual > 1e-6)")
        if abs(d) < MULTIPLE_ROOT_TOL:
            raise ValueError(f"multiple root at z={z}: derivative of a vanishes")
    return -bv / (2j * eps * zs) / dval
