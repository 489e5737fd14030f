"""Numeric kernels on the apex frame: triangle with vertices (0, a),
(-b, 0), (c, 0), all of a, b, c positive.

``_normals`` is the one source of the sides' unit inward normals, the
gradients of the three slacks of ``side_slacks``: the objective's
gradient, the KKT multipliers and the Hessian are all written in them.
The objective and its gradient are functions of the normals, a point's
three slacks and n, so a caller that forms the slacks once reuses them
for both. ``_slacks`` and ``_normals`` take the side lengths p and q, so
a caller that needs both forms them once.

The kernels work on Python floats, except the lattice scan of the grid
oracle. That scan does not call ``side_slacks`` or ``eval_f`` on arrays:
it combines the window corners' slacks over the whole lattice in numpy
buffers it is handed. It alone imports numpy, so the float path runs
without it.
"""

import functools
import math


def side_lengths(a, b, c):
    """Lengths of the sides AB, AC and BC, A = (0, a), B = (-b, 0),
    C = (c, 0). hypot neither overflows nor underflows where a*a + b*b
    would, and scaling a, b, c by a power of two scales it exactly."""
    return math.hypot(a, b), math.hypot(a, c), b + c


def trilinear_point(a, b, c, lengths, root):
    """The point at distances h * w_i from the sides AB, AC, BC, with
    w_i = rho_i^root and rho_i = L_i / L_max for the side ``lengths``:
    the incenter for root 0, the powered-sum minimizer for root 1/(n-1).
    Returns (x, y, h, tot), tot = sum rho_i * w_i. Each rho_i and w_i is
    at most 1, and h solves sum L_i * d_i = 2 * area = a * (b + c) in the
    ratios, so no term leaves the triangle's scale."""
    l1, l2, l3 = lengths
    longest = max(lengths)
    r1, r2, r3 = l1 / longest, l2 / longest, l3 / longest
    w1, w2, w3 = r1 ** root, r2 ** root, r3 ** root
    tot = r1 * w1 + r2 * w2 + r3 * w3
    h = a * r3 / tot
    return (c * r1 * w1 - b * r2 * w2) / tot, h * w3, h, tot


def _slacks(a, b, c, p, q, x, y):
    return (a * x - b * y + a * b) / p, (-a * x - c * y + a * c) / q, y


def _normals(a, b, c, p, q):
    return (a / p, -b / p), (-a / q, -c / q), (0.0, 1.0)


def side_slacks(a, b, c, x, y):
    """Signed distances from (x, y) to the three side lines, positive inside.

    The first line runs through (0, a) and (-b, 0), the second through
    (0, a) and (c, 0), the third is the base y = 0.
    """
    p, q, _ = side_lengths(a, b, c)
    return _slacks(a, b, c, p, q, x, y)


def power_sum(slacks, n):
    """Sum of the n-th powers of the absolute slacks."""
    s1, s2, s3 = slacks
    return abs(s1) ** n + abs(s2) ** n + abs(s3) ** n


def power_sum_grad(normals, slacks, n):
    """Gradient of ``power_sum`` for n > 1: sum_i n * s_i^(n-1) * u_i.

    Slacks are clamped at zero so fractional powers stay real when a
    boundary point lands an ulp outside; the clamped value is exactly the
    one-sided derivative there.
    """
    (u1x, u1y), (u2x, u2y), (u3x, u3y) = normals
    s1, s2, s3 = slacks
    d1 = s1 ** (n - 1.0) if s1 > 0.0 else 0.0
    d2 = s2 ** (n - 1.0) if s2 > 0.0 else 0.0
    d3 = s3 ** (n - 1.0) if s3 > 0.0 else 0.0
    gx = n * u1x * d1 + n * u2x * d2 + n * u3x * d3
    gy = n * u1y * d1 + n * u2y * d2 + n * u3y * d3
    return gx, gy


def eval_f(a, b, c, n, x, y):
    """Sum of n-th powered distances from (x, y) to the three side lines."""
    return power_sum(side_slacks(a, b, c, x, y), n)


def grad_f(a, b, c, n, x, y):
    """Gradient of the powered-distance sum at (x, y), n > 1."""
    p, q, _ = side_lengths(a, b, c)
    return power_sum_grad(_normals(a, b, c, p, q), _slacks(a, b, c, p, q, x, y), n)


def _seg_closest(px, py, ax, ay, bx, by):
    vx = bx - ax
    vy = by - ay
    t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return ax + t * vx, ay + t * vy


def project_point(a, b, c, x, y):
    """Nearest point of the closed triangle; ties go to the first edge tried.

    Points inside by a roundoff-level margin are returned unchanged, which
    makes repeated projection bit-stable.
    """
    g1 = a * x - b * y + a * b
    g2 = -a * x - c * y + a * c
    e1 = 1e-14 * (a * b + abs(a * x) + abs(b * y))
    e2 = 1e-14 * (a * c + abs(a * x) + abs(c * y))
    if g1 >= -e1 and g2 >= -e2 and y >= 0.0:
        return x, y
    bx, by = _seg_closest(x, y, 0.0, a, -b, 0.0)
    bd = (bx - x) * (bx - x) + (by - y) * (by - y)
    cx, cy = _seg_closest(x, y, 0.0, a, c, 0.0)
    d = (cx - x) * (cx - x) + (cy - y) * (cy - y)
    if d < bd:
        bx, by, bd = cx, cy, d
    cx, cy = _seg_closest(x, y, -b, 0.0, c, 0.0)
    d = (cx - x) * (cx - x) + (cy - y) * (cy - y)
    if d < bd:
        bx, by, bd = cx, cy, d
    return bx, by


@functools.lru_cache(maxsize=None)
def _bary_weights(m):
    import numpy as np

    counts = np.arange(m + 1, 0, -1)
    ii = np.repeat(np.arange(m + 1), counts).astype(np.float64)
    jj = np.concatenate([np.arange(k) for k in counts]).astype(np.float64)
    kk = m - ii - jj
    inv = 1.0 / m
    return ii * inv, jj * inv, kk * inv


def lattice_scratch(m):
    """Work arrays for ``lattice_best`` at resolution m: the caller owns
    them, so concurrent scans never share one."""
    import numpy as np

    size = (m + 1) * (m + 2) // 2
    return np.empty(size), np.empty(size), np.empty(size)


def lattice_best(a, b, c, n, m, window, scratch):
    """Best point of the barycentric lattice of resolution m over the window
    triangle whose vertices are the three (x, y) pairs of ``window``;
    returns (x, y, f), lowest lattice index on ties. ``scratch`` comes from
    ``lattice_scratch(m)`` and is overwritten.

    A lattice point is wa*V1 + wb*V2 + wc*V3 and each slack is affine, so
    the point's slack is the same combination of the corners' slacks: three
    scalars per side, and no coordinates until the winner is known.
    """
    import numpy as np

    wa, wb, wc = _bary_weights(m)
    f, acc, tmp = scratch
    p, q, _ = side_lengths(a, b, c)
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    corners = zip(
        _slacks(a, b, c, p, q, w1x, w1y),
        _slacks(a, b, c, p, q, w2x, w2y),
        _slacks(a, b, c, p, q, w3x, w3y),
    )
    for side, (s1, s2, s3) in enumerate(corners):
        out = f if side == 0 else acc
        np.multiply(wa, s1, out=out)
        np.multiply(wb, s2, out=tmp)
        out += tmp
        np.multiply(wc, s3, out=tmp)
        out += tmp
        np.abs(out, out=out)
        out **= n
        if side:
            f += acc
    k = int(np.argmin(f))
    ka, kb, kc = float(wa[k]), float(wb[k]), float(wc[k])
    return (
        ka * w1x + kb * w2x + kc * w3x,
        ka * w1y + kb * w2y + kc * w3y,
        float(f[k]),
    )


def pg_minimize(a, b, c, n, x0, y0, step0, tol, max_iters):
    """Spectral projected gradient descent.

    Each iteration seeds the step with the Barzilai-Borwein quotient from
    the previous move and backtracks by halving until the value drops below
    the worst of the last ten accepted values (plus a small slope margin).
    The spectral step tracks the local curvature scale in the direction of
    travel, which matters on thin triangles where the objective valley can
    be worse than 1e5:1 anisotropic and a fixed-step method zigzags for
    millions of iterations.

    The objective is normalized by its value at the start point: a power
    sum of sub-unit distances collapses exponentially with n, and on the
    raw scale step * |grad| can sit below any fixed threshold before a
    single move is taken.  Normalization leaves the minimizer untouched
    and makes the stopping rule read as a displacement-length threshold:
    stop once step * |grad| <= tol, or at the iteration cap.

    The iteration is deterministic, and the non-monotone test can lock it
    into an exact roundoff cycle that would spin until the cap. A
    checkpoint of the state (point, step and the ten-value history),
    moved at power-of-two iteration counts (Brent's cycle finding), spots
    an exact repeat; the run then stops at the phase of the cycle where
    the cap would have stopped it, with the same best point and residual.

    Returns (x, y, f, iterations, step * |grad| at exit, capped) for the
    best point seen, with f back on the raw scale; ``capped`` says the run
    hit the cap or entered a cycle that would have run to it. Raises
    OverflowError when 1 / f at the start point is not a double.
    """
    p, q, _ = side_lengths(a, b, c)
    normals = _normals(a, b, c, p, q)
    x, y = project_point(a, b, c, x0, y0)
    sl = _slacks(a, b, c, p, q, x, y)
    f0 = power_sum(sl, n)
    inv0 = 1.0 / f0 if f0 > 0.0 else 1.0
    if not math.isfinite(inv0):
        raise OverflowError(f"1 / F = 1 / {f0!r} at the start point overflows")
    f = f0 * inv0
    gx, gy = power_sum_grad(normals, sl, n)
    gx *= inv0
    gy *= inv0
    gn = math.hypot(gx, gy)
    bx, by, bf = x, y, f
    hist = [f] * 10
    s = step0
    it = 0
    mark, span, period = 0, 1, 0
    kx, ky, ks, khist = x, y, s, list(hist)
    while it < max_iters and s * gn > tol:
        fmax = max(hist)
        while s * gn > tol:
            cx, cy = project_point(a, b, c, x - s * gx, y - s * gy)
            dx = cx - x
            dy = cy - y
            if dx != 0.0 or dy != 0.0:
                sl = _slacks(a, b, c, p, q, cx, cy)
                cf = power_sum(sl, n) * inv0
                if cf <= fmax + 1e-4 * (gx * dx + gy * dy):
                    break
            s *= 0.5
        else:
            # the step fell to the stopping threshold without a move
            break
        # the accepted point's slacks are still in sl
        ngx, ngy = power_sum_grad(normals, sl, n)
        ngx *= inv0
        ngy *= inv0
        den = dx * (ngx - gx) + dy * (ngy - gy)
        if den > 0.0:
            s = (dx * dx + dy * dy) / den
        else:
            # flat or concave sample: grow and let the search recover
            s *= 2.0
        if s > 1e30:
            s = 1e30
        elif s < 1e-30:
            s = 1e-30
        x, y, f = cx, cy, cf
        gx, gy = ngx, ngy
        gn = math.hypot(gx, gy)
        if f < bf:
            bx, by, bf = x, y, f
        hist[it % 10] = f
        it += 1
        if x == kx and y == ky and s == ks and not period:
            oldest = it % 10
            if hist[oldest:] + hist[:oldest] == khist:
                # the whole state repeats, so it would cycle up to the cap:
                # stop at the iteration of this cycle that the cap lands on
                period = it - mark
                max_iters = it + (max_iters - it) % period
        if it - mark == span:
            oldest = it % 10
            mark, span = it, 2 * span
            kx, ky, ks, khist = x, y, s, hist[oldest:] + hist[:oldest]
    return bx, by, bf / inv0, it, s * gn, it >= max_iters

