"""Numeric kernels on the apex frame: triangle with vertices (0, a),
(-b, 0), (c, 0), all of a, b, c positive.

``side_slacks`` and ``eval_f`` work elementwise on numpy arrays as well as
on floats; the lattice scan uses them that way. numpy is imported by the
lattice scan alone, so the float path runs without it.
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


def side_slacks(a, b, c, x, y):
    """Signed distances from (x, y) to the three side lines, positive inside.

    The first line runs through (0, a) and (-b, 0), the second through
    (0, a) and (c, 0), the third is the base y = 0.
    """
    p, q, _ = side_lengths(a, b, c)
    return _slacks(a, b, c, p, q, x, y)


def eval_f(a, b, c, n, x, y):
    """Sum of n-th powered distances from (x, y) to the three side lines."""
    s1, s2, s3 = side_slacks(a, b, c, x, y)
    return abs(s1) ** n + abs(s2) ** n + abs(s3) ** n


def grad_f(a, b, c, n, x, y):
    """Gradient of the powered-distance sum, n > 1.

    Slacks are clamped at zero so fractional powers stay real when a
    boundary point lands an ulp outside; the clamped value is exactly the
    one-sided derivative there.
    """
    p, q, _ = side_lengths(a, b, c)
    u, v, w = _slacks(a, b, c, p, q, x, y)
    du = u ** (n - 1.0) if u > 0.0 else 0.0
    dv = v ** (n - 1.0) if v > 0.0 else 0.0
    dw = w ** (n - 1.0) if w > 0.0 else 0.0
    gx = n * (a / p) * du - n * (a / q) * dv
    gy = -n * (b / p) * du - n * (c / q) * dv + n * dw
    return gx, gy


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


def lattice_best(a, b, c, n, m, window):
    """Best point of the barycentric lattice of resolution m over the window
    triangle whose vertices are the three (x, y) pairs of ``window``;
    returns (x, y, f), lowest lattice index on ties."""
    import numpy as np

    wa, wb, wc = _bary_weights(m)
    (w1x, w1y), (w2x, w2y), (w3x, w3y) = window
    x = wa * w1x + wb * w2x + wc * w3x
    y = wa * w1y + wb * w2y + wc * w3y
    f = eval_f(a, b, c, n, x, y)
    k = int(np.argmin(f))
    return float(x[k]), float(y[k]), float(f[k])


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
    stop once step * |grad| <= tol, or at the iteration cap.  Returns
    (x, y, f, iterations, step * |grad| at exit) for the best point seen,
    with f back on the raw scale.
    """
    x, y = project_point(a, b, c, x0, y0)
    f0 = eval_f(a, b, c, n, x, y)
    inv0 = 1.0 / f0 if f0 > 0.0 else 1.0
    f = f0 * inv0
    gx, gy = grad_f(a, b, c, n, x, y)
    gx *= inv0
    gy *= inv0
    gn = math.hypot(gx, gy)
    bx, by, bf = x, y, f
    hist = [f] * 10
    s = step0
    it = 0
    while it < max_iters and s * gn > tol:
        fmax = max(hist)
        while s * gn > tol:
            cx, cy = project_point(a, b, c, x - s * gx, y - s * gy)
            dx = cx - x
            dy = cy - y
            if dx != 0.0 or dy != 0.0:
                cf = eval_f(a, b, c, n, cx, cy) * inv0
                if cf <= fmax + 1e-4 * (gx * dx + gy * dy):
                    break
            s *= 0.5
        else:
            # the step fell to the stopping threshold without a move
            break
        ngx, ngy = grad_f(a, b, c, n, cx, cy)
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
    return bx, by, bf / inv0, it, s * gn

