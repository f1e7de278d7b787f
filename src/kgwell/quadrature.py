"""Gauss quadrature on the reference k-simplex {x >= 0, x1 + ... + xk <= 1}.

One construction serves every cell: points (k = 0), segments (k = 1),
triangles (k = 2) and tetrahedra (k = 3).  Rules are parametrized by the
polynomial degree they must integrate exactly and are built from tensor
Gauss-Legendre points on [0, 1]^k through the collapsed (Duffy) map, which
is exact for any requested degree at the cost of a few extra points.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np


@lru_cache(maxsize=None)
def _gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre rule on [0, 1], shared by all rules using q."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def simplex_rule(k: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (npts, k) and weights (npts,) on the reference k-simplex,
    exact for polynomials of `degree`; k = 0 is one point of weight 1.

    Duffy map: s in [0,1]^k -> x_j = s_j (1 - s_1) ... (1 - s_{j-1}), with
    Jacobian prod_j (1 - s_1) ... (1 - s_{j-1}).  A degree-d polynomial
    pulls back to degree <= d + k - 1 per variable, so q Gauss points per
    direction with 2q - 1 >= d + k - 1 suffice.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    q = max((degree + k + 1) // 2, 1)
    x, w = _gauss(q)
    s = [g.ravel() for g in np.meshgrid(*[x] * k, indexing="ij")]
    ws = [g.ravel() for g in np.meshgrid(*[w] * k, indexing="ij")]
    pts = np.zeros((q ** k, k))
    wts = np.ones(q ** k)
    rest = np.ones(q ** k)  # (1 - s_1) ... (1 - s_{j-1})
    for j in range(k):
        pts[:, j] = s[j] * rest
        wts = wts * ws[j] * rest
        rest = rest * (1.0 - s[j])
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def p1_shapes(ref: np.ndarray) -> np.ndarray:
    """P1 shape values (npts, k+1) at reference points (npts, k): the
    barycentric coordinates 1 - x1 - ... - xk, x1, ..., xk."""
    first = reduce(np.subtract, ref.T, np.ones(len(ref)))  # left to right
    return np.column_stack([first, ref])


def simplex_weights(k: int, measures: np.ndarray, degree: int):
    """Rule of `degree` on k-simplices of measures (nc,), without the points:
    weights (nc, nq) absorbing the measure, and P1 values (nq, k+1) of the
    cell's own vertices."""
    ref, w = simplex_rule(k, degree)
    # reference weights sum to 1/k!, so scale by k! times the measure
    return w[None, :] * (measures * math.factorial(k))[:, None], p1_shapes(ref)


def simplex_quadrature(coords: np.ndarray, measures: np.ndarray, degree: int):
    """Rule of `degree` on k-simplices with vertices coords (nc, k+1, dim) and
    measures (nc,): points (nc, nq, dim), then simplex_weights."""
    wts, shapes = simplex_weights(coords.shape[1] - 1, measures, degree)
    return np.einsum("qk,ckd->cqd", shapes, coords), wts, shapes
