"""Quadrature on the reference k-simplex {x >= 0, x1 + ... + xk <= 1}.

One function serves every cell: points (k = 0), segments (k = 1),
triangles (k = 2) and tetrahedra (k = 3).  Rules are parametrized by the
polynomial degree they must integrate exactly.  Triangles up to degree 6
take the symmetric rule with the fewest points whose weights are positive
and whose points lie strictly inside the cell (Dunavant, IJNME 21, 1985): 1,
3, 6, 6, 7 and 12 points at degrees 1 to 6.  Every other cell, tetrahedra
and triangles above degree 6 (where Dunavant's rule has a negative weight),
takes tensor Gauss-Legendre points on [0, 1]^k through the collapsed (Duffy)
map, which is exact for any degree at the cost of extra points; on segments
that is the Gauss-Legendre rule itself.  Every rule has positive weights and
interior points, which the time loop's residual bound relies on
(dynamics._advance).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

#: Symmetric triangle rules by the highest degree each integrates exactly:
#: orbits (weight, barycentric coordinates), each standing for the distinct
#: permutations of its coordinates; reference weights sum to 1/2.  The orbit
#: parameters solve the moment equations of the orbits (Dunavant's rules,
#: refined by Newton's method in 50-digit arithmetic) and are given to 17
#: significant digits, which name the nearest doubles.
_TRIANGLE_ORBITS = {
    1: ((0.5, (1 / 3, 1 / 3, 1 / 3)),),
    2: ((1 / 6, (0.66666666666666663, 0.16666666666666666, 0.16666666666666666)),),
    4: ((0.11169079483900574, (0.10810301816807023, 0.44594849091596489, 0.44594849091596489)),
        (0.054975871827660935, (0.81684757298045851, 0.091576213509770743,
                                0.091576213509770743))),
    5: ((0.1125, (1 / 3, 1 / 3, 1 / 3)),
        (0.066197076394253096, (0.059715871789769823, 0.47014206410511511,
                                0.47014206410511511)),
        (0.06296959027241357, (0.79742698535308731, 0.10128650732345634, 0.10128650732345634))),
    6: ((0.058393137863189684, (0.50142650965817914, 0.24928674517091043, 0.24928674517091043)),
        (0.025422453185103409, (0.87382197101699555, 0.063089014491502227,
                                0.063089014491502227)),
        (0.041425537809186785, (0.63650249912139867, 0.053145049844816945,
                                0.31035245103378439))),
}


@lru_cache(maxsize=None)
def _gauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre rule on [0, 1], shared by all rules using q."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def _symmetric_triangle(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The tabulated rule of the lowest degree >= `degree`: each orbit's
    distinct permutations (l0, l1, l2), in the order itertools gives them,
    as the reference point (l1, l2)."""
    orbits = _TRIANGLE_ORBITS[min(d for d in _TRIANGLE_ORBITS if d >= degree)]
    pts, wts = [], []
    for weight, coords in orbits:
        for perm in dict.fromkeys(itertools.permutations(coords)):
            pts.append(perm[1:])
            wts.append(weight)
    return np.array(pts), np.array(wts)


def _collapsed(k: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Duffy map: s in [0,1]^k -> x_j = s_j (1 - s_1) ... (1 - s_{j-1}), with
    Jacobian prod_j (1 - s_1) ... (1 - s_{j-1}).  A degree-d polynomial
    pulls back to degree <= d + k - 1 per variable, so q Gauss points per
    direction with 2q - 1 >= d + k - 1 suffice."""
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
    return pts, wts


@lru_cache(maxsize=None)
def simplex_rule(k: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (npts, k) and weights (npts,) on the reference k-simplex,
    exact for polynomials of `degree`; k = 0 is one point of weight 1.
    Triangles up to degree 6 take the symmetric rules of _TRIANGLE_ORBITS,
    every other cell the collapsed rule."""
    if degree < 0:
        raise ValueError("quadrature degree must be nonnegative")
    if k == 2 and degree <= max(_TRIANGLE_ORBITS):
        pts, wts = _symmetric_triangle(degree)
    else:
        pts, wts = _collapsed(k, degree)
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
