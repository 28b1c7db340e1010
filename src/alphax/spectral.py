"""The alpha-index: largest eigenvalue of A_alpha(G) = alpha*D + (1-alpha)*A.

Graphs are split into connected components, components of equal order are
stacked, and each alpha sends the whole stack through one ``np.linalg.eigh``
call.  Each solve yields a value, the infinity-norm residual ||Mx - rho x||
of the returned pair (above ``tol`` it raises ConvergenceError), and the
Collatz-Wielandt enclosure

    min_i (Mx)_i / x_i  <=  rho(M)  <=  max_i (Mx)_i / x_i

for x = |v|, v the top eigenvector.  It holds for any positive x because M is
nonnegative and, for a connected graph with alpha < 1, irreducible; a zero
entry of x makes the upper bound +inf.  The interval is widened outward by
ENCLOSURE_SLACK_ULPS * n machine epsilons of its magnitude.  That covers the
rounding in M, Mx and the ratios (about (n + 2) eps / 2 relative, all terms
being nonnegative) and the error of the LAPACK eigenvalue: unwidened, the
interval missed the ``eigvalsh`` value by up to 0.5 * n * eps relative, on
the shipped n=8 class over 385 alphas and on 400 random graphs, n <= 12.

At alpha = 1, A_1 = D is reducible, so rho is the maximum degree with the
exact enclosure [Delta, Delta].  A disconnected graph takes the maximum over
its components, with the enclosure [max lo, max hi]; K_1 is the 1x1 zero
matrix.

The test oracle ``helpers.eig_rho`` is LAPACK too, so it is not independent
of this solver: independence rests on the closed forms of the families
(acceptance criterion 01) and on the enclosure, which is checked from the
matrix and the vector alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .graph import Graph, bits, neighbor_degree_sum

DEFAULT_TOL = 1e-10
CERT_TOL = 1e-9  # max allowed gap between matrix and closed-form column sums
ENCLOSURE_SLACK_ULPS = 8  # per vertex, relative to the enclosure's magnitude


def validate_alpha(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return a


class ConvergenceError(RuntimeError):
    """An eigenpair missed the residual target."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"eigenpair residual {residual:.3e} exceeds the target {tol:.1e}")
        self.residual = residual
        self.tol = tol


@dataclass(frozen=True)
class SpectralResult:
    radius: float
    perron: np.ndarray
    residual: float
    lower: float
    upper: float


class AlphaIndices(NamedTuple):
    """Arrays of shape (len(alphas), len(graphs)); ``residual`` is the largest
    among a graph's component solves."""

    value: np.ndarray
    residual: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def build_alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    a = validate_alpha(alpha)
    mat = (1.0 - a) * g.adjacency_matrix()
    mat[np.diag_indices(g.n)] += a * np.asarray(g.degrees(), dtype=np.float64)
    return mat


class _Block(NamedTuple):
    """Components of one order: adjacency (k, n, n), degrees (k, n), the index
    of the graph each belongs to, and its vertex set in that graph."""

    adj: np.ndarray
    deg: np.ndarray
    owner: np.ndarray
    masks: tuple[int, ...]


def _blocks(graphs: Sequence[Graph]) -> list[_Block]:
    """Adjacency matrices and degree vectors of every component, built once."""
    parts: dict[int, list[tuple[int, int, Graph]]] = {}
    for idx, g in enumerate(graphs):
        if g.n == 0:
            raise ValueError("the alpha-index of the empty graph is undefined")
        comps = g.component_masks()
        for mask in comps:
            sub = g if len(comps) == 1 else g.induced_subgraph(mask)
            parts.setdefault(sub.n, []).append((idx, mask, sub))
    return [
        _Block(
            np.stack([sub.adjacency_matrix() for _, _, sub in part]),
            np.array([sub.degrees() for _, _, sub in part], dtype=np.float64),
            np.array([idx for idx, _, _ in part], dtype=np.intp),
            tuple(mask for _, mask, _ in part),
        )
        for _, part in sorted(parts.items())
    ]


def _perron(block: _Block, a: float, tol: float):
    """(value, x, residual, lower, upper) of A_a on each stacked component;
    x = |v| has unit 2-norm."""
    deg = block.deg
    if a == 1.0:
        top = deg.max(axis=1)
        x = (deg == top[:, None]).astype(np.float64)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        return top, x, np.zeros(len(top)), top, top
    mat = (1.0 - a) * block.adj
    diag = np.arange(deg.shape[1])
    mat[:, diag, diag] += a * deg
    w, v = np.linalg.eigh(mat)
    value, x = w[:, -1], np.abs(v[:, :, -1])
    mx = (mat @ x[:, :, None])[:, :, 0]
    residual = np.max(np.abs(mx - value[:, None] * x), axis=1)
    if residual.max() > tol:
        raise ConvergenceError(float(residual.max()), tol)
    ratio = np.divide(mx, x, out=np.full_like(mx, np.inf), where=x > 0.0)
    slack = ENCLOSURE_SLACK_ULPS * len(diag) * np.finfo(np.float64).eps
    lower, upper = ratio.min(axis=1) * (1 - slack), ratio.max(axis=1) * (1 + slack)
    return value, x, residual, lower, upper


def alpha_indices(
    graphs: Sequence[Graph], alphas: Sequence[float], tol: float = DEFAULT_TOL
) -> AlphaIndices:
    """Certified alpha-index of every graph at every alpha.

    One ``eigh`` call per (alpha, component order): the stack never holds
    more than one alpha, which keeps the peak memory at one class's worth.
    """
    alphas = [validate_alpha(a) for a in alphas]
    blocks = _blocks(graphs)
    out = AlphaIndices(*(np.full((len(alphas), len(graphs)), -np.inf) for _ in range(4)))
    for i, a in enumerate(alphas):
        for block in blocks:
            val, _, res, lo, hi = _perron(block, a, tol)
            for arr, part in zip(out, (val, res, lo, hi)):
                np.maximum.at(arr[i], block.owner, part)
    return out


def spectral_radius(g: Graph, alpha: float, *, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of A_alpha(g) with a Perron vector and an enclosure.

    For connected g and alpha < 1 the returned vector is strictly positive
    with unit 2-norm (at alpha = 1 it is the normalized indicator of the
    maximum-degree vertices).  For disconnected g the value is the maximum
    over components and the vector is the winning component's Perron vector
    embedded in R^n; the first component (by least vertex) wins ties.
    """
    a = validate_alpha(alpha)
    comps = [c for b in _blocks([g]) for c in zip(b.masks, *_perron(b, a, tol))]
    comps.sort(key=lambda c: c[0] & -c[0])  # by least vertex
    mask, radius, x, residual, _, _ = max(comps, key=lambda c: c[1])
    vec = np.zeros(g.n)
    vec[list(bits(mask))] = x
    lower, upper = (float(max(c[k] for c in comps)) for k in (4, 5))
    return SpectralResult(float(radius), vec, float(residual), lower, upper)


# -- closed-form bounds ----------------------------------------------------


def bound_upper_degree(g: Graph, alpha: float) -> float:
    """max_u of alpha*d(u) + (1-alpha)/d(u) * sum of neighbour degrees.

    Valid upper bound for rho_alpha on graphs with minimum degree >= 1; for
    alpha in (1/2, 1) and connected g it is tight exactly on regular graphs.
    """
    a = validate_alpha(alpha)
    if g.min_degree() < 1:
        raise ValueError("degree bound needs minimum degree >= 1")
    return max(
        a * g.degree(u) + (1.0 - a) * neighbor_degree_sum(g, u) / g.degree(u)
        for u in range(g.n)
    )


def bound_upper_edge(g: Graph, alpha: float) -> float:
    """Edge version of the upper bound, via average neighbour degrees m(u)."""
    a = validate_alpha(alpha)
    if g.min_degree() < 1:
        raise ValueError("edge bound needs minimum degree >= 1")
    best = 0.0
    for u, v in g.edges():
        du, dv = g.degree(u), g.degree(v)
        mu = neighbor_degree_sum(g, u) / du
        mv = neighbor_degree_sum(g, v) / dv
        val = 0.5 * (
            a * (du + dv)
            + np.sqrt((a * (du - dv)) ** 2 + 4.0 * (1.0 - a) ** 2 * mu * mv)
        )
        best = max(best, val)
    return best


def bound_lower_delta(g: Graph, alpha: float) -> float:
    """Lower bound from the maximum degree, with a branch at alpha = 1/2.  Both
    branches rest on a star K_{1,Delta}; with no edge A_alpha = 0, and so is the bound."""
    a = validate_alpha(alpha)
    big_delta = g.max_degree()
    if big_delta == 0:
        return 0.0
    if a <= 0.5:
        return a * (big_delta + 1)
    return a * big_delta + (1.0 - a) ** 2 / a


# -- column-sum certificate ------------------------------------------------


def column_sum_certificate(g: Graph, alpha):
    """Column sums of B = A_alpha^2 - alpha*n*A_alpha + 2(2a-1)(n-2)*I.

    Computed both from the matrix and from the closed form
    alpha*d(u)^2 + (1-alpha)*S(u) - alpha*n*d(u) + 2(2a-1)(n-2), where S(u)
    is the neighbour degree sum.  The two routes must agree to CERT_TOL at
    every alpha; any disagreement raises, since it would mean the closed
    form is wrong.  A single alpha gives a list of n floats; a sequence of
    alphas is evaluated as one numpy batch and gives one such list per alpha.
    """
    if np.ndim(alpha) == 0:
        return column_sum_certificate(g, [alpha])[0]
    a = np.array([validate_alpha(x) for x in alpha], dtype=np.float64)[:, None]
    deg = np.array(g.degrees(), dtype=np.int64)
    nbr = np.array([neighbor_degree_sum(g, u) for u in range(g.n)], dtype=np.int64)
    const = 2.0 * (2.0 * a - 1.0) * (g.n - 2)
    by_formula = a * deg**2 + (1.0 - a) * nbr - a * g.n * deg + const
    mat = (1.0 - a[:, :, None]) * g.adjacency_matrix()
    diag = np.arange(g.n)
    mat[:, diag, diag] += a * deg
    b = mat @ mat - (a * g.n)[:, :, None] * mat
    b[:, diag, diag] += const
    by_matrix = b.sum(axis=1)
    gap = float(np.max(np.abs(by_matrix - by_formula), initial=0.0))
    if gap > CERT_TOL:
        raise AssertionError(
            f"column-sum closed form disagrees with the matrix by {gap:.3e}"
        )
    return by_formula.tolist()
