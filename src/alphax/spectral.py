"""The alpha-index: largest eigenvalue of A_alpha(G) = alpha*D + (1-alpha)*A.

Graphs are split into connected components, and the (alpha, component)
pairs to solve are stacked by component order into ``np.linalg.eigh`` calls,
one alpha per matrix and never more matrices per call than there are
components of that order.  Each solve yields a value, the infinity-norm
residual ||Mx - rho x|| of the returned pair (above RESIDUAL_TOL it raises
ConvergenceError), and the Collatz-Wielandt enclosure

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

``alpha_indices`` solves only the graphs that can come first or second at
each alpha.  A graph's alpha-index is at most its degree bound

    B = max over vertices u of degree > 0 of  alpha*d(u) + (1-alpha)*S(u)/d(u),

S(u) the sum of u's neighbours' degrees, and 0 on a graph with no edge: on
each component with an edge it is the Collatz-Wielandt upper bound
max_u (Mx)_u / x_u for x the degree vector (Nikiforov, Appl. Anal. Discrete
Math. 11 (2017)), valid at alpha = 0 and 1 too.  B is widened like the
enclosures, by the graph's order.  Pass 1 solves the two graphs with the
largest B (ties by index); pass 2 solves every other graph whose B is at
least the smaller pass-1 value minus TIE_TOL.  The smaller pass-1 value is
at most the second-largest value overall, so a graph left out has
rho <= B < runner-up - TIE_TOL: it cannot be the maximum, the runner-up or
tied with the maximum, and B, which stands in for its enclosure, lies below
the maximizer's lower end.  Its value, lower end and residual read -inf and
its upper end reads B.

The test oracle ``helpers.eig_rho`` is LAPACK too, so it is not independent
of this solver: independence rests on the closed forms of the families
(acceptance criterion 01) and on the enclosure, which is checked from the
matrix and the vector alone.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .graph import Graph, bits

TIE_TOL = 1e-8  # values closer than this are reported as tied, not ordered
RESIDUAL_TOL = 1e-10  # eigh gives at most 7.1e-15 on the shipped class files, 201 alphas
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


class SpectralResult(NamedTuple):
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


class _Block(NamedTuple):
    """Components of one order: adjacency (k, n, n), degrees (k, n), the index
    of the graph each belongs to, and its vertex set in that graph."""

    adj: np.ndarray
    deg: np.ndarray
    owner: np.ndarray
    masks: tuple[int, ...]


def _adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix, read off the bitset rows."""
    rows = np.array(g.adjacency_rows(), dtype=np.uint64)
    return ((rows[:, None] >> np.arange(g.n, dtype=np.uint64)) & 1).astype(np.float64)


def _alpha_matrices(adj: np.ndarray, deg: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """A_alpha = alpha*D + (1-alpha)*A stacked, matrix i at alphas[i]: adj (k, n, n)
    with deg (k, n), or one graph's adj (n, n) with deg (n,) for every alpha."""
    mat = (1.0 - alphas[:, None, None]) * adj
    diag = np.arange(mat.shape[-1])
    mat[:, diag, diag] += alphas[:, None] * deg
    return mat


def _blocks(graphs: Sequence[Graph]) -> list[_Block]:
    """Adjacency matrices and degree vectors of every component, built once."""
    parts: dict[int, list[tuple[int, int, Graph]]] = {}
    for idx, g in enumerate(graphs):
        comps = g.component_masks()
        for mask in comps:
            sub = g if len(comps) == 1 else g.induced_subgraph(mask)
            parts.setdefault(sub.n, []).append((idx, mask, sub))
    return [
        _Block(
            np.stack([_adjacency(sub) for _, _, sub in part]),
            np.array([sub.degrees() for _, _, sub in part], dtype=np.float64),
            np.array([idx for idx, _, _ in part], dtype=np.intp),
            tuple(mask for _, mask, _ in part),
        )
        for _, part in sorted(parts.items())
    ]


def _slack(n):
    """Relative outward widening for n vertices (an int or an array)."""
    return ENCLOSURE_SLACK_ULPS * n * np.finfo(np.float64).eps


def _perron(block: _Block, comp: np.ndarray, a: np.ndarray):
    """(value, x, residual, lower, upper) of A_a on the components ``comp`` of
    the block, row i at alpha a[i]; x = |v| has unit 2-norm."""
    deg = block.deg[comp]
    value = deg.max(axis=1)  # alpha = 1: A_1 = D
    x = (deg == value[:, None]).astype(np.float64)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    residual, lower, upper = np.zeros(len(comp)), value.copy(), value.copy()
    rows = a < 1.0
    if rows.any():
        mat = _alpha_matrices(block.adj[comp[rows]], deg[rows], a[rows])
        w, v = np.linalg.eigh(mat)
        val, xs = w[:, -1], np.abs(v[:, :, -1])
        mx = (mat @ xs[:, :, None])[:, :, 0]
        res = np.max(np.abs(mx - val[:, None] * xs), axis=1)
        if res.max() > RESIDUAL_TOL:
            raise ConvergenceError(float(res.max()), RESIDUAL_TOL)
        ratio = np.divide(mx, xs, out=np.full_like(mx, np.inf), where=xs > 0.0)
        slack = _slack(deg.shape[1])
        value[rows], x[rows], residual[rows] = val, xs, res
        lower[rows], upper[rows] = ratio.min(axis=1) * (1 - slack), ratio.max(axis=1) * (1 + slack)
    return value, x, residual, lower, upper


def _degree_bounds(blocks: list[_Block], count: int, alphas: np.ndarray) -> np.ndarray:
    """max over vertices u of alpha*d(u) + (1-alpha)*S(u)/d(u), S(u) the sum of
    the neighbours' degrees, for ``count`` graphs (columns) at each alpha (rows).
    An isolated vertex contributes 0, so an edgeless graph's bound is 0."""
    a = alphas[:, None]
    out = np.zeros((len(alphas), count))
    for block in blocks:
        deg, div = block.deg, np.maximum(block.deg, 1.0)
        nbr = (block.adj @ deg[:, :, None])[:, :, 0]
        comp = np.zeros((len(alphas), len(deg)))
        for u in range(deg.shape[1]):
            np.maximum(comp, a * deg[:, u] + (1.0 - a) * nbr[:, u] / div[:, u], out=comp)
        np.maximum.at(out, (slice(None), block.owner), comp)
    return out


def _solve(blocks: list[_Block], pick: np.ndarray, alphas: np.ndarray, out: AlphaIndices):
    """Solve every component of each picked (alpha, graph) entry and fold the
    components into ``out`` by maximum.  An ``eigh`` call stacks at most as many
    matrices as the block has components, the size of a one-alpha stack."""
    for block in blocks:
        rows, comp = np.nonzero(pick[:, block.owner])
        size = len(block.owner)
        for s in range(0, len(rows), size):
            r, c = rows[s:s + size], comp[s:s + size]
            val, _, res, lo, hi = _perron(block, c, alphas[r])
            for arr, part in zip(out, (val, res, lo, hi)):
                np.maximum.at(arr, (r, block.owner[c]), part)


def alpha_indices(graphs: Sequence[Graph], alphas: Sequence[float]) -> AlphaIndices:
    """Certified alpha-index of every graph that can come first or second at
    each alpha; every other entry is pruned (see the module docstring)."""
    alphas = np.array([validate_alpha(a) for a in alphas], dtype=np.float64)
    blocks = _blocks(graphs)
    out = AlphaIndices(*(np.full((len(alphas), len(graphs)), -np.inf) for _ in range(4)))
    if not graphs:
        return out
    order = np.array([g.n for g in graphs])
    bound = _degree_bounds(blocks, len(graphs), alphas) * (1 + _slack(order))
    rows = np.arange(len(alphas))
    first = bound.argmax(axis=1)
    rest = bound.copy()
    rest[rows, first] = -np.inf
    second = rest.argmax(axis=1)
    picked = np.zeros(bound.shape, dtype=bool)
    picked[rows, first] = picked[rows, second] = True
    _solve(blocks, picked, alphas, out)
    runner_up = np.minimum(out.value[rows, first], out.value[rows, second])
    todo = (bound >= (runner_up - TIE_TOL)[:, None]) & ~picked
    _solve(blocks, todo, alphas, out)
    pruned = ~(picked | todo)
    out.upper[pruned] = bound[pruned]
    return out


def spectral_radius(g: Graph, alpha: float) -> SpectralResult:
    """Largest eigenvalue of A_alpha(g) with a Perron vector and an enclosure.

    For connected g and alpha < 1 the returned vector is strictly positive
    with unit 2-norm (at alpha = 1 it is the normalized indicator of the
    maximum-degree vertices).  For disconnected g the value is the maximum
    over components and the vector is the winning component's Perron vector
    embedded in R^n; the first component (by least vertex) wins ties.
    """
    a = validate_alpha(alpha)
    comps = []
    for b in _blocks([g]):
        every = np.arange(len(b.masks))
        comps += zip(b.masks, *_perron(b, every, np.full(len(every), a)))
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
    return float(_degree_bounds(_blocks([g]), 1, np.array([a]))[0, 0])


def bound_upper_edge(g: Graph, alpha: float) -> float:
    """Edge version of the upper bound, via average neighbour degrees m(u)."""
    a = validate_alpha(alpha)
    if g.min_degree() < 1:
        raise ValueError("edge bound needs minimum degree >= 1")
    adj = _adjacency(g)
    deg = adj.sum(axis=1)
    avg = adj @ deg / deg
    u, v = np.array(g.edges()).T
    root = np.sqrt((a * (deg[u] - deg[v])) ** 2 + 4.0 * (1.0 - a) ** 2 * avg[u] * avg[v])
    return float((0.5 * (a * (deg[u] + deg[v]) + root)).max())


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


def column_sum_certificate(g: Graph, alphas):
    """Column sums of B = A_alpha^2 - alpha*n*A_alpha + 2(2a-1)(n-2)*I, per alpha.

    Computed both from the matrix and from the closed form
    alpha*d(u)^2 + (1-alpha)*S(u) - alpha*n*d(u) + 2(2a-1)(n-2), where S(u)
    is the neighbour degree sum.  The two routes must agree to CERT_TOL at
    every alpha; any disagreement raises, since it would mean the closed
    form is wrong.  The alphas are evaluated as one numpy batch, giving one
    list of n floats per alpha.
    """
    alphas = np.array([validate_alpha(x) for x in alphas], dtype=np.float64)
    a = alphas[:, None]
    adj = _adjacency(g)
    deg = adj.sum(axis=1)
    const = 2.0 * (2.0 * a - 1.0) * (g.n - 2)
    by_formula = a * deg**2 + (1.0 - a) * (adj @ deg) - a * g.n * deg + const
    mat = _alpha_matrices(adj, deg, alphas)
    diag = np.arange(g.n)
    b = mat @ mat - (a * g.n)[:, :, None] * mat
    b[:, diag, diag] += const
    by_matrix = b.sum(axis=1)
    gap = float(np.max(np.abs(by_matrix - by_formula), initial=0.0))
    if gap > CERT_TOL:
        raise AssertionError(
            f"column-sum closed form disagrees with the matrix by {gap:.3e}"
        )
    return by_formula.tolist()
