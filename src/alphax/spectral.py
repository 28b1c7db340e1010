"""The alpha-index: largest eigenvalue of A_alpha(G) = alpha*D + (1-alpha)*A.

Everything here is pure Python.  Graphs are split into connected components,
and each (alpha, component) pair is solved alone, on the component's coarsest
equitable partition: colour refinement from the unit partition
(``canonical.refine``) splits its n vertices into k cells, each vertex of
cell i having B_ij neighbours in cell j; cell i has N_i vertices of degree
d_i.  A_alpha maps the vectors constant on the cells to themselves, and the
symmetric k x k matrix M with entries alpha*d_i*[i = j] + (1-alpha)*sqrt(B_ij
B_ji), similar to the quotient alpha*diag(d) + (1-alpha)*B, holds its
largest eigenvalue (Godsil and Royle, Algebraic Graph Theory, 2001, ch. 9).
A Perron vector z of M lifts to one of A_alpha: x_v = z_i / sqrt(N_i) for v
in cell i, and ||x|| = ||z||.  F_k, K_{2,n-2} and W_n have k = 2.

M is solved by Noda's iteration (Noda, Numer. Math. 17 (1971)), a shifted
inverse iteration for the Perron pair of a nonnegative irreducible matrix.
From a positive vector z it takes the Collatz-Wielandt ratios (Mz)_i / z_i,
whose extremes enclose the largest eigenvalue,

    min_i (Mz)_i / z_i  <=  rho(M)  <=  max_i (Mz)_i / z_i  =  sigma,

solves (sigma*I - M) y = z by Gaussian elimination without pivoting, and
moves to z = y / ||y||.  For sigma > rho, sigma*I - M is a nonsingular
M-matrix: every pivot is positive, every multiplier and every update has one
sign, so y > 0, and sigma falls to rho quadratically.  Once sigma equals rho
to the last bits, the last pivot rounds to zero or below it; each pivot is
floored at eps*sigma, and the step then acts as inverse iteration at an
exact shift and sharpens z instead of failing.  The unknowns are eliminated
in ascending order of z, so that this pivot belongs to the largest entry:
near alpha = 1 a Perron vector can span nine orders of magnitude, and a
small entry eliminated last is lost in the rounding of the pivots before it.

The iteration stops when the ratios agree to STOP_ULPS * n machine epsilons
of sigma, above their rounding noise of about (k + 1) eps.  A first solve,
like ``spectral_radius``, starts from the degree vector, z_i = sqrt(N_i) d_i;
``alpha_indices`` starts each other one from the Lagrange extrapolation to
the new alpha of the (alpha, z) ends of the component's last PATH_POINTS
solves while alpha moves one way (the last alone after a reversal or a
repeated alpha), or from the last z where an entry of that is not positive.
Only the start moves, so every certificate below is as rigorous as before.
On every member of data/min2ec_n{8..12}.g6 at alpha = i/200 a warm solve took
1.0-1.1 steps on average (2.9-3.6 from the last z alone), a cold one at most
7; a poor positive prediction near alpha = 1 took up to 18.  MAX_ITERATIONS
caps it.

The certificate is taken on A_alpha itself, from the lifted x alone: the
value, its Rayleigh quotient x^T A_alpha x / x^T x, both sums exact
(math.fsum), since the lift has unit norm only to rounding; the
infinity-norm residual ||A_alpha x - rho x||, above RESIDUAL_TOL a
ConvergenceError (so cells that are not equitable are caught); and the
enclosure, the extreme ratios (A_alpha x)_v / x_v.  It holds for any
positive x because A_alpha is nonnegative and, for a connected graph with
alpha < 1, irreducible.  The interval is widened outward by
ENCLOSURE_SLACK_ULPS * n machine epsilons of its magnitude, which covers
the rounding in A_alpha, A_alpha x and the ratios (about (n + 2) eps / 2
relative, all terms being nonnegative).

At alpha = 1, A_1 = D is reducible, so rho is the maximum degree with the
exact enclosure [Delta, Delta], and the component's path is left as it was.
A disconnected graph takes the maximum over its components, with the
enclosure [max lo, max hi]; K_1 is the 1x1 zero matrix.

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

The test oracle ``helpers.eig_rho`` is a LAPACK eigensolve of a matrix the
tests build edge by edge, so it is independent of this solver; so are the
closed forms of the families (acceptance criterion 01), and the enclosure
is checked from the matrix and the vector alone.
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import NamedTuple, Sequence

from .canonical import refine
from .graph import Graph, bits

TIE_TOL = 1e-8  # values closer than this are reported as tied, not ordered
RESIDUAL_TOL = 1e-10  # Noda gives at most 1.7e-14 on data/min2ec_n{8..11}.g6, 201 alphas
ENCLOSURE_SLACK_ULPS = 8  # per vertex, relative to the enclosure's magnitude
STOP_ULPS = 4  # per vertex: the ratios' spread, relative to sigma, that ends a solve
MAX_ITERATIONS = 32  # Noda steps per solve; the residual check judges the last iterate
PATH_POINTS = 6  # the solves along alpha that a component's next start is extrapolated from
EPS = sys.float_info.epsilon


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
    perron: list[float]
    residual: float
    lower: float
    upper: float


class AlphaIndices(NamedTuple):
    """One row per alpha with one float per graph; ``residual`` is the largest
    among a graph's component solves."""

    value: list[list[float]]
    residual: list[list[float]]
    lower: list[list[float]]
    upper: list[list[float]]


class _Component(NamedTuple):
    """A connected component: its vertex set in the graph; its degrees and
    neighbour lists relabelled 0..n-1 in vertex order; and its cells 0..k-1
    (``_components`` gives the coarsest equitable partition): each vertex's
    cell, each cell's size N_i and degree d_i, and sqrt(B_ij * B_ji) for every
    cell pair, B_ij the neighbours in cell j of the first vertex of cell i."""

    mask: int
    deg: list[int]
    nbrs: list[list[int]]
    cell: list[int]
    size: list[int]
    cdeg: list[int]
    root: list[list[float]]


def _component(mask: int, nbrs: list[list[int]], cell: list[int]) -> _Component:
    """The component with the given cells, its quotient read off each cell's first vertex."""
    k = max(cell) + 1
    count = [[0] * k for _ in range(k)]
    for i, row in enumerate(count):
        for w in nbrs[cell.index(i)]:
            row[cell[w]] += 1
    return _Component(mask, [len(nb) for nb in nbrs], nbrs, cell,
                      [cell.count(i) for i in range(k)], [sum(row) for row in count],
                      [[math.sqrt(u * v) for u, v in zip(row, col)]
                       for row, col in zip(count, zip(*count))])


def _components(g: Graph) -> list[_Component]:
    """Each component with its coarsest equitable partition."""
    rows = g.adjacency_rows()
    comps = []
    for mask in g.component_masks():
        index = {v: i for i, v in enumerate(bits(mask))}
        nbrs = [[index[w] for w in bits(rows[v])] for v in index]
        comps.append(_component(mask, nbrs, refine([0] * len(nbrs), nbrs)))
    return comps


def _slack(n: int) -> float:
    """Relative outward widening for n vertices."""
    return ENCLOSURE_SLACK_ULPS * n * EPS


def _shifted_solve(mat: list[list[float]], sigma: float, rhs: list[float]) -> list[float]:
    """y with (sigma*I - mat) y = rhs, for a symmetric mat and a positive rhs.

    Gaussian elimination without pivoting, on the upper triangle only: every
    Schur complement is symmetric too.  A pivot below eps*sigma is raised to it.
    The unknowns are eliminated in ascending order of rhs, so that the largest
    entry of the Perron vector comes last: once sigma reaches rho, only the
    last pivot is near zero, and the others keep their accuracy."""
    n = len(rhs)
    order = sorted(range(n), key=rhs.__getitem__)
    rows = [[-mat[i][j] for j in order] for i in order]
    for i in range(n):
        rows[i][i] += sigma
    y = [rhs[i] for i in order]
    floor = EPS * sigma
    for k, row in enumerate(rows):
        pivot = row[k] = max(row[k], floor)
        for i in range(k + 1, n):
            f = row[i] / pivot
            if f:
                other = rows[i]
                other[i:] = [u - f * v for u, v in zip(other[i:], row[i:])]
                y[i] -= f * y[k]
    for k in range(n - 1, -1, -1):
        row = rows[k]
        y[k] = (y[k] - sum(map(mul, row[k + 1:], y[k + 1:]))) / row[k]
    return [t for _, t in sorted(zip(order, y))]


def _perron(comp: _Component, a: float, start: list[float] | None = None):
    """(value, z, x, residual, lower, upper) of A_a on one component.

    Noda's iteration runs on the symmetrized quotient from the positive
    quotient vector ``start``, or from the degree vector's if it is None; z is
    its last iterate (None where no iteration runs), and x the lift
    of z to the component, with unit 2-norm and positive where A_a is
    irreducible.  The value, residual and enclosure are taken on A_a itself."""
    deg = comp.deg
    n = len(deg)
    if a == 1.0 or n == 1:  # A_1 = D, and K_1 is the zero matrix
        top = max(deg)
        x = [float(d == top) for d in deg]
        scale = math.sqrt(sum(x))
        value = float(top)
        return value, None, [t / scale for t in x], 0.0, value, value
    b = 1.0 - a
    mat = [[b * r for r in row] for row in comp.root]
    for i, d in enumerate(comp.cdeg):
        mat[i][i] += a * d
    z = start or [math.sqrt(s) * d for s, d in zip(comp.size, comp.cdeg)]
    for step in range(MAX_ITERATIONS + 1):
        scale = math.hypot(*z)
        z = [t / scale for t in z]
        ratios = [sum(map(mul, row, z)) / t for row, t in zip(mat, z)]
        lo, sigma = min(ratios), max(ratios)
        if sigma - lo <= STOP_ULPS * n * EPS * sigma or step == MAX_ITERATIONS:
            break
        z = _shifted_solve(mat, sigma, z)
    y = [t / math.sqrt(s) for t, s in zip(z, comp.size)]
    x = [y[c] for c in comp.cell]
    mx = [a * d * t + b * sum([x[w] for w in nb]) for d, t, nb in zip(deg, x, comp.nbrs)]
    ratios = [m / t for m, t in zip(mx, x)]
    value = math.fsum(map(mul, x, mx)) / math.fsum(map(mul, x, x))  # the Rayleigh quotient
    residual = max(abs(m - value * t) for m, t in zip(mx, x))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(residual, RESIDUAL_TOL)
    slack = _slack(n)
    return value, z, x, residual, min(ratios) * (1 - slack), max(ratios) * (1 + slack)


def _extrapolate(run: list[tuple[float, list[float]]], a: float) -> list[float] | None:
    """The start at a from a run of (alpha, z) points: their Lagrange extrapolation
    to a, or the last z if that has an entry <= 0 or the run one point; None if empty."""
    if len(run) < 2:
        return run[-1][1] if run else None
    weights = [math.prod([(a - u) / (t - u) for u, _ in run if u != t]) for t, _ in run]
    z = [sum(map(mul, weights, entries)) for entries in zip(*[v for _, v in run])]
    return z if min(z) > 0 else run[-1][1]


def _neighbour_sums(g: Graph) -> list[int]:
    """S(u), the sum of u's neighbours' degrees, for every vertex u."""
    deg = g.degrees()
    return [sum(deg[w] for w in bits(row)) for row in g.adjacency_rows()]


def _degree_terms(g: Graph) -> set[tuple[int, int]]:
    """The distinct (d(u), S(u)) over the vertices u of degree > 0."""
    return {(d, s) for d, s in zip(g.degrees(), _neighbour_sums(g)) if d}


def _degree_bound(terms: set[tuple[int, int]], a: float) -> float:
    """max over the terms of a*d + (1-a)*S/d, or 0 if there is none."""
    b = 1.0 - a
    return max([a * d + b * s / d for d, s in terms], default=0.0)


def alpha_indices(graphs: Sequence[Graph], alphas: Sequence[float]) -> AlphaIndices:
    """Certified alpha-index of every graph that can come first or second at
    each alpha; every other entry is pruned (see the module docstring)."""
    alphas = [validate_alpha(a) for a in alphas]
    count = len(graphs)
    out = AlphaIndices(*([[-math.inf] * count for _ in alphas] for _ in range(4)))
    if not graphs:
        return out
    comps = [_components(g) for g in graphs]
    paths = [[[] for _ in c] for c in comps]  # each component's last (alpha, quotient vector)s
    terms = [_degree_terms(g) for g in graphs]
    widen = [1 + _slack(g.n) for g in graphs]

    def solve(row: int, col: int, a: float) -> None:
        for comp, path in zip(comps[col], paths[col]):
            ahead = len(path) > 1 and (a - path[-1][0]) * (path[-1][0] - path[0][0]) > 0
            run = path if ahead else path[-1:]  # the last point alone after a reversal or a repeat
            value, z, _, residual, lower, upper = _perron(comp, a, _extrapolate(run, a))
            if z is not None:  # None where no iteration ran: alpha = 1, K_1
                path[:] = [*(p for p in run if p[0] != a), (a, z)][-PATH_POINTS:]
            for field, part in zip(out, (value, residual, lower, upper)):
                field[row][col] = max(field[row][col], part)

    for row, a in enumerate(alphas):
        bound = [_degree_bound(t, a) * w for t, w in zip(terms, widen)]
        first = max(range(count), key=bound.__getitem__)
        second = max((j for j in range(count) if j != first), key=bound.__getitem__,
                     default=first)
        picked = {first, second}
        for col in picked:
            solve(row, col, a)
        values = out.value[row]
        floor = min(values[first], values[second]) - TIE_TOL
        for col in range(count):
            if col in picked:
                continue
            if bound[col] >= floor:
                solve(row, col, a)
            else:
                out.upper[row][col] = bound[col]
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
    solved = [(comp.mask, *_perron(comp, a)) for comp in _components(g)]
    mask, radius, _, x, residual, _, _ = max(solved, key=lambda c: c[1])
    vec = [0.0] * g.n
    for v, t in zip(bits(mask), x):
        vec[v] = t
    lower, upper = (max(c[k] for c in solved) for k in (5, 6))
    return SpectralResult(radius, vec, residual, lower, upper)


# -- closed-form bounds ----------------------------------------------------


def bound_upper_degree(g: Graph, alpha: float) -> float:
    """max_u of alpha*d(u) + (1-alpha)/d(u) * sum of neighbour degrees.

    Valid upper bound for rho_alpha on graphs with minimum degree >= 1; for
    alpha in (1/2, 1) and connected g it is tight exactly on regular graphs.
    """
    a = validate_alpha(alpha)
    if g.min_degree() < 1:
        raise ValueError("degree bound needs minimum degree >= 1")
    return _degree_bound(_degree_terms(g), a)


def bound_upper_edge(g: Graph, alpha: float) -> float:
    """Edge version of the upper bound, via average neighbour degrees m(u)."""
    a = validate_alpha(alpha)
    if g.min_degree() < 1:
        raise ValueError("edge bound needs minimum degree >= 1")
    deg = g.degrees()
    avg = [s / d for s, d in zip(_neighbour_sums(g), deg)]
    best = -math.inf
    for u, v in g.edges():
        t = a * (deg[u] - deg[v])
        root = math.sqrt(t * t + 4.0 * (1.0 - a) ** 2 * avg[u] * avg[v])
        best = max(best, 0.5 * (a * (deg[u] + deg[v]) + root))
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


def _column_sum_lines(g: Graph) -> list[tuple[int, int]]:
    """Each column sum of B as (c0, c1), the sum being c0 + c1*alpha, checked
    against the matrix route in Z[alpha] (see ``column_sum_certificate``)."""
    n = g.n
    deg = g.degrees()
    nbrs = [list(bits(row)) for row in g.adjacency_rows()]
    col = [(len(nb), d - len(nb)) for d, nb in zip(deg, nbrs)]  # c_u as c0 + c1*alpha
    m = 2 * (n - 2)  # the constant 2(2a-1)(n-2) is 2m*alpha - m
    lines = []
    for u, (d, s, nb, (c0, c1)) in enumerate(zip(deg, _neighbour_sums(g), nbrs, col)):
        e0, e1 = sum(col[w][0] for w in nb), sum(col[w][1] for w in nb)
        # column u of cA_alpha is c_u*(d*alpha) + the sum over w of c_w*(1 - alpha)
        by_matrix = (e0 - m, c0 * d + e1 - e0 - n * c0 + 2 * m, c1 * d - e1 - n * c1)
        closed = (s - m, d * d - s - n * d + 2 * m, 0)
        if by_matrix != closed:
            raise AssertionError(
                f"column-sum closed form {closed} disagrees with the matrix {by_matrix}"
                f" at vertex {u} (coefficients of 1, alpha, alpha^2)"
            )
        lines.append(closed[:2])
    return lines


def column_sum_certificate(g: Graph, alphas) -> list[list[float]]:
    """Column sums of B = A_alpha^2 - alpha*n*A_alpha + 2(2a-1)(n-2)*I, per alpha.

    One list of n floats per alpha, from the closed form
    alpha*d(u)^2 + (1-alpha)*S(u) - alpha*n*d(u) + 2(2a-1)(n-2), S(u) the
    neighbour degree sum.  Once per call the closed form is checked against
    the matrix exactly, in Z[alpha]: A_alpha has d(u)*alpha on the diagonal and
    1 - alpha at each edge, so the matrix route, the column sums c of A_alpha
    and then cA_alpha - alpha*n*c plus the constant (1^T A^2 = (1^T A) A),
    gives each column sum of B as integer coefficients of 1, alpha, alpha^2.
    Any difference from the closed form's raises AssertionError; equal
    polynomials agree at every alpha.  Per alpha only the closed form is
    evaluated, so the floats do not depend on the check.
    """
    alphas = [validate_alpha(x) for x in alphas]
    _column_sum_lines(g)
    n = g.n
    deg = g.degrees()
    sums = _neighbour_sums(g)
    squares = [d * d for d in deg]
    out = []
    for a in alphas:
        b = 1.0 - a
        an = a * n
        const = 2.0 * (2.0 * a - 1.0) * (n - 2)
        out.append([a * dd + b * s - an * d + const for d, dd, s in zip(deg, squares, sums)])
    return out


def column_sums_negative(g: Graph, alphas) -> bool:
    """Whether every column sum of B is negative at every alpha, decided exactly:
    the identity check of ``column_sum_certificate`` proves each sum affine,
    c0 + c1*alpha, so it is negative on the grid iff it is at the grid's ends,
    each read as the exact ratio p/q of its float: q*c0 + p*c1 < 0."""
    alphas = sorted(validate_alpha(x) for x in alphas)
    ends = [a.as_integer_ratio() for a in alphas[:1] + alphas[-1:]]
    return all(q * c0 + p * c1 < 0 for c0, c1 in _column_sum_lines(g) for p, q in ends)
