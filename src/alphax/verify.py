"""Extremal search campaigns over enumerated classes, with machine reports.

A campaign fixes a class and an order n, evaluates the alpha-index of every
member over an alpha grid, and compares the maximizer against the expected
extremal graph and its closed-form value.  One SearchReport is produced per
(class, n, alpha).  Values closer than TIE_TOL are treated as numerically
tied rather than strictly ordered; ties are reported, not asserted away.
A maximizer is certified unique when the lower end of its enclosure lies
above the upper end of every other member's enclosure.

Report serialization is deterministic: members are already in canonical
order, floats are rounded to 9 significant digits, and the keys are tool and
version followed by SearchReport's fields in declaration order.  The
runtime_ms field is the one exception, it obviously varies run to run.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields
from typing import Callable

from . import __version__, families
from .canonical import canonical_form
from .connectivity import has_chorded_cycle
from .enumeration import ClassFilter, enumerate_class, generation_notes, ingest_class
from .graph import Graph, all_cycles
from .graph6 import write_graph6
# spectral_radius is unused here but stays a name of this module, where
# bench/tracer.py looks it up.
from .spectral import DEFAULT_TOL, alpha_indices, spectral_radius  # noqa: F401

TOOL_NAME = "alphax"
TOOL_VERSION = __version__
TIE_TOL = 1e-8
VALUE_TOL = 1e-8
REPORT_HEADER = {"tool": TOOL_NAME, "version": TOOL_VERSION}
RENAMED_KEYS = {"class_name": "class"}
ROUNDED_KEYS = ("max_value", "expected_value", "runner_up_value", "spectral_gap")


class UsageError(ValueError):
    """Invalid request (bad n, alpha outside the supported range, ...)."""


def _round9(x: float | None) -> float | None:
    if x is None:
        return None
    return float(f"{x:.9g}")


@dataclass(frozen=True)
class SearchReport:
    class_name: str
    k: int
    n: int
    alpha: float
    alpha_grid: tuple[float, ...]
    class_size: int
    max_value: float
    argmax_canonical: str
    argmax_matches_expected: bool
    expected_canonical: str
    expected_value: float
    runner_up_value: float | None
    spectral_gap: float | None
    ties_within_tolerance: int
    pruning: tuple[str, ...]
    source: str
    certified_unique: bool
    runtime_ms: int

    @property
    def violation(self) -> bool:
        return (not self.argmax_matches_expected
                or abs(self.max_value - self.expected_value) > VALUE_TOL)

    @property
    def verdict(self) -> str:
        """VIOLATION, tie xN (N other members within TIE_TOL of the maximum),
        uncertified (enclosures do not separate the maximizer), or ok."""
        if self.violation:
            return "VIOLATION"
        if self.ties_within_tolerance:
            return f"tie x{self.ties_within_tolerance}"
        return "ok" if self.certified_unique else "uncertified"

    def to_dict(self) -> dict:
        row = dict(REPORT_HEADER)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ROUNDED_KEYS:
                value = _round9(value)
            row[RENAMED_KEYS.get(f.name, f.name)] = (
                list(value) if isinstance(value, tuple) else value)
        return row


CSV_COLUMNS = [*REPORT_HEADER,
               *(RENAMED_KEYS.get(f.name, f.name) for f in fields(SearchReport))]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        row = r.to_dict()
        for key, value in row.items():
            if isinstance(value, list):
                row[key] = ";".join(map(str, value))
            elif key in ROUNDED_KEYS and value is not None:
                row[key] = f"{value:.9g}"
        writer.writerow(row)
    return buf.getvalue()


def certified_unique(lower, upper, winner: int) -> bool:
    """The winner's lower bound exceeds every other member's upper bound."""
    return all(lower[winner] > hi for i, hi in enumerate(upper) if i != winner)


def exit_code(reports) -> int:
    """1 if any verdict is VIOLATION, 0 if every verdict is ok, 2 otherwise."""
    verdicts = {r.verdict for r in reports}
    if "VIOLATION" in verdicts:
        return 1
    return 0 if verdicts <= {"ok"} else 2


@dataclass(frozen=True)
class Theorem:
    """One maximizer claim: over the class at every order n that ``order_ok``
    admits, ``expected(n)`` attains the largest alpha-index, whose value is
    ``closed_form(n, alpha)``, for every alpha in [1/2, 1)."""

    flt: ClassFilter
    order_ok: Callable[[int], bool]
    order_error: str  # UsageError text for a rejected n, formatted with n
    expected: Callable[[int], Graph]
    closed_form: Callable[[int, float], float]


THEOREMS = {
    # Theorem 1.1, odd order: the friendship graph F_{(n-1)/2}
    "thm11-odd": Theorem(
        ClassFilter("min-edge", 2),
        lambda n: n >= 7 and n % 2 == 1,
        "odd-order check needs odd n >= 7, got {n}",
        lambda n: families.make_friendship((n - 1) // 2),
        families.rho_friendship,
    ),
    # Theorem 1.1, even order: K_{2,n-2}
    "thm11-even": Theorem(
        ClassFilter("min-edge", 2),
        lambda n: n >= 8 and n % 2 == 0,
        "even-order check needs even n >= 8, got {n}",
        lambda n: families.make_complete_bipartite(2, n - 2),
        lambda n, a: families.rho_complete_bipartite(2, n - 2, a),
    ),
    # Theorem 1.2: the wheel W_n over minimally 3-connected graphs
    "thm12": Theorem(
        ClassFilter("min-vertex", 3),
        lambda n: n >= 7,
        "wheel check needs n >= 7, got {n}",
        families.make_wheel,
        lambda n, a: families.rho_join_regular(0, 1, 2, n - 1, a),
    ),
}


def verify_theorem(
    name: str, n: int, alphas, *, source_graphs=None, tol: float = DEFAULT_TOL
) -> list[SearchReport]:
    """Check the claim ``THEOREMS[name]`` at order n over an alpha grid in [1/2, 1)."""
    start = time.perf_counter()
    thm = THEOREMS[name]
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise UsageError("need at least one alpha")
    for a in alphas:
        if not 0.5 <= a < 1.0:
            raise UsageError(f"alpha {a} outside the supported range [1/2, 1)")
    if not thm.order_ok(n):
        raise UsageError(thm.order_error.format(n=n))
    flt = thm.flt
    if source_graphs is None:
        members = enumerate_class(n, flt)
        source, pruning = "builtin", tuple(generation_notes(n, flt))
    else:
        members = ingest_class(source_graphs, n, flt)
        source, pruning = "graph6-ingest", ()
    if not members:
        raise UsageError(f"class {flt.describe()} is empty at n={n}")
    member_g6 = [write_graph6(g) for g in members]
    expected_g6 = write_graph6(canonical_form(thm.expected(n)).graph())
    reports = []
    solved = alpha_indices(members, alphas, tol)
    for row, alpha in enumerate(alphas):
        values = solved.value[row].tolist()
        max_idx = max(range(len(values)), key=lambda i: values[i])
        max_value = values[max_idx]
        others = [v for i, v in enumerate(values) if i != max_idx]
        runner_up = max(others) if others else None
        gap = max_value - runner_up if runner_up is not None else None
        ties = sum(1 for v in others if v > max_value - TIE_TOL)
        runtime_ms = int(round((time.perf_counter() - start) * 1000))
        reports.append(
            SearchReport(
                class_name=flt.describe(),
                k=flt.k,
                n=n,
                alpha=alpha,
                alpha_grid=alphas,
                class_size=len(members),
                max_value=max_value,
                argmax_canonical=member_g6[max_idx],
                argmax_matches_expected=member_g6[max_idx] == expected_g6,
                expected_canonical=expected_g6,
                expected_value=thm.closed_form(n, alpha),
                runner_up_value=runner_up,
                spectral_gap=gap,
                ties_within_tolerance=ties,
                pruning=pruning,
                source=source,
                certified_unique=certified_unique(
                    solved.lower[row], solved.upper[row], max_idx
                ),
                runtime_ms=runtime_ms,
            )
        )
    return reports


# -- structural lemma suite ------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    class_name: str
    n: int
    class_size: int
    violations: tuple[str, ...] = field(default_factory=tuple)


MAX_LEMMA_N = 7


def _cycle_without_two_degree_3(g: Graph) -> bool:
    return any(sum(1 for v in cyc if g.degree(v) == 3) < 2 for cyc in all_cycles(g))


# (lemma, class, test that a member violates it), in report order for each n
LEMMAS = [
    ("min-degree-equals-k", ClassFilter("min-edge", 2), lambda g: g.min_degree() != 2),
    ("min-degree-equals-k", ClassFilter("min-edge", 3), lambda g: g.min_degree() != 3),
    ("min-degree-equals-k", ClassFilter("min-vertex", 2), lambda g: g.min_degree() != 2),
    ("min-degree-equals-k", ClassFilter("min-vertex", 3), lambda g: g.min_degree() != 3),
    ("edge-count-at-most-2n-2", ClassFilter("min-edge", 2), lambda g: g.m > 2 * g.n - 2),
    # the class is grown from chorded-cycle-free graphs, so this row holds by
    # construction; the tests check the generator against a lemma-free scan
    ("no-chorded-cycle", ClassFilter("min-edge", 2), has_chorded_cycle),
    ("every-cycle-has-two-degree-3-vertices", ClassFilter("min-vertex", 3),
     _cycle_without_two_degree_3),
]


def verify_lemma_suite(n_max: int = MAX_LEMMA_N) -> list[LemmaCheck]:
    """Check the structural facts behind the pruning on every small class member.

    * minimum degree equals k on minimally k-(edge-)connected graphs, k in {2,3}
    * edge count at most 2n-2 on minimally 2-edge-connected graphs
    * no cycle of a minimally 2-edge-connected graph has a chord
    * every cycle of a minimally 3-connected graph has two vertices of degree 3
    """
    if not 3 <= n_max <= MAX_LEMMA_N:
        raise UsageError(f"lemma suite supports 3 <= n <= {MAX_LEMMA_N}, got {n_max}")
    checks: list[LemmaCheck] = []
    for n in range(3, n_max + 1):
        for name, flt, violated in LEMMAS:
            # enumerate_class is cached per (n, class): repeated lookups are free
            members = enumerate_class(n, flt)
            bad = tuple(write_graph6(g) for g in members if violated(g))
            checks.append(LemmaCheck(name, flt.describe(), n, len(members), bad))
    return checks


def lemma_suite_exit_code(checks) -> int:
    return 1 if any(c.violations for c in checks) else 0
