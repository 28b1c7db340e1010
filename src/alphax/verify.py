"""Extremal search campaigns over enumerated classes, with machine reports.

A campaign fixes a class and an order n, evaluates the alpha-index of every
member over an alpha grid, and compares the maximizer against the expected
extremal graph and its closed-form value.  One SearchReport is produced per
(class, n, alpha).  Values closer than TIE_TOL are treated as numerically
tied rather than strictly ordered; ties are reported, not asserted away.
A maximizer is certified unique when the lower end of its enclosure lies
above the upper end of every other member's enclosure.

Report serialization is deterministic: members are already in canonical
order, floats are rounded to 9 significant digits, and keys have a fixed
order.  The runtime_ms field is the one exception, it obviously varies run
to run.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

from . import __version__, families
from .canonical import canonical_form
from .connectivity import has_chorded_cycle
from .enumeration import ClassFilter, enumerate_class, ingest_class, scan_plan
from .graph import Graph, all_cycles
from .graph6 import write_graph6
# spectral_radius is unused here but stays a name of this module, where
# bench/tracer.py looks it up.
from .spectral import DEFAULT_TOL, alpha_indices, spectral_radius  # noqa: F401

TOOL_NAME = "alphax"
TOOL_VERSION = __version__
TIE_TOL = 1e-8
VALUE_TOL = 1e-8


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
    argmax_matches_expected: bool | None
    expected_canonical: str | None
    expected_value: float | None
    runner_up_value: float | None
    spectral_gap: float | None
    ties_within_tolerance: int
    pruning: tuple[str, ...]
    source: str
    certified_unique: bool
    runtime_ms: int

    @property
    def violation(self) -> bool:
        if self.argmax_matches_expected is False:
            return True
        if self.expected_value is not None:
            return abs(self.max_value - self.expected_value) > VALUE_TOL
        return False

    def to_dict(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": TOOL_VERSION,
            "class": self.class_name,
            "k": self.k,
            "n": self.n,
            "alpha": self.alpha,
            "alpha_grid": list(self.alpha_grid),
            "class_size": self.class_size,
            "max_value": _round9(self.max_value),
            "argmax_canonical": self.argmax_canonical,
            "argmax_matches_expected": self.argmax_matches_expected,
            "expected_canonical": self.expected_canonical,
            "expected_value": _round9(self.expected_value),
            "runner_up_value": _round9(self.runner_up_value),
            "spectral_gap": _round9(self.spectral_gap),
            "ties_within_tolerance": self.ties_within_tolerance,
            "pruning": list(self.pruning),
            "source": self.source,
            "certified_unique": self.certified_unique,
            "runtime_ms": self.runtime_ms,
        }


CSV_COLUMNS = [
    "tool", "version", "class", "k", "n", "alpha", "alpha_grid", "class_size",
    "max_value", "argmax_canonical", "argmax_matches_expected",
    "expected_canonical", "expected_value", "runner_up_value", "spectral_gap",
    "ties_within_tolerance", "pruning", "source", "certified_unique",
    "runtime_ms",
]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        row = r.to_dict()
        row["alpha_grid"] = ";".join(repr(a) for a in row["alpha_grid"])
        row["pruning"] = ";".join(row["pruning"])
        for key in ("max_value", "expected_value", "runner_up_value", "spectral_gap"):
            if row[key] is not None:
                row[key] = f"{row[key]:.9g}"
        writer.writerow(row)
    return buf.getvalue()


def certified_unique(lower, upper, winner: int) -> bool:
    """The winner's lower bound exceeds every other member's upper bound."""
    return all(lower[winner] > hi for i, hi in enumerate(upper) if i != winner)


def exit_code(reports) -> int:
    """0 verified, 2 verified with numerical ties or an uncertified maximizer,
    1 violation."""
    if any(r.violation for r in reports):
        return 1
    if any(r.ties_within_tolerance > 0 or not r.certified_unique for r in reports):
        return 2
    return 0


def _class_members(n, flt, source_graphs):
    if source_graphs is None:
        members = enumerate_class(n, flt)
        _, _, _, notes = scan_plan(n, flt)
        return members, "builtin", tuple(notes)
    members = ingest_class(source_graphs, n, flt)
    return members, "graph6-ingest", ()


def run_search(
    n: int,
    flt: ClassFilter,
    alphas,
    *,
    expected: Graph | None = None,
    expected_value_fn=None,
    source_graphs=None,
    tol: float = DEFAULT_TOL,
) -> list[SearchReport]:
    """Evaluate the class maximum for each alpha and report."""
    start = time.perf_counter()
    members, source, pruning = _class_members(n, flt, source_graphs)
    if not members:
        raise UsageError(f"class {flt.describe()} is empty at n={n}")
    member_g6 = [write_graph6(g) for g in members]
    expected_g6 = write_graph6(canonical_form(expected).graph()) if expected else None
    reports = []
    alphas = tuple(float(a) for a in alphas)
    solved = alpha_indices(members, alphas, tol)
    for row, alpha in enumerate(alphas):
        values = solved.value[row].tolist()
        max_idx = max(range(len(values)), key=lambda i: values[i])
        max_value = values[max_idx]
        others = [v for i, v in enumerate(values) if i != max_idx]
        runner_up = max(others) if others else None
        gap = max_value - runner_up if runner_up is not None else None
        ties = sum(1 for v in others if v > max_value - TIE_TOL)
        matches = member_g6[max_idx] == expected_g6 if expected_g6 else None
        expected_value = expected_value_fn(alpha) if expected_value_fn else None
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
                argmax_matches_expected=matches,
                expected_canonical=expected_g6,
                expected_value=expected_value,
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


def _check_alphas_half_one(alphas) -> tuple[float, ...]:
    out = tuple(float(a) for a in alphas)
    if not out:
        raise UsageError("need at least one alpha")
    for a in out:
        if not 0.5 <= a < 1.0:
            raise UsageError(f"alpha {a} outside the supported range [1/2, 1)")
    return out


def verify_thm11_odd(n, alphas, *, source_graphs=None, **kw) -> list[SearchReport]:
    """Odd order: the friendship graph maximizes over min-2-edge-connected graphs."""
    alphas = _check_alphas_half_one(alphas)
    if n < 7 or n % 2 == 0:
        raise UsageError(f"odd-order check needs odd n >= 7, got {n}")
    return run_search(
        n,
        ClassFilter("min-edge", 2),
        alphas,
        expected=families.make_friendship((n - 1) // 2),
        expected_value_fn=lambda a: families.rho_friendship(n, a),
        source_graphs=source_graphs,
        **kw,
    )


def verify_thm11_even(n, alphas, *, source_graphs=None, **kw) -> list[SearchReport]:
    """Even order: K_{2,n-2} maximizes over min-2-edge-connected graphs."""
    alphas = _check_alphas_half_one(alphas)
    if n < 8 or n % 2 == 1:
        raise UsageError(f"even-order check needs even n >= 8, got {n}")
    return run_search(
        n,
        ClassFilter("min-edge", 2),
        alphas,
        expected=families.make_complete_bipartite(2, n - 2),
        expected_value_fn=lambda a: families.rho_complete_bipartite(2, n - 2, a),
        source_graphs=source_graphs,
        **kw,
    )


def verify_thm12(n, alphas, *, source_graphs=None, **kw) -> list[SearchReport]:
    """The wheel maximizes over minimally 3-connected graphs."""
    alphas = _check_alphas_half_one(alphas)
    if n < 7:
        raise UsageError(f"wheel check needs n >= 7, got {n}")
    return run_search(
        n,
        ClassFilter("min-vertex", 3),
        alphas,
        expected=families.make_wheel(n),
        expected_value_fn=lambda a: families.rho_join_regular(0, 1, 2, n - 1, a),
        source_graphs=source_graphs,
        **kw,
    )


# -- structural lemma suite ------------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    class_name: str
    n: int
    class_size: int
    violations: tuple[str, ...] = field(default_factory=tuple)


MAX_LEMMA_N = 7


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
        classes = {
            ("min-edge", 2): enumerate_class(n, ClassFilter("min-edge", 2)),
            ("min-edge", 3): enumerate_class(n, ClassFilter("min-edge", 3)),
            ("min-vertex", 2): enumerate_class(n, ClassFilter("min-vertex", 2)),
            ("min-vertex", 3): enumerate_class(n, ClassFilter("min-vertex", 3)),
        }
        for (kind, k), members in classes.items():
            flt = ClassFilter(kind, k)
            bad = tuple(
                write_graph6(g) for g in members if g.min_degree() != k
            )
            checks.append(
                LemmaCheck("min-degree-equals-k", flt.describe(), n, len(members), bad)
            )
        min2e = classes[("min-edge", 2)]
        checks.append(
            LemmaCheck(
                "edge-count-at-most-2n-2",
                "min-2-edge-connected",
                n,
                len(min2e),
                tuple(write_graph6(g) for g in min2e if g.m > 2 * n - 2),
            )
        )
        checks.append(
            LemmaCheck(
                "no-chorded-cycle",
                "min-2-edge-connected",
                n,
                len(min2e),
                tuple(write_graph6(g) for g in min2e if has_chorded_cycle(g)),
            )
        )
        min3v = classes[("min-vertex", 3)]
        bad3 = []
        for g in min3v:
            for cyc in all_cycles(g):
                if sum(1 for v in cyc if g.degree(v) == 3) < 2:
                    bad3.append(write_graph6(g))
                    break
        checks.append(
            LemmaCheck(
                "every-cycle-has-two-degree-3-vertices",
                "min-3-connected",
                n,
                len(min3v),
                tuple(bad3),
            )
        )
    return checks


def lemma_suite_exit_code(checks) -> int:
    return 1 if any(c.violations for c in checks) else 0
