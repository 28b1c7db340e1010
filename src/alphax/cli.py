"""Command line interface.

Subcommands: rho, bounds, classify, enumerate, verify (a theorem of
verify.THEOREMS, or lemmas), certify-colsums.  Exit codes: 0 verified, 2
verified but tied or uncertified, 1 violation found, 64 usage or input error
(including files that cannot be read or written).

Graph arguments accept, in order of precedence: a path to an existing file
(.g6/.graph6 for graph6, .edges/.txt for the edge-list format), a family spec
such as W7 or K2,6, or a literal graph6 line.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import connectivity, families, verify
from .enumeration import ClassFilter, enumerate_class, ingest_class
from .graph import Graph, parse_edge_list
from .graph6 import Graph6Error, parse_graph6, parse_graph6_lines, write_graph6_lines
from .spectral import (
    ConvergenceError,
    bound_lower_delta,
    bound_upper_degree,
    bound_upper_edge,
    column_sum_certificate,
    spectral_radius,
    validate_alpha,
)
from .verify import UsageError

USAGE_EXIT = 64
DEFAULT_ALPHAS = "0.5,0.75"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def load_graph(token: str) -> Graph:
    if os.path.exists(token):
        with open(token, "r", encoding="ascii") as fh:
            text = fh.read()
        if token.endswith((".g6", ".graph6")):
            graphs = parse_graph6_lines(text)
            if len(graphs) != 1:
                raise UsageError(f"{token} holds {len(graphs)} graphs, expected one")
            return graphs[0]
        if token.endswith((".edges", ".txt")):
            return parse_edge_list(text)
        raise UsageError(f"unrecognized graph file extension on {token!r}")
    if families.FAMILY_RE.match(token):
        # digits and "," lie below graph6's first byte (63), so a token of
        # this shape is never graph6: the family's own error is the useful one
        return families.parse_family_spec(token)
    try:
        return parse_graph6(token)
    except Graph6Error as exc:
        raise UsageError(
            f"{token!r} is neither a file, a family spec, nor graph6 ({exc})"
        )


def _parse_alphas(text: str | None) -> list[float]:
    if text is None:
        text = DEFAULT_ALPHAS
    try:
        alphas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"bad alpha list {text!r}")
    if not alphas:
        raise UsageError("alpha list is empty")
    return [validate_alpha(a) for a in alphas]


def _reject_options(args, mode: str, flags: dict[str, str]) -> None:
    """Usage error for options given to a mode that does not read them."""
    if given := [flag for dest, flag in flags.items() if getattr(args, dest) is not None]:
        raise UsageError(f"{mode} takes no {', '.join(given)}")


def _read_class_file(path: str) -> list[Graph]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph6_lines(fh.read())


def _class_graphs(flt: ClassFilter, args) -> list[Graph]:
    """Class members on args.n vertices, from the --in file or built-in generation."""
    if args.infile:
        return ingest_class(_read_class_file(args.infile), args.n, flt)
    return enumerate_class(args.n, flt)


def _report_format(out: str | None):
    if out is None or out.endswith(".json"):
        return verify.reports_to_json
    if out.endswith(".csv"):
        return verify.reports_to_csv
    raise UsageError(f"report path must end in .json or .csv, got {out!r}")


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bounds_text(g: Graph, alpha: float) -> str:
    lower = f"lower(delta)={bound_lower_delta(g, alpha):.12g}"
    if g.min_degree() < 1:
        return f"{lower} (upper bounds need minimum degree >= 1)"
    return (f"upper(degree)={bound_upper_degree(g, alpha):.12g} "
            f"upper(edge)={bound_upper_edge(g, alpha):.12g} {lower}")


def _cmd_rho(args) -> int:
    g = load_graph(args.graph)
    for alpha in _parse_alphas(args.alphas):
        res = spectral_radius(g, alpha)
        print(f"alpha={alpha!r} rho={res.radius:.12g} residual={res.residual:.3e} "
              f"enclosure=[{res.lower:.17g}, {res.upper:.17g}]")
        print(f"  {_bounds_text(g, alpha)}")
    return 0


def _cmd_bounds(args) -> int:
    g = load_graph(args.graph)
    print(f"n={g.n} m={g.m} delta={g.min_degree()} Delta={g.max_degree()}")
    for alpha in _parse_alphas(args.alphas):
        print(f"alpha={alpha!r} {_bounds_text(g, alpha)}")
    return 0


def _cmd_classify(args) -> int:
    info = connectivity.classify(load_graph(args.graph), args.k)
    for name, value in zip(info._fields, info):
        print(f"{name}: {value}")
    return 0


def _cmd_enumerate(args) -> int:
    flt = ClassFilter.parse(args.cls)
    members = _class_graphs(flt, args)
    if args.infile and not members:
        raise UsageError(f"no {flt.describe()} graph on {args.n} vertices in {args.infile}")
    _write_text(write_graph6_lines(members), args.out)
    print(f"{flt.describe()} n={args.n}: {_count(members, 'graph')}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.target == "lemmas":
        _reject_options(args, "verify lemmas", {
            "infile": "--in", "out": "--out", "alphas": "--alphas"})
        checks = verify.verify_lemma_suite(
            verify.MAX_LEMMA_N if args.n is None else args.n)
        for c in checks:
            status = "ok" if not c.violations else f"VIOLATED by {', '.join(c.violations)}"
            print(f"{c.name} [{c.class_name} n={c.n} size={c.class_size}]: {status}")
        return verify.lemma_suite_exit_code(checks)
    if args.n is None:
        raise UsageError("--n is required for theorem checks")
    alphas = _parse_alphas(args.alphas)
    source = _read_class_file(args.infile) if args.infile else None
    serialize = _report_format(args.out)  # a bad suffix fails before the campaign
    reports = verify.verify_theorem(args.target, args.n, alphas, source_graphs=source)
    _write_text(serialize(reports), args.out)
    for r in reports:
        print(
            f"{r.class_name} n={r.n} alpha={r.alpha!r}: size={r.class_size} "
            f"max={r.max_value:.9g} argmax={r.argmax_canonical} {r.verdict}",
            file=sys.stderr,
        )
    return verify.exit_code(reports)


def _count(items, noun: str) -> str:
    return f"{len(items)} {noun}" + ("" if len(items) == 1 else "s")


def _cmd_certify_colsums(args) -> int:
    alphas = _parse_alphas(args.alphas)
    if args.graph:
        _reject_options(args, "certify-colsums GRAPH", {
            "cls": "--class", "n": "--n", "infile": "--in", "max_degree": "--max-degree"})
        graphs = [load_graph(args.graph)]
    elif args.cls and args.n is not None:
        flt = ClassFilter.parse(args.cls)
        graphs = _class_graphs(flt, args)
        if args.max_degree is not None:
            graphs = [g for g in graphs if g.max_degree() <= args.max_degree]
        if not graphs:
            raise UsageError(f"no {flt.describe()} graph on {args.n} vertices to check")
    else:
        raise UsageError("give a GRAPH argument or both --class and --n")
    all_negative = True
    for g in graphs:
        for alpha, sums in zip(alphas, column_sum_certificate(g, alphas)):
            if max(sums) >= 0:
                all_negative = False
            if args.graph:
                joined = " ".join(f"{s:.9g}" for s in sums)
                print(f"alpha={alpha!r} colsums: {joined}")
    if not args.graph:
        print(
            f"checked {_count(graphs, 'graph')} x {_count(alphas, 'alpha')}: "
            + ("all column sums negative" if all_negative else "nonnegative column sum found")
        )
    return 0 if all_negative else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="alphax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_alphas(p):
        p.add_argument("--alphas", help=f"comma-separated alpha values (default {DEFAULT_ALPHAS})")

    p_rho = sub.add_parser("rho", help="alpha-index with residual and bounds")
    p_rho.add_argument("graph")
    add_alphas(p_rho)
    p_rho.set_defaults(func=_cmd_rho)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds only")
    p_bounds.add_argument("graph")
    add_alphas(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_cls = sub.add_parser("classify", help="connectivity class membership")
    p_cls.add_argument("graph")
    p_cls.add_argument("--k", type=int, default=2)
    p_cls.set_defaults(func=_cmd_classify)

    p_enum = sub.add_parser("enumerate", help="isomorph-free class enumeration")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--class", dest="cls", required=True,
                        help="all-connected, min-K-edge-connected, or min-K-connected")
    p_enum.add_argument("--in", dest="infile",
                        help="graph6 file to filter instead of built-in generation")
    p_enum.add_argument("--out", help="output graph6 path (default stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_ver = sub.add_parser("verify", help="run an extremal or structural check")
    p_ver.add_argument("target",
                       choices=[*verify.THEOREMS, "lemmas"])
    p_ver.add_argument("--n", type=int)
    add_alphas(p_ver)
    p_ver.add_argument("--in", dest="infile", help="graph6 class file to ingest")
    p_ver.add_argument("--out", help="report path (.json or .csv)")
    p_ver.set_defaults(func=_cmd_verify)

    p_cert = sub.add_parser("certify-colsums",
                            help="column sums of the quadratic certificate matrix")
    p_cert.add_argument("graph", nargs="?")
    p_cert.add_argument("--class", dest="cls")
    p_cert.add_argument("--n", type=int)
    p_cert.add_argument("--in", dest="infile", help="graph6 class file to ingest")
    add_alphas(p_cert)
    p_cert.add_argument("--max-degree", type=int, default=None,
                        help="only check graphs with max degree at most this")
    p_cert.set_defaults(func=_cmd_certify_colsums)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # usage, graph6 and built-in range errors are ValueErrors; OSError covers
        # unreadable inputs and unwritable outputs
        print(f"alphax: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ConvergenceError as exc:
        print(f"alphax: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point: main() on the command line, then exit with its code."""
    try:
        code = main()
    finally:
        # at exit the cyclic collector makes a final pass over every tracked
        # object, numpy's import heap above all (about 10 ms a process); it
        # skips frozen ones, which the OS reclaims.  atexit handlers, stream
        # flushes and file closes still run.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
