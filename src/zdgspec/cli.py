"""Command-line front end.

Subcommands: spectrum, analyze, divisor-graph, graph, verify, survey.
Exit codes: 0 ok, 1 verification failure, 2 invalid n or argument (a prime
or n < 4, a method that does not apply, an oracle cap that is not a
positive integer), 3 oracle cap exceeded, 4 I/O error, 5 n too large (Z_n
has more zero divisors than int64 can count, or the exact characteristic
polynomial of its quotient is past its envelope: 2048 proper divisors or
more, a coefficient bound above 2^44497, or candidate-root windows that
may hold more than 4096 integers). The three commands that can build
explicit graphs (spectrum, verify, graph) take --cap, the oracle's vertex
cap (DEFAULT_ORACLE_CAP unless given), checked once before the first n.

Output is deliberately canonical: fixed JSON key order, floats at 12
significant digits, exact integers without a decimal point, so records
diff cleanly and re-serializing a parsed record is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from collections.abc import Iterator
from typing import TextIO

from .analysis import AnalysisReport, analyze_range
from .divisor_graph import (
    build_divisor_graph,
    require_composite,
    require_reducible,
    weighted_laplacian,
)
from .eigen import SpectrumMultiset, coalesce, max_deviation
from .errors import EmptyGraphError, OracleCapError
from .join_spectrum import brute_spectrum, closed_form_spectra, reduced_spectrum
from .numtheory import is_prime
from .zdg_explicit import DEFAULT_ORACLE_CAP, build_zero_divisor_graph

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID_N = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_TOO_LARGE = 5

# verify passes n when the reduced spectrum and the oracle's eigenvalues
# differ by at most VERIFY_RTOL * max(1, lambda), lambda the largest value
VERIFY_RTOL = 1e-8

CSV_HEADER = (
    "n,vertex_count,mu,lambda,kappa,delta,Delta,"
    "integral,comp_disconn,lam_eq_order,mu_eq_kappa,spectrum"
)


# ---------------------------------------------------------------------------
# canonical formatting


def fmt_number(x: float | int | None) -> str:
    """12 significant digits; integers (and integral floats) without a
    decimal point; a non-integral float whose 12 digits would read as an
    integer in full (repr) instead; None becomes JSON null."""
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    if x.is_integer():
        return str(int(x))
    text = "%.12g" % x
    return repr(x) if text.lstrip("-").isdigit() else text


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _spectrum_json(spectrum: SpectrumMultiset) -> str:
    # an exact entry holds an integral float, which fmt_number prints as an int
    items = ",".join(
        '{"value":%s,"multiplicity":%d,"exact":%s}'
        % (fmt_number(value), multiplicity, fmt_bool(exact))
        for value, multiplicity, exact in spectrum.entries
    )
    return "[" + items + "]"


def _spectrum_compact(spectrum: SpectrumMultiset) -> list[str]:
    return [f"{fmt_number(v)}:{m}" for v, m, _ in spectrum.entries]


def record_json(
    report: AnalysisReport,
    spectrum: SpectrumMultiset,
    method: str,
    quotient_flags: bool = False,
) -> str:
    """One canonical JSON record; quotient_flags widens it to every report
    field for survey rows."""
    parts = [
        f'"n":{report.n}',
        f'"vertex_count":{report.vertex_count}',
        f'"spectrum":{_spectrum_json(spectrum)}',
        f'"mu":{fmt_number(report.mu)}',
        f'"lambda":{fmt_number(report.lambda_)}',
        f'"kappa":{report.kappa}',
        f'"delta":{report.delta_min}',
        f'"Delta":{report.Delta_max}',
        f'"laplacian_integral":{fmt_bool(report.laplacian_integral)}',
        f'"complement_disconnected":{fmt_bool(report.complement_disconnected)}',
        f'"lambda_equals_order":{fmt_bool(report.lambda_equals_order)}',
        f'"mu_equals_kappa":{fmt_bool(report.mu_equals_kappa)}',
    ]
    if quotient_flags:
        parts.append(f'"mu_from_quotient":{fmt_bool(report.mu_from_quotient)}')
        parts.append(f'"lambda_from_quotient":{fmt_bool(report.lambda_from_quotient)}')
    parts.append(f'"method":"{method}"')
    return "{" + ",".join(parts) + "}"


def record_csv(report: AnalysisReport, spectrum: SpectrumMultiset) -> str:
    mu = "" if report.mu is None else fmt_number(report.mu)
    cells = [
        str(report.n),
        str(report.vertex_count),
        mu,
        fmt_number(report.lambda_),
        str(report.kappa),
        str(report.delta_min),
        str(report.Delta_max),
        fmt_bool(report.laplacian_integral),
        fmt_bool(report.complement_disconnected),
        fmt_bool(report.lambda_equals_order),
        fmt_bool(report.mu_equals_kappa),
        ";".join(_spectrum_compact(spectrum)),
    ]
    return ",".join(cells)


def record_text(report: AnalysisReport, spectrum: SpectrumMultiset, method: str) -> str:
    mu = "undefined" if report.mu is None else fmt_number(report.mu)
    lines = [
        f"n = {report.n}",
        f"vertex_count = {report.vertex_count}",
        "spectrum = " + " ".join(_spectrum_compact(spectrum)),
        f"mu = {mu}",
        f"lambda = {fmt_number(report.lambda_)}",
        f"kappa = {report.kappa}",
        f"delta = {report.delta_min}",
        f"Delta = {report.Delta_max}",
        f"laplacian_integral = {fmt_bool(report.laplacian_integral)}",
        f"complement_disconnected = {fmt_bool(report.complement_disconnected)}",
        f"lambda_equals_order = {fmt_bool(report.lambda_equals_order)}",
        f"mu_equals_kappa = {fmt_bool(report.mu_equals_kappa)}",
        f"mu_from_quotient = {fmt_bool(report.mu_from_quotient)}",
        f"lambda_from_quotient = {fmt_bool(report.lambda_from_quotient)}",
        f"method = {method}",
    ]
    return "\n".join(lines)


def emit_record(
    report: AnalysisReport,
    spectrum: SpectrumMultiset,
    method: str,
    fmt: str,
    out: TextIO,
) -> None:
    if fmt == "json":
        out.write(record_json(report, spectrum, method) + "\n")
    elif fmt == "csv":
        out.write(CSV_HEADER + "\n" + record_csv(report, spectrum) + "\n")
    else:
        out.write(record_text(report, spectrum, method) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _composites(n_min: int, n_max: int) -> Iterator[int]:
    """The composites in [n_min, n_max], each tested just before its turn,
    so that its factorization is still cached when it is analyzed."""
    return (n for n in range(max(n_min, 4), n_max + 1) if not is_prime(n))


def cmd_spectrum(args: argparse.Namespace) -> int:
    fact = require_composite(args.n)
    method = args.method
    if method == "closed-form" and closed_form_spectra(fact) is None:
        print(
            f"closed form needs a prime power p^t or a product pq of two "
            f"distinct primes, {args.n} is neither",
            file=sys.stderr,
        )
        return EXIT_INVALID_N
    brute = None
    if method == "brute":
        # refused as analyze refuses n, then past the cap, before the
        # reduced analysis is paid for
        require_reducible(args.n)
        brute = coalesce(brute_spectrum(args.n, args.cap))
    report, spectrum, label = next(analyze_range([args.n]))
    if brute is not None:
        spectrum, label = brute, "brute"
    elif method == "reduced" and label != "reduced":
        spectrum, label = reduced_spectrum(args.n).total, "reduced"
    emit_record(report, spectrum, label, args.format, sys.stdout)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    emit_record(*next(analyze_range([args.n])), args.format, sys.stdout)
    return EXIT_OK


def cmd_divisor_graph(args: argparse.Namespace) -> int:
    # refused as analyze refuses n, before the k x k arrays are built
    g = build_divisor_graph(require_reducible(args.n))
    out = sys.stdout
    out.write(f"n = {g.n}\n")
    out.write("vertices = " + " ".join(str(d) for d in g.vertices) + "\n")
    out.write("weights = " + " ".join(str(w) for w in g.weights) + "\n")
    out.write("edges:\n")
    for a, b in g.edges():
        out.write(f"{a} {b}\n")
    out.write("L:\n")
    for row in weighted_laplacian(g):
        out.write(" ".join(str(int(v)) for v in row) + "\n")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    g = build_zero_divisor_graph(args.n, args.cap)
    if args.edges:
        for a, b in g.edges():
            sys.stdout.write(f"{a} {b}\n")
    else:
        sys.stdout.write(f"n = {args.n}\n")
        sys.stdout.write(f"vertices = {g.order}\n")
        sys.stdout.write(f"edges = {g.edge_count}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        print(f"invalid range [{args.n_min}, {args.n_max}]", file=sys.stderr)
        return EXIT_INVALID_N
    passed = failed = skipped = 0
    for n in _composites(args.n_min, args.n_max):
        try:
            brute = brute_spectrum(n, args.cap)
        except OracleCapError:
            skipped += 1
            print(f"SKIP n={n} (oracle cap)")
            continue
        total = reduced_spectrum(n).total
        dev = max_deviation(total, brute)
        if dev is not None and dev <= VERIFY_RTOL * max(1.0, total.max_value):
            passed += 1
            print(f"PASS n={n} max_dev={dev:.3e}")
        else:
            failed += 1
            print(f"FAIL n={n} max_dev={float('inf') if dev is None else dev:.3e}")
    if skipped:
        print(f"skipped {skipped} (oracle cap)")
    print(f"checked {passed + failed}, passed {passed}, failed {failed}")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def cmd_survey(args: argparse.Namespace) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        print(f"invalid range [{args.n_min}, {args.n_max}]", file=sys.stderr)
        return EXIT_INVALID_N
    # rows are written a chunk at a time, in ascending n, as soon as the
    # chunk's residue polynomials are done, to a file opened before the
    # first n; rows written before a refusal (exit 5) stay written
    csv = args.format == "csv"
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        if args.out is not None:
            out = stack.enter_context(open(args.out, "w"))
        if csv:
            out.write(CSV_HEADER + "\n")
        for report, spectrum, label in analyze_range(
            _composites(args.n_min, args.n_max)
        ):
            if csv:
                out.write(record_csv(report, spectrum) + "\n")
            else:
                out.write(record_json(report, spectrum, label, True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="zdgspec",
        description="Laplacian spectra of zero-divisor graphs of Z_n "
        "via the weighted divisor-graph reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the one --cap of each command that can build explicit graphs
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        help=f"explicit-graph vertex cap (default {DEFAULT_ORACLE_CAP})",
    )

    sp = sub.add_parser(
        "spectrum", parents=[cap], help="Laplacian spectrum and invariants for one n"
    )
    sp.add_argument("n", type=int)
    sp.add_argument(
        "--method",
        choices=["auto", "reduced", "brute", "closed-form"],
        default="auto",
        help="auto picks the closed form for prime powers p^t and products pq "
        "of two distinct primes, reduced otherwise",
    )
    sp.add_argument("--format", choices=["json", "csv", "text"], default="json")
    sp.set_defaults(func=cmd_spectrum)

    an = sub.add_parser("analyze", help="full analysis report for one n")
    an.add_argument("n", type=int)
    an.add_argument("--format", choices=["json", "csv", "text"], default="text")
    an.set_defaults(func=cmd_analyze)

    dg = sub.add_parser(
        "divisor-graph",
        help="weighted divisor graph: vertices, weights, edges, Laplacian",
    )
    dg.add_argument("n", type=int)
    dg.set_defaults(func=cmd_divisor_graph)

    gr = sub.add_parser(
        "graph", parents=[cap], help="explicit zero-divisor graph (oracle)"
    )
    gr.add_argument("n", type=int)
    gr.add_argument(
        "--edges", action="store_true", help="dump the edge list, one 'x y' per line"
    )
    gr.set_defaults(func=cmd_graph)

    ve = sub.add_parser(
        "verify",
        parents=[cap],
        help="compare reduced vs brute spectra over a range of n",
    )
    ve.add_argument("n_min", type=int)
    ve.add_argument("n_max", type=int)
    ve.set_defaults(func=cmd_verify)

    su = sub.add_parser(
        "survey",
        help="one row per composite n",
        description="CSV columns: n, vertex_count, mu, lambda, kappa, delta, "
        "Delta, integral, comp_disconn, lam_eq_order, mu_eq_kappa, spectrum "
        "(semicolon-joined value:multiplicity pairs). JSON rows additionally "
        "carry mu_from_quotient and lambda_from_quotient.",
    )
    su.add_argument("n_min", type=int)
    su.add_argument("n_max", type=int)
    su.add_argument("--out", default=None, help="output path (default stdout)")
    su.add_argument("--format", choices=["csv", "json"], default="csv")
    su.set_defaults(func=cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a command with --cap refuses a cap below 1 before its first n
    if getattr(args, "cap", 1) < 1:
        print(f"--cap must be positive, got {args.cap}", file=sys.stderr)
        return EXIT_INVALID_N
    try:
        return args.func(args)
    except EmptyGraphError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID_N
    except OracleCapError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except OverflowError as exc:
        print(exc, file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
