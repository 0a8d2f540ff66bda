"""Command-line frontend: build, analyze, simulate, bounds, catalytic.

Reports are stable key=value lines (plus generator blocks for build) so
they can be diffed and parsed; all commands are deterministic given their
flags.  Classical codes are read from text files: first line "n k",
then n-k lines of n tokens from {0, 1, w, W}, '#' starting a comment.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from . import gf4
from .builder import ClassicalCode, CodeParameters, build_code, parameters
from .analysis import (
    hashing_rates,
    min_distance_bruteforce,
    nondegenerate_distinct_syndromes,
    singleton_report,
)
from .pauli import format_pauli
from .simulate import (
    DepolarizingChannel,
    InfeasibleError,
    build_syndrome_table,
    catalytic_schedule,
    run_trials,
    trial_report,
)


class CodeFileError(ValueError):
    """Malformed classical-code file, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int = 0) -> None:
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CodeFile:
    """A classical code loaded from disk."""

    path: str
    code: ClassicalCode


def parse_code_text(text: str) -> ClassicalCode:
    """Parse the plain-text classical-code format."""
    rows: List[tuple] = []
    header: Optional[tuple] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise CodeFileError(f"expected header 'n k', got {len(tokens)} tokens", lineno)
            try:
                n, k = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise CodeFileError(f"non-integer header {tokens!r}", lineno) from None
            if n < 1 or not 0 <= k <= n:
                raise CodeFileError(f"invalid dimensions n={n}, k={k}", lineno)
            header = (n, k)
            continue
        n, k = header
        if len(rows) == n - k:
            raise CodeFileError(f"more than n-k={n - k} parity-check rows", lineno)
        if len(tokens) != n:
            raise CodeFileError(f"expected {n} tokens, got {len(tokens)}", lineno)
        row = []
        col = 1
        for token in tokens:
            try:
                row.append(gf4.parse_symbol(token))
            except ValueError as exc:
                raise CodeFileError(str(exc), lineno, col) from None
            col += 1
        rows.append(tuple(row))
    if header is None:
        raise CodeFileError("empty file, expected header 'n k'", 1)
    n, k = header
    if len(rows) != n - k:
        raise CodeFileError(f"expected n-k={n - k} rows, found {len(rows)}", 1)
    try:
        return ClassicalCode.from_rows(n, k, rows)
    except ValueError as exc:
        raise CodeFileError(str(exc), 1) from None


def load_code_file(path: str) -> CodeFile:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise CodeFileError(f"non-ASCII byte 0x{data[exc.start]:02x}", line, column) from None
    return CodeFile(path, parse_code_text(text))


def _format_rate(rate: Fraction) -> str:
    return str(rate)


def _param_lines(report: CodeParameters) -> List[str]:
    return [
        f"code={report.label}",
        f"n={report.n}",
        f"k={report.k_enc}",
        f"c={report.c}",
        f"s={report.s}",
        f"rate={_format_rate(report.rate)}",
    ]


def cmd_build(args: argparse.Namespace) -> int:
    codeq = build_code(load_code_file(args.input).code)
    lines = _param_lines(parameters(codeq))
    lines.append("alice_generators:")
    lines.extend(format_pauli(g) for g in codeq.generators)
    lines.append("extended_generators:")
    lines.extend(format_pauli(g) for g in codeq.extended)
    report = "\n".join(lines)
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="ascii")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    code = load_code_file(args.input).code
    codeq = build_code(code)
    dist = None
    if codeq.k_enc > 0:  # without logical operators a code has no distance
        cap = args.weight_cap if args.weight_cap is not None else min(codeq.n, 6)
        dist = min_distance_bruteforce(codeq, cap)
    report = parameters(codeq, None if dist is None else dist.distance)
    lines = _param_lines(report)
    if dist is None:
        lines.append("d=undefined")
    elif dist.exact:
        lines.append(f"d={dist.distance}")
    else:
        lines.append(f"d_lower_bound={dist.lower_bound}")
    lines.append(f"t={args.t}")
    distinct = nondegenerate_distinct_syndromes(codeq, args.t)
    lines.append(f"distinct_syndromes={'yes' if distinct else 'no'}")
    if dist is not None and dist.exact:
        bounds = singleton_report(code.n, code.k, dist.distance, codeq.c)
        lines.append(f"singleton_classical_slack={bounds.singleton_classical_slack}")
        lines.append(f"singleton_quantum_slack={bounds.singleton_quantum_slack}")
        saturated = bounds.classical_saturated and bounds.quantum_saturated
        lines.append(f"singleton_saturated={'yes' if saturated else 'no'}")
        if report.degenerate is not None:
            lines.append(f"degenerate={'yes' if report.degenerate else 'no'}")
    print("\n".join(lines))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    codeq = build_code(load_code_file(args.input).code)
    channel = DepolarizingChannel(args.p)
    table = build_syndrome_table(codeq, args.max_weight)
    result = run_trials(codeq, channel, table, args.trials, args.seed, args.workers)
    print(trial_report(result, codeq))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    for f in args.f_list:
        r_c, r_q = hashing_rates(f)
        print(f"f={f:.12g} R_C={r_c:.12g} R_Q={r_q:.12g}")
    return 0


def cmd_catalytic(args: argparse.Namespace) -> int:
    codeq = build_code(load_code_file(args.input).code)
    ledger = catalytic_schedule(
        codeq.n, codeq.k_enc, codeq.c, args.rounds, args.initial_ebits
    )
    print(f"rounds={ledger.rounds}")
    print(f"initial_ebits={ledger.initial_ebits}")
    for i in range(ledger.rounds):
        print(
            f"round={i + 1} delivered={ledger.net_qubits_delivered[i]} "
            f"ebits_held={ledger.ebits_held[i]}"
        )
    print(f"total_delivered={ledger.total_delivered}")
    return 0


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"probability {text} outside [0, 1]")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _f_list(text: str) -> List[float]:
    values = []
    for part in text.split(","):
        value = float(part)
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(f"probability {part} outside [0, 1]")
        values.append(value)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqecc",
        description="Build, analyze, and simulate entanglement-assisted "
        "stabilizer codes from classical GF(4) codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a code and print its generators")
    p_build.add_argument("input", help="classical-code file")
    p_build.add_argument("--output", help="also write the report to this path")
    p_build.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser("analyze", help="distance, syndromes, and bound slacks")
    p_analyze.add_argument("input", help="classical-code file")
    p_analyze.add_argument(
        "--weight-cap",
        type=_positive_int,
        default=None,
        help="distance search cap (default: min(n, 6))",
    )
    p_analyze.add_argument(
        "--t", type=_nonnegative_int, default=1, help="distinct-syndrome check weight"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo syndrome decoding")
    p_sim.add_argument("input", help="classical-code file")
    p_sim.add_argument("--p", type=_probability, required=True, help="depolarizing probability")
    p_sim.add_argument("--trials", type=_positive_int, default=10000)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument(
        "--max-weight", type=_nonnegative_int, default=2, help="syndrome table depth"
    )
    p_sim.add_argument(
        "--workers", type=_positive_int, default=1, help="internal worker count"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="capacity/hashing rate table")
    p_bounds.add_argument(
        "--f-list",
        type=_f_list,
        required=True,
        help="comma-separated depolarizing probabilities",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_cat = sub.add_parser("catalytic", help="entanglement ledger over repeated use")
    p_cat.add_argument("input", help="classical-code file")
    p_cat.add_argument("--rounds", type=_nonnegative_int, default=1)
    p_cat.add_argument("--initial-ebits", type=_nonnegative_int, default=0)
    p_cat.set_defaults(func=cmd_catalytic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CodeFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
