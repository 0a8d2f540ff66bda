"""Command-line frontend: build, analyze, simulate, bounds, catalytic.

Reports are stable key=value lines (plus generator blocks for build) so
they can be diffed and parsed; all commands are deterministic given their
flags.  Classical codes are read from text files: first line "n k",
then n-k lines of n tokens from {0, 1, w, W}, '#' starting a comment.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from . import gf4
from .builder import ClassicalCode, CodeParameters, build_code, parameters
from .analysis import _lightest, hashing_rates, singleton_report
from .pauli import format_pauli
from .simulate import (
    DepolarizingChannel,
    build_syndrome_table,
    catalytic_schedule,
    run_trials,
    trial_report,
)


# Most Paulis a command may enumerate: the syndrome table of `simulate
# --max-weight`, and the walk of `analyze` through --weight-cap and 2 * --t,
# each option counted by paulis_up_to.  An explicit value above it is refused,
# since the work could run for hours (and a table that never fills never stops
# early); analyze's default weight cap shrinks to fit.  The walk enumerates
# only weights up to ceil(cap / 2) and t, so the count over all weights up to
# the value over-states its work; it is kept so that default caps and
# refusals stay as they were.
TABLE_BUDGET = 10**7


def paulis_up_to(n: int, weight: int) -> int:
    """Number of n-qubit Paulis of weight at most weight: sum of C(n, w) * 3**w."""
    return sum(math.comb(n, w) * 3**w for w in range(min(weight, n) + 1))


def _within_budget(option: str, value: int, n: int, work: str) -> None:
    count = paulis_up_to(n, value)
    if count > TABLE_BUDGET:
        raise ValueError(
            f"{option} {value} would enumerate {count} Paulis for the {work}, "
            f"over the budget of {TABLE_BUDGET}"
        )


# Most qubits a code may have for analyze and simulate.  Both build the check
# frame of frames._check_rows, 2n rows of 2n bits reduced against each other,
# which grows as n**2 in memory and faster in time, so a larger code is
# refused from the header line of its file, before any row is read or
# checked.  At the bound, a 4096-qubit code with no generators took 6.5 s to
# analyze and 6.8-8.0 s to simulate at --max-weight 0, with a peak RSS of
# about 120-125 MB (one core of a 2-vCPU Xeon, Python 3.11).
MAX_QUBITS = 4096


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


def parse_code_text(text: str, max_qubits: Optional[int] = None) -> ClassicalCode:
    """Parse the plain-text classical-code format.

    A header with n over max_qubits raises a plain ValueError, not a
    CodeFileError, before any row is read: the file may be well formed, and
    its code is only too large for the check frame.
    """
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
            if max_qubits is not None and n > max_qubits:
                raise ValueError(
                    f"n={n} is over the bound of {max_qubits} qubits for the check frame"
                )
            header = (n, k)
            continue
        n, k = header
        if len(rows) == n - k:
            raise CodeFileError(f"more than n-k={n - k} parity-check rows", lineno)
        if len(tokens) != n:
            raise CodeFileError(f"expected {n} tokens, got {len(tokens)}", lineno)
        row = tuple(map(gf4._TOKENS.get, tokens))
        if None in row:  # parse_symbol words the first bad token's error
            col = row.index(None)
            try:
                gf4.parse_symbol(tokens[col])
            except ValueError as exc:
                raise CodeFileError(str(exc), lineno, col + 1) from None
        rows.append(row)
    if header is None:
        raise CodeFileError("empty file, expected header 'n k'", 1)
    n, k = header
    if len(rows) != n - k:
        raise CodeFileError(f"expected n-k={n - k} rows, found {len(rows)}", 1)
    try:
        return ClassicalCode.from_rows(n, k, rows)
    except ValueError as exc:
        raise CodeFileError(str(exc), 1) from None


def load_code_file(path: str, max_qubits: Optional[int] = None) -> CodeFile:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise CodeFileError(f"non-ASCII byte 0x{data[exc.start]:02x}", line, column) from None
    return CodeFile(path, parse_code_text(text, max_qubits))


def _param_lines(report: CodeParameters) -> List[str]:
    return [
        f"code={report.label}",
        f"n={report.n}",
        f"k={report.k_enc}",
        f"c={report.c}",
        f"s={report.s}",
        f"rate={report.rate}",
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
    code = load_code_file(args.input, MAX_QUBITS).code
    codeq = build_code(code)
    n = codeq.n
    if args.weight_cap is not None:
        _within_budget("--weight-cap", args.weight_cap, n, "distance search")
    _within_budget("--t", args.t, n, "distinct-syndrome check")
    cap = 0  # without logical operators a code has no distance
    if codeq.k_enc > 0:
        cap = args.weight_cap
        if cap is None:  # the largest weight up to min(n, 6) within the budget
            cap = min(n, 6)
            while cap > 1 and paulis_up_to(n, cap) > TABLE_BUDGET:
                cap -= 1
    # one walk for d, degeneracy and distinct syndromes: a nonidentity Pauli of
    # weight <= 2t with a zero syndrome is a logical or an isotropic-span element
    logical, isotropic = _lightest(codeq, max(cap, 2 * args.t))
    d = logical if logical is not None and logical <= cap else None
    lines = _param_lines(parameters(codeq, d))
    if codeq.k_enc == 0:
        lines.append("d=undefined")
    elif d is not None:
        lines.append(f"d={d}")
    else:
        lines.append(f"d_lower_bound={cap + 1}")
    lines.append(f"t={args.t}")
    distinct = all(w is None or w > 2 * args.t for w in (logical, isotropic))
    lines.append(f"distinct_syndromes={'yes' if distinct else 'no'}")
    if d is not None:
        bounds = singleton_report(code.n, code.k, d, codeq.c)
        lines.append(f"singleton_classical_slack={bounds.singleton_classical_slack}")
        lines.append(f"singleton_quantum_slack={bounds.singleton_quantum_slack}")
        saturated = bounds.classical_saturated and bounds.quantum_saturated
        lines.append(f"singleton_saturated={'yes' if saturated else 'no'}")
        if codeq.s:  # isotropic is lighter than d when it is not None
            lines.append(f"degenerate={'yes' if isotropic is not None else 'no'}")
    print("\n".join(lines))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    codeq = build_code(load_code_file(args.input, MAX_QUBITS).code)
    channel = DepolarizingChannel(args.p)
    _within_budget("--max-weight", args.max_weight, codeq.n, "syndrome table")
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
    return [_probability(part) for part in text.split(",")]


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
        help="distance search cap (default: min(n, 6), lowered to fit the Pauli budget)",
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
        "--workers",
        type=_positive_int,
        default=1,
        help="ranges of trials run at once, at most one per CPU the process may run on and per "
        "65536 trials; the first in this process, the rest in forked worker processes on "
        "Linux (threads elsewhere)",
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodeFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # InfeasibleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
