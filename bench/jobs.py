"""Setup, timed passes, traced replays and oracle checks of the benchmark.

An untraced pass makes the calls the CLI makes: run_trials + trial_report
per simulate job, eaqecc.cli.main for `analyze` and `build`.  A traced pass
replays the same jobs as separate calls into each module's public
functions, each wrapped in a span recorded from this file; nothing inside
the package is instrumented.  Per-Pauli calls (syndrome_of,
symplectic_product, gf2.parity, gf2.reduce_vector) are never spanned: they
run millions of times, so they are counted by computation instead.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from eaqecc import gf2
from eaqecc.analysis import (
    min_distance_bruteforce,
    nondegenerate_distinct_syndromes,
    singleton_report,
    syndrome_of,
)
from eaqecc.builder import (
    EaqeccCode,
    build_code,
    extend_generators,
    parameters,
    quaternary_to_stabilizer,
)
from eaqecc.cli import load_code_file
from eaqecc.pauli import format_pauli
from eaqecc.simulate import (
    CounterRng,
    DepolarizingChannel,
    SyndromeTable,
    build_syndrome_table,
    decode_error,
    run_trials,
    sample_error,
    trial_report,
)
from eaqecc.symplectic import (
    SymplecticMatrix,
    canonical_generator_rows,
    find_encoding_symplectic,
    gram_schmidt_decompose,
    reduce_independent,
)

from corpus import CORPUS, parse_report, run_cli, sha256
from workloads import Analyze, Sim, Workload

perf = time.perf_counter

PREFIX_TRIALS = 2000  # trials decoded one at a time by the oracle
CLI_TRIALS = 1000  # trials of the one `eaqecc simulate` run per simulate job


class CheckError(Exception):
    """An output disagreed with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Ledger:
    """Counts jobs attempted and failed; a failed job is reported, not fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failing job counts toward failed and the run goes on
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def refuse(self, label: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"REFUSED {label}: {reason}", file=sys.stderr)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def summary(self, start: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(total time per span name, self time per layer) of spans[start:]."""
        spans = self.spans[start:]
        totals: Dict[str, float] = {}
        self_time: Dict[str, float] = {}
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent is not None and parent >= start:
                child_time[parent - start] += t1 - t0
        for (name, t0, t1, _), children in zip(spans, child_time):
            totals[name] = totals.get(name, 0.0) + (t1 - t0)
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + (t1 - t0 - children)
        return totals, self_time


class NoTrace:
    """Stand-in for Tracer where the replay runs without spans."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)


@dataclass
class Loaded:
    path: str
    codeq: EaqeccCode
    table: Optional[SyndromeTable]


def build_replay(tr, code) -> EaqeccCode:
    """build_code as its public steps, so symplectic time is split out."""
    with tr.span("builder.build_code"):
        raw = quaternary_to_stabilizer(code)
        independent = tr.call("symplectic.reduce_independent", reduce_independent, raw)
        decomp = tr.call("symplectic.gram_schmidt_decompose", gram_schmidt_decompose, independent)
        return EaqeccCode(
            n=code.n,
            c=decomp.c,
            s=decomp.s,
            k_enc=code.n - decomp.c - decomp.s,
            generators=independent,
            extended=extend_generators(decomp, code.n),
            decomposition=decomp,
            classical=code,
        )


def setup_code(wl: Workload, name: str, manifest: dict, tr=None) -> Loaded:
    """load_code_file + build_code + build_syndrome_table for one code."""
    depth = {job.code: job.depth for job in wl.sim}
    path = str(CORPUS / manifest[name]["file"])
    if tr is None:
        codeq = build_code(load_code_file(path).code)
        table = build_syndrome_table(codeq, depth[name]) if name in depth else None
    else:
        codeq = build_replay(tr, tr.call("cli.load_code_file", load_code_file, path).code)
        table = None
        if name in depth:
            table = tr.call("simulate.build_syndrome_table", build_syndrome_table, codeq, depth[name])
    return Loaded(path, codeq, table)


def setup(wl: Workload, manifest: dict, tr=None) -> Dict[str, Loaded]:
    """setup_code for every code of the workload."""
    return {name: setup_code(wl, name, manifest, tr) for name in wl.codes()}


# ---------------------------------------------------------------- checks


def _bits(v: int, width: int) -> np.ndarray:
    raw = np.frombuffer(v.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(np.int64)


def check_encoding(m: SymplecticMatrix, codeq: EaqeccCode) -> None:
    """M J M^T = J by numpy arithmetic, and M carries the canonical rows."""
    n = m.n
    mat = np.array([_bits(r, 2 * n) for r in m.rows])
    zero, eye = np.zeros((n, n), np.int64), np.eye(n, dtype=np.int64)
    form = np.block([[zero, eye], [eye, zero]])
    require(bool(((mat @ form @ mat.T) % 2 == form).all()), "encoding matrix is not symplectic")
    for canon, target in canonical_generator_rows(codeq.decomposition):
        image = (_bits(canon, 2 * n) @ mat) % 2
        require(bool((image == _bits(target, 2 * n)).all()), "encoding misses a canonical row")


def check_code(name: str, loaded: Loaded, entry: dict) -> None:
    q = loaded.codeq
    require(sha256(Path(loaded.path).read_bytes()) == entry["sha256"], f"{name}: file hash")
    got = (q.n, q.k_enc, q.c, q.s, len(q.generators))
    want = (entry["n"], entry["k_enc"], entry["c"], entry["s"], entry["generators"])
    require(got == want, f"{name}: (n, k, c, s, m) {got} != manifest {want}")
    require(build_replay(NoTrace(), q.classical) == q, f"{name}: replayed build differs")


def check_table(name: str, loaded: Loaded, depth: int, entry: dict) -> None:
    """Entries per depth match the manifest; each entry reproduces its key."""
    weights = [p.weight for p in loaded.table.entries.values()]
    per_depth = {str(w): sum(1 for x in weights if x <= w) for w in range(depth + 1)}
    want = {w: entry["table_entries_by_depth"][w] for w in per_depth}
    require(per_depth == want, f"{name}: table entries {per_depth} != manifest {want}")
    for key, p in loaded.table.entries.items():
        require(p.weight <= depth, f"{name}: entry {p} above depth {depth}")
        require(syndrome_of(loaded.codeq, p) == key, f"{name}: entry {p} has another syndrome")


def check_prefix(loaded: Loaded, p: float, seed: int, workers: int) -> Tuple[int, int]:
    """run_trials on a prefix equals one-at-a-time decoding; (known, failures)."""
    q, table = loaded.codeq, loaded.table
    ch = DepolarizingChannel(p)
    known = failures = degenerate = 0
    for t in range(PREFIX_TRIALS):
        outcome = decode_error(q, table, sample_error(ch, q.n, CounterRng(seed, t)))
        known += outcome.known_syndrome
        if not outcome.success:
            failures += 1
        elif not outcome.residual.is_identity():
            degenerate += 1
    r = run_trials(q, ch, table, PREFIX_TRIALS, seed, workers)
    require(r.residual_syndrome_nonzero == 0, "a correction missed its own syndrome")
    require(
        (r.logical_failures, r.residual_in_isotropic) == (failures, degenerate),
        f"run_trials (failures, degenerate) {(r.logical_failures, r.residual_in_isotropic)}"
        f" != oracle {(failures, degenerate)}",
    )
    return known, failures


def check_cli_simulate(loaded: Loaded, job: Sim, p: float, seed: int, workers: int) -> None:
    """`eaqecc simulate` prints exactly trial_report of the library path."""
    argv = ["simulate", loaded.path, "--p", repr(p), "--trials", str(CLI_TRIALS), "--seed",
            str(seed), "--max-weight", str(job.depth), "--workers", str(workers)]
    r = run_trials(loaded.codeq, DepolarizingChannel(p), loaded.table, CLI_TRIALS, seed, workers)
    require(run_cli(argv) == trial_report(r, loaded.codeq) + "\n", "CLI report differs")


def check_trials(r, trials: int) -> None:
    require(r.trials == trials, "trial count")
    require(r.residual_syndrome_nonzero == 0, "a correction missed its own syndrome")
    require(0 <= r.residual_in_isotropic <= trials - r.logical_failures, "degenerate count")


def check_analysis(report, dist, distinct: bool, want: Dict[str, str]) -> None:
    """Replayed analyze results against the manifest's analyze report."""
    if dist.exact:
        require(want.get("d") == str(dist.distance), f"d={dist.distance}, manifest {want}")
    else:
        require(want.get("d_lower_bound") == str(dist.lower_bound), "d_lower_bound")
    require(want["code"] == report.label, f"label {report.label} != {want['code']}")
    require(want["distinct_syndromes"] == ("yes" if distinct else "no"), "distinct_syndromes")
    if report.degenerate is not None:
        require(want.get("degenerate") == ("yes" if report.degenerate else "no"), "degenerate")


# ---------------------------------------------------------------- jobs


def _swap_halves(v: int, n: int) -> int:
    return (v >> n) | ((v & ((1 << n) - 1)) << n)


def _parity(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def gf2_job(codeq: EaqeccCode, tr) -> None:
    """The four GF(2) kernels on the generator rows and their swapped system."""
    n2 = 2 * codeq.n
    rows = [g.row() for g in codeq.generators]
    system = [_swap_halves(r, codeq.n) for r in rows]
    rhs = [i & 1 for i in range(len(rows))]
    rank = tr.call("gf2.rank", gf2.rank, rows, n2)
    reduced, pivots = tr.call("gf2.row_reduce", gf2.row_reduce, rows, n2)
    x = tr.call("gf2.solve", gf2.solve, system, rhs, n2)
    null = tr.call("gf2.nullspace", gf2.nullspace, system, n2)
    require(rank == len(rows) == len(reduced) == len(pivots), "generator rows not independent")
    require(x is not None and all(_parity(s, x) == b for s, b in zip(system, rhs)), "gf2.solve")
    require(len(null) == n2 - rank, "nullspace dimension")
    require(all(_parity(s, v) == 0 for s in system for v in null), "nullspace vector")


def sim_job(loaded: Loaded, job: Sim, p: float, seed: int, workers: int, tr=None):
    """Timed run_trials + trial_report; returns (seconds, result)."""
    ch = DepolarizingChannel(p)
    t0 = perf()
    if tr is None:
        r = run_trials(loaded.codeq, ch, loaded.table, job.trials, seed, workers)
        trial_report(r, loaded.codeq)
    else:
        r = tr.call("simulate.run_trials", run_trials, loaded.codeq, ch, loaded.table,
                    job.trials, seed, workers)
        tr.call("simulate.trial_report", trial_report, r, loaded.codeq)
    dt = perf() - t0
    check_trials(r, job.trials)
    return dt, r


def analyze_job(loaded: Loaded, job: Analyze, want: Dict[str, str], tr=None) -> float:
    """`eaqecc analyze` through main, or replayed as its public calls."""
    t0 = perf()
    if tr is None:
        out = run_cli(["analyze", loaded.path, "--weight-cap", str(job.cap), "--t", str(job.t)])
        dt = perf() - t0
        require(parse_report(out) == want, f"analyze report {parse_report(out)} != manifest")
        return dt
    code = tr.call("cli.load_code_file", load_code_file, loaded.path).code
    codeq = build_replay(tr, code)
    dist = tr.call("analysis.min_distance_bruteforce", min_distance_bruteforce, codeq, job.cap)
    report = tr.call("builder.parameters", parameters, codeq, dist.distance)
    distinct = tr.call("analysis.nondegenerate_distinct_syndromes",
                       nondegenerate_distinct_syndromes, codeq, job.t)
    if dist.exact:
        tr.call("analysis.singleton_report", singleton_report, code.n, code.k, dist.distance, codeq.c)
    dt = perf() - t0
    check_analysis(report, dist, distinct, want)
    return dt


def construct_job(loaded: Loaded, build_sha: str, tr=None) -> float:
    """`eaqecc build` (or its replay) plus find_encoding_symplectic."""
    t0 = perf()
    if tr is None:
        out = run_cli(["build", loaded.path])
        m = find_encoding_symplectic(loaded.codeq.decomposition)
        dt = perf() - t0
        require(sha256(out.encode("ascii")) == build_sha, "build report differs from manifest")
        codeq = loaded.codeq
    else:
        code = tr.call("cli.load_code_file", load_code_file, loaded.path).code
        codeq = build_replay(tr, code)
        tr.call("builder.parameters", parameters, codeq)
        with tr.span("pauli.format_pauli"):
            [format_pauli(g) for g in list(codeq.generators) + list(codeq.extended)]
        m = tr.call("symplectic.find_encoding_symplectic", find_encoding_symplectic,
                    codeq.decomposition)
        dt = perf() - t0
        require(codeq == loaded.codeq, "replayed build differs")
    check_encoding(m, codeq)
    return dt
