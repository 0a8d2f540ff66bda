"""Measurement loop of the benchmark: sizing, setup, checks, passes, metrics.

bench/run.py is the entry point; it puts the package's src/ on sys.path
before importing this module.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import replace

import numpy as np

import jobs
from corpus import MANIFEST
from workloads import PAULI_BUDGET, SUBSET_BUDGET, isotropic_subsets, paulis_up_to

perf = time.perf_counter

SETUP_REPEATS = 3
# A setup cheaper than this share of a pass is also timed once per pass, so
# that its samples span the run like the other timings.
SETUP_SHARE = 0.1
MIN_PASSES = 3
LAYERS = ("cli", "builder", "symplectic", "gf2", "pauli", "analysis", "simulate", "bench")
SPANNED = (
    "simulate.run_trials",
    "analysis.min_distance_bruteforce",
    "analysis.nondegenerate_distinct_syndromes",
    "builder.parameters",
    "cli.load_code_file",
    "builder.build_code",
    "symplectic.reduce_independent",
    "symplectic.gram_schmidt_decompose",
    "symplectic.find_encoding_symplectic",
    "gf2.rank",
    "gf2.row_reduce",
    "gf2.solve",
    "gf2.nullspace",
)


# End-to-end timings are given in reference seconds: the seconds a unit of
# work takes when reference_work() takes REF_SECONDS, its median on the host
# of bench/baseline.json.
REF_SECONDS = 0.016
_REF_WORDS = np.arange(1 << 15, dtype=np.uint64)


def reference_work() -> int:
    """Fixed interpreter and numpy work, about half of each; no eaqecc code."""
    acc, seen = 0, {}
    for i in range(30000):
        v = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc ^= v >> 3
        seen[v & 1023] = acc
    x = _REF_WORDS
    for _ in range(150):
        x = (x * np.uint64(2654435761)) ^ (x >> np.uint64(7))
    return acc ^ int(x[5])


class Clock:
    """Scales wall seconds to reference seconds.

    On a shared host the same code can run up to 1.7x slower for seconds to
    minutes at a time (so it did on the 2-vCPU guest of bench/baseline.json),
    and a run's median wall time then depends on when it ran.
    reference_work() is timed before the first unit of work and after every
    unit; a unit's scale is REF_SECONDS over the mean of the reference times
    just before and after it.  The reference contains no eaqecc code, so a
    change to the package moves the scaled time in full.
    """

    def __init__(self) -> None:
        self.refs = []
        self.last = self._reference()

    def _reference(self) -> float:
        t0 = perf()
        reference_work()
        dt = perf() - t0
        self.refs.append(dt)
        return dt

    def scale(self) -> float:
        """Scale of the work done since the previous reference."""
        before, self.last = self.last, self._reference()
        return 2 * REF_SECONDS / (before + self.last)


def size_jobs(wl, manifest, ledger):
    """Refuse every job whose exponential work exceeds its budget."""
    sim, analyze = [], []
    for job in wl.sim:
        paulis = paulis_up_to(manifest[job.code]["n"], job.depth)
        print(f"size table {job.code} depth={job.depth} paulis={paulis} budget={PAULI_BUDGET}")
        if paulis > PAULI_BUDGET:
            ledger.refuse(f"sim {job.code}", f"{paulis} Paulis over the budget")
        else:
            sim.append(job)
    for job in wl.analyze:
        entry = manifest[job.code]
        paulis = paulis_up_to(entry["n"], job.cap, 1) + paulis_up_to(entry["n"], job.t, 1)
        subsets = 2 * isotropic_subsets(entry["s"])  # main calls parameters() twice
        print(f"size analyze {job.code} {job.key} paulis={paulis} subsets={subsets}")
        if paulis > PAULI_BUDGET or subsets > SUBSET_BUDGET:
            ledger.refuse(f"analyze {job.code}", "search over the budget")
        else:
            analyze.append(job)
    return replace(wl, sim=tuple(sim), analyze=tuple(analyze))


class Samples:
    """Timings recorded by the passes of one run."""

    def __init__(self, wl) -> None:
        self.sim = {job.code: [] for job in wl.sim}  # trials/s, untraced
        self.main = {job: [] for job in wl.analyze}  # eaqecc analyze seconds, untraced
        self.construct = {name: [] for name in wl.construct}
        self.walls = []  # wall seconds per untraced pass
        self.scaled_walls = []  # the same in reference seconds
        self.traced_walls = []
        self.totals = []  # per traced pass: seconds per span name
        self.self_times = []  # per traced pass: self seconds per layer


def run_checks(wl, loaded, manifest, seed, ledger):
    """Oracle checks, once per run; returns (known, prefix trials, failures)."""
    for name, item in loaded.items():
        ledger.run(f"check code {name}", jobs.check_code, name, item, manifest[name])
    known = prefix = failures = 0
    for job in wl.sim:
        item = loaded[job.code]
        ledger.run(f"check table {job.code}", jobs.check_table, job.code, item, job.depth,
                   manifest[job.code])
        got = ledger.run(f"check prefix {job.code}", jobs.check_prefix, item, wl.p, seed,
                         wl.workers)
        if got is not None:
            known += got[0]
            failures += got[1]
            prefix += jobs.PREFIX_TRIALS
        ledger.run(f"check cli simulate {job.code}", jobs.check_cli_simulate, item, job, wl.p,
                   seed, wl.workers)
    return known, prefix, failures


def one_pass(wl, loaded, manifest, seed, ledger, samples, clock=None, tr=None):
    """Every timed job once: untraced through the CLI calls, or replayed under tr.

    Returns (wall seconds, reference seconds) of the pass, summed over its
    units; without a clock the scale is 1.
    """
    wall = scaled = 0.0

    def unit(label, fn, *args):
        nonlocal wall, scaled
        t0 = perf()
        got = ledger.run(label, fn, *args)
        dt = perf() - t0
        k = clock.scale() if clock else 1.0
        wall += dt
        scaled += dt * k
        return got, k

    for job in wl.sim:
        got, k = unit(f"sim {job.code}", jobs.sim_job, loaded[job.code], job, wl.p, seed,
                      wl.workers, tr)
        if got is not None and tr is None:
            samples.sim[job.code].append(job.trials / (got[0] * k))
    for job in wl.analyze:
        dt, k = unit(f"analyze {job.code}", jobs.analyze_job, loaded[job.code], job,
                     manifest[job.code]["analyze"][job.key], tr)
        if dt is not None and tr is None:
            samples.main[job].append(dt * k)
    for name in wl.construct:
        dt, k = unit(f"construct {name}", jobs.construct_job, loaded[name],
                     manifest[name]["build_report_sha256"], tr)
        if dt is not None and tr is None:
            samples.construct[name].append(dt * k)
        unit(f"gf2 {name}", jobs.gf2_job, loaded[name].codeq, tr or jobs.NoTrace())
    return wall, scaled


def timed_setup(wl, manifest, clock):
    """jobs.setup, scaled code by code; returns (loaded, reference seconds)."""
    loaded, scaled = {}, 0.0
    for name in wl.codes():
        t0 = perf()
        loaded[name] = jobs.setup_code(wl, name, manifest)
        scaled += (perf() - t0) * clock.scale()
    return loaded, scaled


def end_to_end(samples):
    med = statistics.median
    values, lines = {}, []
    per_code = {code: med(v) for code, v in samples.sim.items() if v}
    lines += [f"trials_per_s.{code} {v:.6g} 1/s" for code, v in per_code.items()]
    lines += [f"analyze_s.{job.code} {med(v):.6g} s" for job, v in samples.main.items() if v]
    lines += [f"construct_s.{name} {med(v):.6g} s" for name, v in samples.construct.items() if v]
    if per_code and len(per_code) == len(samples.sim):
        values["trials_per_s"] = statistics.geometric_mean(per_code.values())
    if all(samples.main.values()):
        values["analyze_s"] = sum(med(v) for v in samples.main.values())
    if all(samples.construct.values()):
        values["construct_s"] = sum(med(v) for v in samples.construct.values())
    values["wall_s"] = med(samples.scaled_walls)
    lines.append(f"wall_s.unscaled {med(samples.walls):.6g} s (median wall seconds of a pass)")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, lines


def workers_speedup(wl, loaded, seed, ledger, lines):
    """run_trials time at workers=1 over workers=2, in ABBA order."""
    seconds = {(job.code, w): 0.0 for job in wl.sim for w in (1, 2)}
    for workers in (1, 2, 2, 1):
        for job in wl.sim:
            got = ledger.run(f"sim {job.code} workers={workers}", jobs.sim_job, loaded[job.code],
                             job, wl.p, seed, workers)
            if got is not None:
                seconds[job.code, workers] += got[0]
    for job in wl.sim:
        if seconds[job.code, 2]:
            ratio = seconds[job.code, 1] / seconds[job.code, 2]
            lines.append(f"simulate.workers_speedup.{job.code} {ratio:.4g}")
    total = {w: sum(v for (_, k), v in seconds.items() if k == w) for w in (1, 2)}
    return total[1] / total[2] if total[2] else None


def cli_overhead(wl, loaded, manifest, ledger, lines):
    """main(["analyze", ...]) wall minus its replay, in ABBA order per job."""
    total = 0.0
    for job in wl.analyze:
        want = manifest[job.code]["analyze"][job.key]
        main_s = replay_s = params_s = 0.0
        for traced in (False, True, True, False):
            tr = jobs.Tracer() if traced else None
            dt = ledger.run(f"analyze {job.code}", jobs.analyze_job, loaded[job.code], job, want, tr)
            if dt is None:
                return None
            if traced:
                replay_s += dt
                params_s += tr.summary(0)[0]["builder.parameters"]
            else:
                main_s += dt
        total += (main_s - replay_s) / 2
        lines.append(f"cli.analyze.overhead_s.{job.code} {(main_s - replay_s) / 2:.6g} s"
                     f" (builder.parameters.s.{job.code} {params_s / 2:.6g} s)")
    return total


def per_layer(wl, loaded, manifest, samples, checks, setup_totals):
    med = statistics.median
    values, lines = {}, []
    for name in SPANNED:
        values[f"{name}.s"] = med([t.get(name, 0.0) for t in samples.totals])
    values["simulate.build_syndrome_table.s"] = setup_totals.get("simulate.build_syndrome_table", 0.0)
    for layer in LAYERS:
        values[f"self_s.{layer}"] = med([s.get(layer, 0.0) for s in samples.self_times])
    values["trace.wall_s"] = med(samples.traced_walls)
    values["trace.overhead_frac"] = values["trace.wall_s"] / med(samples.walls) - 1.0
    accounted = sum(values[f"self_s.{layer}"] for layer in LAYERS)
    lines.append(
        f"accounting: layer self times sum to {accounted:.6g} s, traced pass {values['trace.wall_s']:.6g} s"
        f" = untraced pass {med(samples.walls):.6g} s x (1 + overhead {values['trace.overhead_frac']:.4g})"
    )

    known, prefix, failures = checks
    values["simulate.failures"] = failures
    if prefix:
        values["simulate.known_frac"] = known / prefix

    entries = enumerated = 0
    fills = []
    for job in wl.sim:
        q, table = loaded[job.code].codeq, loaded[job.code].table
        entries += len(table)
        enumerated += paulis_up_to(q.n, job.depth)
        fills.append(len(table) / 2 ** len(q.generators))
        by_depth = manifest[job.code]["table_entries_by_depth"]
        lines.append(f"table {job.code} entries by depth: "
                     + ", ".join(f"w<={w} {by_depth[str(w)]}" for w in range(job.depth + 1)))
    values["simulate.table_entries"] = entries
    if fills:
        values["simulate.table_fill"] = statistics.fmean(fills)
        values["simulate.table_yield"] = entries / enumerated
    weights = subsets = 0
    for job in wl.analyze:
        entry = manifest[job.code]
        report = entry["analyze"][job.key]
        stop = int(report["d"]) if "d" in report else job.cap
        weights += stop
        enumerated += paulis_up_to(entry["n"], stop, 1) + paulis_up_to(entry["n"], job.t, 1)
        if "d" in report:
            subsets += isotropic_subsets(entry["s"])
    values["analysis.distance_weights_searched"] = weights
    values["pauli.paulis_enumerated"] = enumerated
    values["builder.isotropic_subsets"] = subsets
    return values, lines


def measure(wl, args, ledger):
    """Size, set up, check and time the workload; returns (metric values, lines)."""
    manifest = json.loads(MANIFEST.read_text())
    wl = size_jobs(wl, manifest, ledger)
    tr = jobs.Tracer() if args.trace else None
    clock = Clock()
    setup_times = []
    if tr is None:
        for _ in range(SETUP_REPEATS):
            loaded, dt = timed_setup(wl, manifest, clock)
            setup_times.append(dt)
    else:
        loaded = jobs.setup(wl, manifest, tr)
    checks = run_checks(wl, loaded, manifest, args.seed, ledger)

    samples = Samples(wl)
    deadline = perf() + args.seconds
    passes = 0
    clock.scale()  # a fresh reference after the checks
    while passes < MIN_PASSES or perf() < deadline:
        seed = args.seed * 1000 + passes
        if setup_times and samples.walls and (
            statistics.median(setup_times) < SETUP_SHARE * statistics.median(samples.scaled_walls)
        ):
            setup_times.append(timed_setup(wl, manifest, clock)[1])
        wall, scaled = one_pass(wl, loaded, manifest, seed, ledger, samples, clock)
        samples.walls.append(wall)
        samples.scaled_walls.append(scaled)
        if tr is not None:
            start = len(tr.spans)
            with tr.span("bench.pass"):
                one_pass(wl, loaded, manifest, seed, ledger, samples, tr=tr)
            totals, self_time = tr.summary(start)
            samples.traced_walls.append(totals["bench.pass"])
            samples.totals.append(totals)
            samples.self_times.append(self_time)
            clock.scale()  # the traced pass is not a unit
        passes += 1
    lines = [f"passes={passes} (one sample of every timed job per pass)",
             f"reference_work: median {statistics.median(clock.refs):.6g} s over {len(clock.refs)}"
             f" runs, quartiles {' '.join(f'{q:.6g}' for q in statistics.quantiles(clock.refs, n=4))}"
             f"; end-to-end timings are scaled to REF_SECONDS={REF_SECONDS}"]
    if setup_times:
        lines.append(f"setup samples={len(setup_times)}")
    if tr is None:
        values, more = end_to_end(samples)
        values["setup_s"] = statistics.median(setup_times)
    else:
        values, more = per_layer(wl, loaded, manifest, samples, checks, tr.summary(0)[0])
        speedup = workers_speedup(wl, loaded, args.seed, ledger, more)
        if speedup is not None:
            values["simulate.workers_speedup"] = speedup
        overhead = cli_overhead(wl, loaded, manifest, ledger, more)
        if overhead is not None:
            values["cli.analyze.overhead_s"] = overhead
    return values, lines + more
