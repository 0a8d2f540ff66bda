"""Workload definitions and work sizing for the eaqecc benchmark.

Every workload runs the three things a user does with a code -- `eaqecc
build`, `eaqecc analyze` and `eaqecc simulate` -- on its own codes, so that
every metric exists on every workload.  The settings decide which layer
dominates: Monte Carlo decoding (mc_lowp), syndrome-table construction,
the scalar decoder and the thread pool (mc_deep), or exhaustive search and
symplectic completion (analyze).  Each is a closed loop: one process runs
its jobs back to back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

# Exponential work is sized before it starts; a job above these budgets is
# refused (and counted as failed) instead of running for hours.
PAULI_BUDGET = 1_000_000  # Paulis per syndrome table, distance search or t-check
SUBSET_BUDGET = 1 << 20  # isotropic-span subsets per parameters() scan

BLOCK = 1 << 16  # run_trials decodes in blocks of this many trials


@dataclass(frozen=True)
class Sim:
    """`eaqecc simulate`: a table of the given depth, `trials` per timed sample."""

    code: str
    depth: int
    trials: int


@dataclass(frozen=True)
class Analyze:
    """`eaqecc analyze --weight-cap cap --t t`."""

    code: str
    cap: int
    t: int

    @property
    def key(self) -> str:
        return f"cap={self.cap} t={self.t}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    p: float
    workers: int
    sim: Tuple[Sim, ...]
    analyze: Tuple[Analyze, ...]
    construct: Tuple[str, ...]  # `eaqecc build` plus find_encoding_symplectic

    def codes(self) -> Tuple[str, ...]:
        names = [j.code for j in self.sim] + [j.code for j in self.analyze]
        return tuple(dict.fromkeys(names + list(self.construct)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mc_lowp",
            why="ROADMAP baseline settings (p=0.01, shallow tables, 1 worker): "
            "run_trials is over 90% of the time, tables and search near zero",
            p=0.01,
            workers=1,
            sim=(
                Sim("h4", 2, 8 * BLOCK),
                Sim("r16", 2, 3 * BLOCK),
                Sim("r24", 2, 2 * BLOCK),
                Sim("r40", 1, BLOCK),
            ),
            analyze=(
                Analyze("h4", 3, 1),
                Analyze("r16", 2, 1),
                Analyze("r24", 2, 1),
                Analyze("r40", 2, 1),
            ),
            construct=("h4", "r16", "r24", "r40"),
        ),
        Workload(
            name="mc_deep",
            why="p=0.1, deep tables (r20 saturates by w=3, r24 never), "
            "the scalar >62-generator decoder and 2 threads: setup dominates",
            p=0.1,
            workers=2,
            sim=(
                Sim("r20", 4, 2 * BLOCK),
                Sim("r24", 3, 2 * BLOCK),
                Sim("w64", 2, 4096),
            ),
            analyze=(
                Analyze("r20", 3, 1),
                Analyze("r24", 2, 1),
                Analyze("w64", 2, 1),
            ),
            construct=("r20", "r24", "w64"),
        ),
        Workload(
            name="analyze",
            why="exact distance at w=5, a 2^16 isotropic scan and a capped "
            "search, plus symplectic completion at n=64 and n=128: "
            "analysis, gf2 and symplectic do the work",
            p=0.01,
            workers=1,
            sim=(
                Sim("d5", 1, BLOCK),
                Sim("h22", 1, BLOCK),
                Sim("r40", 1, BLOCK),
            ),
            analyze=(
                Analyze("d5", 5, 2),
                Analyze("h22", 3, 2),
                Analyze("r40", 3, 2),
            ),
            construct=("d5", "h22", "r40", "n64", "n128"),
        ),
    )
}


def paulis_up_to(n: int, weight: int, start: int = 0) -> int:
    """Number of n-qubit Paulis of weight start..weight: sum C(n,w) 3^w."""
    return sum(math.comb(n, w) * 3**w for w in range(start, min(weight, n) + 1))


def isotropic_subsets(s: int) -> int:
    """Nonempty subsets scanned by min_isotropic_weight (0 beyond its 20-row limit)."""
    return (1 << s) - 1 if s <= 20 else 0
