"""Every seed -> result pin of the console reports, in one table.

Each entry is one `eaqecc` command line, the --workers counts to run it at,
its whole expected stdout and what it exercises.  Paths are relative to the
repository root.  tests/test_pins.py runs every entry in-process through
cli.main; run as a script, this module runs each in a fresh
`python -m eaqecc.cli` process, from the repository root on its own src/:

    python3 tests/pins.py

Both fail on a nonzero exit, any stderr, or a stdout other than the pinned
one, and show the new stdout.  When a report changes on purpose, paste the
new stdout into its entry.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Pin(NamedTuple):
    command: str  # the words after `eaqecc`, without --workers
    workers: Tuple[int, ...]  # each count runs once; () runs the command as it stands
    why: str
    stdout: str

    @property
    def argv(self) -> Tuple[str, ...]:
        return tuple(self.command.split())

    def runs(self) -> List[List[str]]:
        """The argv of each run: one per worker count."""
        if not self.workers:
            return [list(self.argv)]
        return [[*self.argv, "--workers", str(w)] for w in self.workers]

    def diff(self, out: str) -> str:
        """A unified diff from the pinned stdout to out."""
        lines = difflib.unified_diff(
            self.stdout.splitlines(keepends=True), out.splitlines(keepends=True), "pinned", "got"
        )
        return "".join(lines)


ENTRIES = (
    Pin(
        "analyze src/eaqecc/data/h4.code",
        (),
        "the README's analyze example: the bundled code's exact distance",
        """\
code=[[4,1,3;1]]
n=4
k=1
c=1
s=2
rate=0
d=3
t=1
distinct_syndromes=yes
singleton_classical_slack=0
singleton_quantum_slack=0
singleton_saturated=yes
degenerate=no
""",
    ),
    Pin(
        "simulate src/eaqecc/data/h4.code --p 0.01 --trials 1000000 --seed 42",
        (1, 2),
        "the README's and PAPER.md's simulate example, on one and two threads",
        """\
n=4
k=1
c=1
s=2
trials=1000000
failures=557
rate=0.000557
degenerate_successes=29
residual_syndrome_nonzero=0
seed=42
""",
    ),
    Pin(
        "simulate bench/corpus/w64.code --p 0.1 --trials 4096 --max-weight 2 --seed 3",
        (1, 2),
        "a one-block run with more workers than blocks: one range; its 4096-trial"
        " block hashes its qubits in groups of 8",
        """\
n=40
k=7
c=31
s=2
trials=4096
failures=3203
rate=0.781982421875
degenerate_successes=0
residual_syndrome_nonzero=0
seed=3
""",
    ),
    Pin(
        "simulate bench/corpus/r40.code --p 0.1 --trials 1000 --max-weight 1 --seed 5",
        (1, 2),
        "a short block in groups of 32 qubits and a last group of 8",
        """\
n=40
k=30
c=10
s=0
trials=1000
failures=925
rate=0.925
degenerate_successes=0
residual_syndrome_nonzero=0
seed=5
""",
    ),
    Pin(
        "simulate src/eaqecc/data/h4.code --p 0.01 --trials 200003 --seed 7",
        (1, 2, 3),
        "several blocks per range and a short last block, each range in its own reused buffers",
        """\
n=4
k=1
c=1
s=2
trials=200003
failures=94
rate=0.000469992950106
degenerate_successes=5
residual_syndrome_nonzero=0
seed=7
""",
    ),
    Pin(
        "simulate bench/corpus/r20.code --p 0.1 --max-weight 4 --trials 131075 --seed 5",
        (1, 2, 3),
        "a deep table on the direct syndrome index (m = 12), over three ranges and a short"
        " last block",
        """\
n=20
k=12
c=4
s=4
trials=131075
failures=46356
rate=0.353660118253
degenerate_successes=0
residual_syndrome_nonzero=0
seed=5
""",
    ),
    Pin(
        "simulate bench/corpus/r40.code --p 0.01 --max-weight 1 --trials 131075 --seed 5",
        (1, 2, 3),
        "the sorted syndrome index (m = 20): two whole blocks and a short last one, over one"
        " to three ranges",
        """\
n=40
k=30
c=10
s=0
trials=131075
failures=7912
rate=0.0603623879458
degenerate_successes=0
residual_syndrome_nonzero=0
seed=5
""",
    ),
    Pin(
        "simulate bench/corpus/n128.code --p 0.01 --max-weight 2 --trials 131075 --seed 5",
        (1, 2),
        "the sorted syndrome index on two key words (m = 128): each query row searched as its"
        " big-endian bytes",
        """\
n=128
k=64
c=64
s=0
trials=131075
failures=17876
rate=0.136379935152
degenerate_successes=0
residual_syndrome_nonzero=0
seed=5
""",
    ),
    Pin(
        "simulate bench/corpus/r24.code --p 0.1 --max-weight 3 --trials 20000 --seed 5",
        (),
        "the direct syndrome-table build (m = 16) on a table that never fills",
        """\
n=24
k=15
c=7
s=2
trials=20000
failures=5752
rate=0.2876
degenerate_successes=0
residual_syndrome_nonzero=0
seed=5
""",
    ),
    Pin(
        "simulate bench/corpus/w64.code --p 0.1 --max-weight 3 --trials 4096 --seed 3",
        (1, 2),
        "a deep table on the sorted merge (m = 64): 266,760 weight-3 candidates reach the"
        " merge in five slices",
        """\
n=40
k=7
c=31
s=2
trials=4096
failures=2378
rate=0.58056640625
degenerate_successes=0
residual_syndrome_nonzero=0
seed=3
""",
    ),
    Pin(
        "simulate bench/corpus/r40.code --p 0.01 --max-weight 3 --trials 131075 --seed 5",
        (1, 2),
        "the sorted merge where syndromes collide (m = 20): 266,760 weight-3 candidates in"
        " eight syndrome groups, many sharing a syndrome or hitting one the table holds",
        """\
n=40
k=30
c=10
s=0
trials=131075
failures=224
rate=0.00170894526035
degenerate_successes=0
residual_syndrome_nonzero=0
seed=5
""",
    ),
    Pin(
        "analyze bench/corpus/n64.code --weight-cap 1 --t 3",
        (),
        "the analysis walk over many chunks of frames._level: n64's weight-3 level is 1.12M"
        " rows of 2 words, walked to D = 2t = 6",
        """\
code=[[64,31;31]]
n=64
k=31
c=31
s=2
rate=0
d_lower_bound=2
t=3
distinct_syndromes=yes
""",
    ),
    Pin(
        "build src/eaqecc/data/h4.code",
        (),
        "the README's build example: the bundled code's generators",
        """\
code=[[4,1;1]]
n=4
k=1
c=1
s=2
rate=0
alice_generators:
ZXZI
ZZIZ
XYXI
XXIX
extended_generators:
ZXZIZ
ZZIZX
YXXZI
XZZYI
""",
    ),
    Pin(
        "bounds --f-list 0,0.1,0.75",
        (),
        "the README's bounds example: the capacity and hashing rates",
        """\
f=0 R_C=1 R_Q=1
f=0.1 R_C=0.686254078169 R_Q=0.372508156339
f=0.75 R_C=0 R_Q=-1
""",
    ),
    Pin(
        "catalytic src/eaqecc/data/h4.code --rounds 3 --initial-ebits 1",
        (),
        "the README's catalytic example: k = c = 1 keeps its ebit and delivers nothing",
        """\
rounds=3
initial_ebits=1
round=1 delivered=0 ebits_held=1
round=2 delivered=0 ebits_held=1
round=3 delivered=0 ebits_held=1
total_delivered=0
""",
    ),
)


def main() -> int:
    """Run every entry in fresh processes; print a diff per mismatch, return 1 on any."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    failed = 0
    for pin in ENTRIES:
        for argv in pin.runs():
            run = subprocess.run(
                [sys.executable, "-m", "eaqecc.cli", *argv],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            if (run.returncode, run.stderr, run.stdout) == (0, "", pin.stdout):
                continue
            failed += 1
            print(f"FAIL eaqecc {' '.join(argv)}: exit {run.returncode}")
            print(run.stderr, end="")
            print(pin.diff(run.stdout), end="")
            print(f"new stdout:\n{run.stdout}", end="")
    runs = sum(len(pin.runs()) for pin in ENTRIES)
    print(f"{runs - failed} of {runs} pinned runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
