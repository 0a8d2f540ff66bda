"""The benchmark's pinned corpus of classical GF(4) codes and its manifest.

Every `.code` file under bench/corpus/ is drawn from a recorded
`random.Random` seed and draw order (or copied from the package data), and
manifest.json pins each code's seed-independent results: parameters, table
entries per depth, the analyze reports and the build report hash.

    python3 bench/corpus.py            # regenerate in memory, compare byte for byte
    python3 bench/corpus.py --write    # rewrite the files and the manifest

Run from the repository root; regeneration uses
tests/helpers.random_classical_code, the helper the test-suite uses.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = BENCH / "corpus"
MANIFEST = CORPUS / "manifest.json"

# ROADMAP draw order with random.Random(1); the (10,6) code is drawn only
# so that the later draws match the ROADMAP baseline codes.
ROADMAP_DRAWS = (("r10", 10, 6), ("r16", 16, 10), ("r24", 24, 16), ("r40", 40, 30))
RANDOM_DRAWS = (
    # name, seed, n, k
    ("r20", 3, 20, 14),
    ("w64", 0, 40, 8),
    ("d5", 11, 12, 4),
    ("n64", 64, 64, 32),
    ("n128", 128, 128, 64),
)
HEX22_SEED = 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_text(comment: str, code) -> str:
    from eaqecc import gf4

    lines = [f"# {comment}", f"{code.n} {code.k}"]
    for i in range(code.h.nrows):
        lines.append(" ".join(gf4.format_symbol(v) for v in code.h.row(i)))
    return "\n".join(lines) + "\n"


def _hexacode_plus_row(seed: int):
    """Three hexacode blocks on qubits 0..17 plus one random row on n=22."""
    from eaqecc import gf4
    from eaqecc.builder import ClassicalCode

    w = gf4.OMEGA
    hexacode = ((1, 0, 0, 1, w, w), (0, 1, 0, w, 1, w), (0, 0, 1, w, w, 1))
    rows: List[Tuple[int, ...]] = []
    for block in range(3):
        for r in hexacode:
            row = [0] * 22
            row[6 * block : 6 * block + 6] = r
            rows.append(tuple(row))
    rng = random.Random(seed)
    while True:
        extra = tuple(rng.randrange(4) for _ in range(22))
        if gf4.rank(rows + [extra], 22) == len(rows) + 1:
            return ClassicalCode.from_rows(22, 22 - len(rows) - 1, rows + [extra])


def regenerate() -> Dict[str, bytes]:
    """File name -> exact bytes of every corpus file, rebuilt from its seeds."""
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import random_classical_code

    out = {"h4.code": (ROOT / "src" / "eaqecc" / "data" / "h4.code").read_bytes()}
    rng = random.Random(1)
    for i, (name, n, k) in enumerate(ROADMAP_DRAWS):
        code = random_classical_code(rng, n, k)
        if name != "r10":
            note = f"random_classical_code(random.Random(1), {n}, {k}), draw {i + 1} of " + ", ".join(
                f"({dn},{dk})" for _, dn, dk in ROADMAP_DRAWS
            )
            out[f"{name}.code"] = code_text(f"{name}: {note}", code).encode("ascii")
    for name, seed, n, k in RANDOM_DRAWS:
        code = random_classical_code(random.Random(seed), n, k)
        note = f"random_classical_code(random.Random({seed}), {n}, {k})"
        out[f"{name}.code"] = code_text(f"{name}: {note}", code).encode("ascii")
    hexa = _hexacode_plus_row(HEX22_SEED)
    note = f"three hexacode blocks plus one row drawn from random.Random({HEX22_SEED})"
    out["h22.code"] = code_text(f"h22: {note}", hexa).encode("ascii")
    return out


def run_cli(argv: List[str]) -> str:
    """stdout of eaqecc.cli.main(argv), which must exit 0."""
    from eaqecc.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"eaqecc {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def parse_report(text: str) -> Dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines())


def build_manifest() -> dict:
    from eaqecc.builder import build_code, parameters
    from eaqecc.cli import load_code_file
    from eaqecc.simulate import build_syndrome_table
    from workloads import WORKLOADS

    depths: Dict[str, int] = {}
    analyses: Dict[str, Dict[str, object]] = {}
    for wl in WORKLOADS.values():
        for job in wl.sim:
            depths[job.code] = max(depths.get(job.code, 0), job.depth)
        for job in wl.analyze:
            analyses.setdefault(job.code, {})[job.key] = job
    manifest = {}
    for path in sorted(CORPUS.glob("*.code")):
        name = path.stem
        codeq = build_code(load_code_file(str(path)).code)
        entry = {
            "file": path.name,
            "sha256": sha256(path.read_bytes()),
            "label": parameters(codeq).label,
            "n": codeq.n,
            "k_enc": codeq.k_enc,
            "c": codeq.c,
            "s": codeq.s,
            "generators": len(codeq.generators),
            "build_report_sha256": sha256(run_cli(["build", str(path)]).encode("ascii")),
        }
        if name in depths:
            table = build_syndrome_table(codeq, depths[name])
            weights = [p.weight for p in table.entries.values()]
            entry["table_entries_by_depth"] = {
                str(w): sum(1 for x in weights if x <= w) for w in range(depths[name] + 1)
            }
        if name in analyses:
            entry["analyze"] = {
                key: parse_report(
                    run_cli(["analyze", str(path), "--weight-cap", str(job.cap), "--t", str(job.t)])
                )
                for key, job in sorted(analyses[name].items())
            }
        manifest[name] = entry
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite files and manifest")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    files = regenerate()
    if args.write:
        CORPUS.mkdir(exist_ok=True)
        for name, data in files.items():
            (CORPUS / name).write_bytes(data)
        MANIFEST.write_text(json.dumps(build_manifest(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(files)} codes and {MANIFEST.relative_to(ROOT)}")
        return 0
    bad = [n for n, data in files.items() if (CORPUS / n).read_bytes() != data]
    committed = {p.name for p in CORPUS.glob("*.code")}
    extra = sorted(committed - set(files))
    manifest = json.loads(MANIFEST.read_text())
    stale = [n for n, e in manifest.items() if sha256(files.get(e["file"], b"")) != e["sha256"]]
    for label, names in (("differs", bad), ("not regenerated", extra), ("manifest hash", stale)):
        for name in names:
            print(f"corpus check failed: {name}: {label}", file=sys.stderr)
    if bad or extra or stale:
        return 1
    print(f"corpus ok: {len(files)} files regenerate byte for byte and match the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
