"""Shared construction helpers and independent oracles for the tests."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from eaqecc import gf2, gf4
from eaqecc.analysis import CorrectabilityReport, DistanceResult, syndrome_of
from eaqecc.builder import ClassicalCode, EaqeccCode
from eaqecc.frames import _checks, _letter_table, _weight_words
from eaqecc.pauli import PauliString, iter_paulis_of_weight, multiply, symplectic_product
from eaqecc.symplectic import Decomposition, GeneratorSet, SymplecticMatrix, _swap_halves

# The pinned benchmark corpus: .code files plus manifest.json with each build report's sha256.
BENCH_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"

# Single-qubit products under Y = iXZ, written out by hand: (A, B) -> (i-exponent, A*B).
SINGLE_PRODUCTS = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}


def oracle_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Position-by-position product via the literal single-qubit table."""
    assert a.n == b.n
    phase = a.phase_exp + b.phase_exp
    letters = []
    for j in range(a.n):
        extra, letter = SINGLE_PRODUCTS[(a.letter(j), b.letter(j))]
        phase += extra
        letters.append(letter)
    from eaqecc.pauli import parse_pauli

    base = parse_pauli("".join(letters)) if letters else PauliString(0, 0, 0)
    return PauliString(a.n, base.x, base.z, phase % 4)


def random_pauli(rng: random.Random, n: int, nonidentity: bool = False) -> PauliString:
    while True:
        x = rng.getrandbits(n) if n else 0
        z = rng.getrandbits(n) if n else 0
        if nonidentity and (x | z) == 0:
            continue
        return PauliString(n, x, z, 0)


def random_generator_set(rng: random.Random, n: int, m: int) -> GeneratorSet:
    return GeneratorSet(n, tuple(random_pauli(rng, n, nonidentity=True) for _ in range(m)))


# Draws random_classical_code makes before giving up; an independent draw
# fails with probability below 1/3 for every n and k.
RANDOM_CODE_DRAWS = 1000


def random_classical_code(
    rng: random.Random, n: Optional[int] = None, k: Optional[int] = None
) -> ClassicalCode:
    """Random [n, k] GF(4) code with independent parity-check rows.

    Raises RuntimeError when RANDOM_CODE_DRAWS draws all come out dependent,
    so a gf4.rank that under-reports fails a test instead of hanging it.
    """
    if n is None:
        n = rng.randint(2, 6)
    if k is None:
        k = rng.randint(0, n - 1)
    for _ in range(RANDOM_CODE_DRAWS):
        rows = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(n - k)]
        if gf4.rank(rows, n) == n - k:
            return ClassicalCode.from_rows(n, k, rows)
    raise RuntimeError(f"no independent [{n}, {k}] parity checks in {RANDOM_CODE_DRAWS} draws")


def _splitmix64(z: int) -> int:
    """The splitmix64 finalizer of a 64-bit word, in Python ints."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % (1 << 64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % (1 << 64)
    return z ^ (z >> 31)


def reference_uniforms(seed: int, stream: int, count: int) -> List[float]:
    """The first count uniforms of CounterRng(seed, stream), one Python int at a time.

    The seed is mixed, stream + 1 golden-ratio steps mix it into the
    stream key, and uniform j is the top 53 bits of the key mixed with
    j + 1 more steps, all mod 2**64.
    """
    golden = 0x9E3779B97F4A7C15
    key = _splitmix64((_splitmix64(seed % (1 << 64)) + (stream + 1) * golden) % (1 << 64))
    return [
        (_splitmix64((key + (j + 1) * golden) % (1 << 64)) >> 11) * 2.0**-53 for j in range(count)
    ]


def symplectic_matrix_to_numpy(m: SymplecticMatrix) -> np.ndarray:
    size = 2 * m.n
    return np.array(
        [[(m.rows[i] >> j) & 1 for j in range(size)] for i in range(size)], dtype=np.int64
    )


def numpy_symplectic_form(n: int) -> np.ndarray:
    zero = np.zeros((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    return np.block([[zero, eye], [eye, zero]])


def numpy_is_symplectic(m: SymplecticMatrix) -> bool:
    """Independent M J M^T = J check via numpy matrix arithmetic mod 2."""
    mat = symplectic_matrix_to_numpy(m)
    form = numpy_symplectic_form(m.n)
    return bool(((mat @ form @ mat.T) % 2 == form).all())


def isotropic_span_rows(codeq: EaqeccCode) -> set:
    """All 2**s isotropic-span (x|z) rows by exhaustive subset enumeration."""
    rows = [g.row() for g in codeq.decomposition.isotropic]
    span = set()
    for combo in range(1 << len(rows)):
        vec = 0
        for j, r in enumerate(rows):
            if (combo >> j) & 1:
                vec ^= r
        span.add(vec)
    return span


def reference_syndrome_table(codeq: EaqeccCode, max_weight: int) -> dict:
    """The syndrome table's entries by enumerating one PauliString at a time.

    Errors come by increasing weight and, within a weight, in the
    lexicographic order of their (x|z) bits, qubit 0's x bit first; each
    syndrome keeps the first error that has it, in insertion order.
    Enumeration stops once every syndrome has an entry.
    """
    entries = {}
    full = 1 << len(codeq.generators)
    width = f"0{2 * codeq.n}b"
    for w in range(min(max_weight, codeq.n) + 1):
        for p in sorted(iter_paulis_of_weight(codeq.n, w), key=lambda p: format(p.row(), width)[::-1]):
            entries.setdefault(syndrome_of(codeq, p), p)
            if len(entries) == full:
                return entries
    return entries


def _undetected_logical_test(codeq: EaqeccCode):
    """Whether an (x|z) row commutes with every generator yet lies outside the isotropic span."""
    reduced, pivots = gf2.row_reduce(
        [g.row() for g in codeq.decomposition.isotropic], 2 * codeq.n
    )
    swapped = [_swap_halves(g.row(), codeq.n) for g in codeq.generators]

    def test(row: int) -> bool:
        if any(gf2.parity(row & s) for s in swapped):
            return False
        return gf2.reduce_vector(row, reduced, pivots) != 0

    return test


def reference_min_isotropic_weight(codeq: EaqeccCode) -> Optional[int]:
    """Smallest weight of a nonidentity isotropic-span element; None when s = 0.

    Gray-code order: step i flips row j, the lowest set bit of i, so each
    step costs one XOR and every nonempty subset comes up once.
    """
    iso_rows = [g.row() for g in codeq.decomposition.isotropic]
    if not iso_rows:
        return None
    n = codeq.n
    mask = (1 << n) - 1
    best = n
    vec = 0
    for i in range(1, 1 << len(iso_rows)):
        vec ^= iso_rows[(i & -i).bit_length() - 1]
        best = min(best, ((vec | vec >> n) & mask).bit_count())
    return best


def reference_min_distance(codeq: EaqeccCode, weight_cap: int) -> DistanceResult:
    """min_distance_bruteforce by testing one PauliString at a time.

    Degeneracy compares the distance with reference_min_isotropic_weight.
    """
    undetected_logical = _undetected_logical_test(codeq)
    for w in range(1, min(weight_cap, codeq.n) + 1):
        for p in iter_paulis_of_weight(codeq.n, w):
            if undetected_logical(p.row()):
                lightest = reference_min_isotropic_weight(codeq)
                return DistanceResult(w, weight_cap, None if lightest is None else lightest < w)
    return DistanceResult(None, weight_cap)


def reference_chunked_distance(codeq: EaqeccCode, weight_cap: int) -> DistanceResult:
    """min_distance_bruteforce by enumerating every weight up to the cap in chunks.

    Each weight's chunks are searched for a zero syndrome, by increasing
    weight with early exit.  The lightest undetected isotropic-span
    element is recorded by weight, not by chunk: one of weight d that
    comes up in a chunk before the logical's does not make the code
    degenerate.
    """
    if weight_cap < 1:
        raise ValueError(f"weight_cap must be >= 1, got {weight_cap}")
    units, syndrome, normalizer = _checks(codeq, basis=False)
    letters = _letter_table(units)
    lightest = codeq.n + 1  # weight of the lightest isotropic-span element met so far
    for w in range(1, min(weight_cap, codeq.n) + 1):
        for sig in _weight_words(letters, w):
            undetected = ~(sig[:, : len(syndrome)] & syndrome).any(axis=1)
            logical = (sig & normalizer).any(axis=1)
            if lightest > w and (undetected & ~logical).any():  # an isotropic-span element
                lightest = w
            if (undetected & logical).any():
                return DistanceResult(w, weight_cap, lightest < w if codeq.s else None)
    return DistanceResult(None, weight_cap)


def reference_distinct_syndromes(codeq: EaqeccCode, t: int) -> bool:
    """nondegenerate_distinct_syndromes with a set of syndrome tuples."""
    seen = set()
    zero = (0,) * len(codeq.generators)
    for w in range(1, min(t, codeq.n) + 1):
        for p in iter_paulis_of_weight(codeq.n, w):
            s = syndrome_of(codeq, p)
            if s == zero or s in seen:
                return False
            seen.add(s)
    return True


def reference_correctable_set(codeq: EaqeccCode, errors) -> CorrectabilityReport:
    """check_correctable_set by testing every pair product (i, j >= i) in turn."""
    undetected_logical = _undetected_logical_test(codeq)
    rows = [e.row() for e in errors]
    for i in range(len(errors)):
        for j in range(i, len(errors)):
            if undetected_logical(rows[i] ^ rows[j]):
                return CorrectabilityReport(False, (errors[i], errors[j]))
    return CorrectabilityReport(True)


def reference_eliminate(rows: List[int], width: int) -> Tuple[List[int], List[int]]:
    """gf2 elimination by a column sweep, pivoting on the lowest available column.

    Only columns below width are pivoted on; higher bits ride along.
    Returns (work, pivots): work[:len(pivots)] are the reduced pivot rows
    and every later row is zero below width.
    """
    work = [r for r in rows if r]
    pivots: List[int] = []
    for col in range(width):
        rk = len(pivots)
        if rk == len(work):
            break
        pivot = None
        for i in range(rk, len(work)):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for i in range(len(work)):
            if i != rk and ((work[i] >> col) & 1):
                work[i] ^= work[rk]
        pivots.append(col)
    return work, pivots


def reference_gf4_rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """gf4.rank by Gaussian elimination directly over GF(4)."""
    work: List[List[int]] = [list(r) for r in rows]
    rk = 0
    for col in range(ncols):
        pivot = None
        for i in range(rk, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        inv = gf4.conj(work[rk][col])
        work[rk] = [gf4.mul(inv, v) for v in work[rk]]
        for i in range(len(work)):
            if i != rk and work[i][col]:
                f = work[i][col]
                work[i] = [a ^ gf4.mul(f, b) for a, b in zip(work[i], work[rk])]
        rk += 1
        if rk == len(work):
            break
    return rk


def reference_gram_schmidt(g: GeneratorSet) -> Decomposition:
    """gram_schmidt_decompose on PauliString objects, with phase-exact products.

    Generators are processed in input order.  The first later generator
    anti-commuting with the current one becomes its partner; the partner is
    multiplied into every remaining generator anti-commuting with the
    current, and the current into every remaining generator anti-commuting
    with the partner, which restores commutation with the extracted pair.
    """
    todo = list(g.gens)
    pairs: List[Tuple[PauliString, PauliString]] = []
    isotropic: List[PauliString] = []
    while todo:
        cur = todo.pop(0)
        partner_idx = None
        for j, h in enumerate(todo):
            if symplectic_product(cur, h):
                partner_idx = j
                break
        if partner_idx is None:
            isotropic.append(cur)
            continue
        partner = todo.pop(partner_idx)
        cleaned: List[PauliString] = []
        for r in todo:
            if symplectic_product(r, cur):
                r = multiply(r, partner)
            if symplectic_product(r, partner):
                r = multiply(r, cur)
            cleaned.append(r)
        todo = cleaned
        pairs.append((cur, partner))
    m = len(g.gens)
    ell = len(pairs) + len(isotropic)
    if not m - m // 2 <= ell <= m:
        raise ValueError("pair/isotropic counts violate the size constraint")
    return Decomposition(g.n, tuple(pairs), tuple(isotropic))


def reference_encoding_symplectic(d: Decomposition) -> SymplecticMatrix:
    """find_encoding_symplectic with a from-scratch gf2.solve / gf2.nullspace per free slot."""
    d.validate()
    n, c, s = d.n, d.c, d.s
    if c + s > n:
        raise ValueError(f"decomposition needs {c + s} slots but only {n} qubits exist")
    width = 2 * n
    rows: List[Optional[int]] = [None] * width
    for i, (zbar, xbar) in enumerate(d.pairs):
        rows[i] = xbar.row()
        rows[n + i] = zbar.row()
    for j, iso in enumerate(d.isotropic):
        rows[n + c + j] = iso.row()

    def placed_indices() -> List[int]:
        return [t for t in range(width) if rows[t] is not None]

    def solve_for(target: int) -> int:
        placed = placed_indices()
        constraints = [_swap_halves(rows[t], n) for t in placed]
        rhs = [1 if abs(t - target) == n else 0 for t in placed]
        sol = gf2.solve(constraints, rhs, width)
        if sol is None:
            raise ValueError("cannot complete symplectic basis; generators degenerate")
        return sol

    for j in range(s):
        rows[c + j] = solve_for(c + j)
    x_half = (1 << n) - 1
    for q in range(c + s, n):
        placed = placed_indices()
        constraints = [_swap_halves(rows[t], n) for t in placed]
        basis = gf2.nullspace(constraints, width)
        rows[n + q] = next((v for v in basis if v & x_half == 0), basis[0])
        rows[q] = solve_for(q)

    m = SymplecticMatrix(n, tuple(rows))
    if not m.is_symplectic():
        raise ValueError("completed matrix fails the symplectic form check")
    if gf2.rank(list(m.rows), width) != width:
        raise ValueError("completed matrix is singular")
    return m
