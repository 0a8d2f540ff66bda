"""Symplectic-pair / isotropic decomposition of Pauli generator sets.

Any set of independent Pauli generators splits into c anti-commuting
pairs (zbar_i, xbar_i) plus s mutually commuting "isotropic" generators,
with every cross product commuting.  The split is computed by a
deterministic symplectic Gram-Schmidt sweep over the (x|z) vectors, and
2c always equals the GF(2) rank of the pairwise commutation matrix.

The companion construction produces a 2n x 2n binary symplectic matrix
mapping the canonical single-qubit generators (Z_1, X_1, ..., Z_c, X_c on
pair slots, then Z on each ancilla slot) onto the decomposition, acting on
(x|z) row vectors from the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .pauli import PauliString, parse_pauli

_DEPENDENT = "decomposition generators are GF(2)-dependent"
_DEGENERATE = "cannot complete symplectic basis; generators degenerate"


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered, possibly non-commuting Pauli generators on n qubits."""

    n: int
    gens: Tuple[PauliString, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if g.n != self.n:
                raise ValueError(f"generator on {g.n} qubits in a {self.n}-qubit set")
            if g.is_identity():
                raise ValueError("identity (up to phase) is not a valid generator")

    @classmethod
    def from_strings(cls, texts: Sequence[str]) -> "GeneratorSet":
        gens = tuple(parse_pauli(t) for t in texts)
        if not gens:
            raise ValueError("cannot infer qubit count from an empty list")
        return cls(gens[0].n, gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def rows(self) -> List[int]:
        return [g.row() for g in self.gens]


@dataclass(frozen=True)
class Decomposition:
    """c symplectic pairs plus s isotropic generators on n qubits.

    gram_schmidt_decompose returns every member with phase 0, the
    Hermitian representative; consumers read only the (x|z) rows.
    """

    n: int
    pairs: Tuple[Tuple[PauliString, PauliString], ...]
    isotropic: Tuple[PauliString, ...]

    @property
    def c(self) -> int:
        return len(self.pairs)

    @property
    def s(self) -> int:
        return len(self.isotropic)

    def generators(self) -> Tuple[PauliString, ...]:
        """All generators in order zbar_1, xbar_1, ..., then isotropic."""
        return tuple(g for pair in self.pairs for g in pair) + tuple(self.isotropic)

    def validate(self) -> None:
        """Raise ValueError unless the pairing pattern and independence hold."""
        rows = self._product_checked_rows()
        if gf2.rank(rows, 2 * self.n) != len(rows):
            raise ValueError(_DEPENDENT)

    def _product_checked_rows(self) -> List[int]:
        """The generators' (x|z) rows, after checking every pairwise product.

        Raises ValueError naming the first pair, in row-major order, whose
        product breaks the pattern: 1 within a pair, 0 everywhere else.
        """
        gens = self.generators()
        if any(g.n != self.n for g in gens):
            raise ValueError("generator qubit count differs from decomposition n")
        rows = [g.row() for g in gens]
        partners = [i ^ 1 if i < 2 * self.c else -1 for i in range(len(rows))]
        bad = _first_bad_product(rows, self.n, partners)
        if bad is not None:
            expect = int(bad[1] == partners[bad[0]])
            raise ValueError(
                f"generators {bad[0]} and {bad[1]} have symplectic product "
                f"{1 - expect}, expected {expect}"
            )
        return rows


def reduce_independent(g: GeneratorSet) -> GeneratorSet:
    """Greedy subset of g whose (x|z) rows form a basis of g's row space."""
    basis = gf2.Basis(2 * g.n)
    kept = [gen for gen in g.gens if basis.add(gen.row())]
    return GeneratorSet(g.n, tuple(kept))


def commutation_matrix(g: GeneratorSet) -> List[List[int]]:
    """Pairwise symplectic products; antisymmetric with zero diagonal."""
    return [line for _, block in _product_blocks(g.rows(), g.n) for line in block.tolist()]


def gram_schmidt_decompose(g: GeneratorSet) -> Decomposition:
    """Split independent generators into symplectic pairs and isotropic part.

    Generators are processed in input order.  The first later generator
    anti-commuting with the current one becomes its partner; the partner is
    multiplied into every remaining generator anti-commuting with the
    current, and the current into every remaining generator anti-commuting
    with the partner, which restores commutation with the extracted pair.

    The sweep runs on (x|z) rows, where a product is an XOR and two rows
    anti-commute when the parity of one AND the other's swapped halves is 1.
    Members carry phase 0: a product of anti-commuting Paulis can pick up
    a phase of +-i, and such an operator is not Hermitian, so it cannot be
    a stabilizer generator.
    """
    n = g.n
    todo = g.rows()
    pairs: List[Tuple[PauliString, PauliString]] = []
    isotropic: List[PauliString] = []
    while todo:
        cur = todo.pop(0)
        cur_swapped = _swap_halves(cur, n)
        partner_idx = next(
            (j for j, h in enumerate(todo) if (h & cur_swapped).bit_count() & 1), None
        )
        if partner_idx is None:
            isotropic.append(PauliString.from_row(n, cur))
            continue
        partner = todo.pop(partner_idx)
        partner_swapped = _swap_halves(partner, n)
        cleaned: List[int] = []
        for r in todo:
            if (r & cur_swapped).bit_count() & 1:
                r ^= partner
            if (r & partner_swapped).bit_count() & 1:
                r ^= cur
            cleaned.append(r)
        todo = cleaned
        pairs.append((PauliString.from_row(n, cur), PauliString.from_row(n, partner)))
    m = len(g.gens)
    ell = len(pairs) + len(isotropic)
    if not m - m // 2 <= ell <= m:
        raise ValueError("pair/isotropic counts violate the size constraint")
    return Decomposition(g.n, tuple(pairs), tuple(isotropic))


def group_equal_up_to_phase(a: GeneratorSet, b: GeneratorSet) -> bool:
    """Whether a and b generate the same group modulo phases."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")
    width = 2 * a.n
    ra = gf2.rank(a.rows(), width)
    rb = gf2.rank(b.rows(), width)
    return ra == rb == gf2.rank(a.rows() + b.rows(), width)


@dataclass(frozen=True)
class SymplecticMatrix:
    """2n x 2n GF(2) matrix acting on (x|z) row vectors from the right.

    Row t is the image of the basis row vector e_t; columns 0..n-1 are
    x-bits and columns n..2n-1 are z-bits, matching PauliString.row().
    """

    n: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} rows, got {len(self.rows)}")
        end = 1 << (2 * self.n)
        bad = next((t for t, r in enumerate(self.rows) if not 0 <= r < end), None)
        if bad is not None:
            raise ValueError(f"row {bad} = {self.rows[bad]} lies outside [0, 2**{2 * self.n})")

    def image_of(self, row_vector: int) -> int:
        """Image of a 2n-bit (x|z) row vector under right multiplication."""
        if not 0 <= row_vector < 1 << (2 * self.n):
            raise ValueError(f"vector {row_vector} lies outside [0, 2**{2 * self.n})")
        out = 0
        v = row_vector
        while v:
            j = (v & -v).bit_length() - 1
            out ^= self.rows[j]
            v &= v - 1
        return out

    def is_symplectic(self) -> bool:
        """Check M J M^T = J for the x/z block pairing form J."""
        n = self.n
        partners = [(a + n) % (2 * n) for a in range(2 * n)]
        return _first_bad_product(self.rows, n, partners) is None


def _swap_halves(v: int, n: int) -> int:
    """Exchange the x and z halves of a 2n-bit (x|z) row vector."""
    mask = (1 << n) - 1
    return (v >> n) | ((v & mask) << n)


# Rows per Gram block: each (rows, N) uint64 temporary holds at most this
# many words, 256 KB, so that a block's temporaries stay in a core's L2
# cache.  At 2n = 2048 that read 180 ms against 267 ms for 4 MB blocks.
_BLOCK_WORDS = 1 << 15


def _words(values: Sequence[int], width: int) -> np.ndarray:
    """Ints below 2**width as (len(values), max(1, ceil(width / 64))) uint64 words.

    Bit i of a value is bit i % 64 of word i // 64.  The array is a
    read-only view of the ints' bytes.
    """
    size = 8 * max(1, -(-width // 64))
    data = b"".join(v.to_bytes(size, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), size // 8)


def _product_blocks(rows: Sequence[int], n: int) -> Iterator[Tuple[int, np.ndarray]]:
    """(lo, parity) for consecutive row blocks; parity[i, b] is the product of rows lo + i and b.

    A product is the parity of one row AND the other's swapped halves.
    Parity is linear, so each block XORs the word-wise ANDs over the row
    words and counts bits once.  No BLAS call: each step is an elementwise
    uint64 ufunc on a block of at most _BLOCK_WORDS words.
    """
    count = len(rows)
    if not count:
        return
    packed = _words(rows, 2 * n)
    words = packed.shape[1]
    swapped = np.ascontiguousarray(_words([_swap_halves(r, n) for r in rows], 2 * n).T)
    step = max(1, _BLOCK_WORDS // count)
    gram = np.empty((min(step, count), count), dtype=np.uint64)
    tmp = np.empty_like(gram)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        acc, part = gram[: hi - lo], tmp[: hi - lo]
        np.bitwise_and(packed[lo:hi, 0, None], swapped[0], out=acc)
        for w in range(1, words):
            np.bitwise_and(packed[lo:hi, w, None], swapped[w], out=part)
            np.bitwise_xor(acc, part, out=acc)
        yield lo, np.bitwise_count(acc) & 1


def _first_bad_product(
    rows: Sequence[int], n: int, partners: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """First (a, b), a < b, whose symplectic product is not [b == partners[a]], or None.

    Pairs are scanned by a, then b; a row's product with itself is always 0.
    A partner of -1 means none.
    """
    cols = np.arange(len(rows))
    wanted = np.asarray(partners, dtype=np.int64)
    for lo, parity in _product_blocks(rows, n):
        a = cols[lo : lo + len(parity), None]
        bad = (parity != (cols == wanted[a])) & (cols > a)
        first = int(bad.argmax())
        if bad.flat[first]:
            return lo + first // len(cols), first % len(cols)
    return None


def find_encoding_symplectic(d: Decomposition) -> SymplecticMatrix:
    """Symplectic matrix carrying the canonical generators onto d.

    Canonical layout: pair slots first (rows i and n+i for i < c hold
    xbar_{i+1} and zbar_{i+1}), ancilla slots next (row n+c+j holds the
    j-th isotropic generator), logical slots last.  The free rows are
    completed deterministically: each ancilla partner and logical row is
    the pivoting solution (free variables zero) of the GF(2) linear system
    expressing the required symplectic products against everything placed
    so far.

    The placed rows, x and z halves swapped, grow one gf2.Complement of
    width 2n: its vectors are the rows that commute with everything placed,
    and placing a row returns the vector that leaves, which has product 1
    with that row, 0 with every earlier one, and no free variable set.  So
    placing zbar at a logical slot n + q returns its partner for slot q.
    An isotropic row's returned vector starts its ancilla partner; each
    later placement's returned vector is added to every partner still
    waiting that has product 1 with the placed row, which keeps it the
    pivoting solution.  Each logical zbar is the first nullspace vector
    with an empty x half, else the first, so that the canonical
    decomposition completes to the identity matrix.

    Only the product half of d.validate runs up front.  d's own rows are
    the first placed, so the same complement refuses a dependent one with
    validate's message: one elimination checks independence and completes.
    """
    given = d._product_checked_rows()
    n, c, s = d.n, d.c, d.s
    width = 2 * n
    rows: List[Optional[int]] = [None] * width
    complement = gf2.Complement(width)
    vectors = complement.vectors
    partners: Dict[int, int] = {}  # ancilla slot -> its partner, against the rows so far

    def place(t: int, row: int, fault: str) -> int:
        swapped = _swap_halves(row, n)
        out = complement.add(swapped)
        if out is None:
            raise ValueError(fault)
        rows[t] = row
        for u, partner in partners.items():
            if (partner & swapped).bit_count() & 1:
                partners[u] = partner ^ out
        return out

    for i in range(c):
        place(i, given[2 * i + 1], _DEPENDENT)
        place(n + i, given[2 * i], _DEPENDENT)
    # With the products checked, the isotropic rows lie in the pairs'
    # 2(n - c)-dimensional symplectic complement, where an isotropic set of
    # more than n - c rows is dependent.  So when c + s > n, a dependent
    # row is refused at a slot no later than 2n, before it is stored.
    for j, row in enumerate(given[2 * c :]):
        partners[c + j] = place(n + c + j, row, _DEPENDENT)
    for j in range(s):
        place(c + j, partners.pop(c + j), _DEGENERATE)
    x_half = (1 << n) - 1
    for q in range(c + s, n):
        first = next(iter(vectors.values()))
        z = next((v for v in vectors.values() if not v & x_half), first)
        place(q, place(n + q, z, _DEGENERATE), _DEGENERATE)

    m = SymplecticMatrix(n, tuple(rows))
    if not m.is_symplectic():
        raise ValueError("completed matrix fails the symplectic form check")
    if vectors:
        raise ValueError("completed matrix is singular")
    return m


def canonical_generator_rows(d: Decomposition) -> List[Tuple[int, int]]:
    """(canonical row vector, target row vector) pairs checked by tests.

    Canonical generators follow the pair/ancilla slot layout: Z then X on
    each pair slot, Z alone on each ancilla slot.
    """
    n = d.n
    out: List[Tuple[int, int]] = []
    for i, (zbar, xbar) in enumerate(d.pairs):
        out.append((1 << (n + i), zbar.row()))
        out.append((1 << i, xbar.row()))
    for j, iso in enumerate(d.isotropic):
        out.append((1 << (n + d.c + j), iso.row()))
    return out


__all__ = [
    "GeneratorSet",
    "Decomposition",
    "SymplecticMatrix",
    "reduce_independent",
    "commutation_matrix",
    "gram_schmidt_decompose",
    "group_equal_up_to_phase",
    "find_encoding_symplectic",
    "canonical_generator_rows",
]
