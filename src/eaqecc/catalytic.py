"""Catalytic operation: the round-by-round entanglement ledger of a code.

A round consumes c ebits, delivers k - c net qubits and regenerates the c
ebits, so the ebits held stay constant.  This module imports no numpy, so
the ledger runs wherever the standard library does.
"""

from dataclasses import dataclass
from typing import Tuple


class InfeasibleError(ValueError):
    """Raised when a schedule or a run cannot run with the provided resources.

    A run raises it when a worker process could not be forked or died
    before its range was done.
    """


@dataclass(frozen=True)
class CatalyticLedger:
    """Round-by-round entanglement accounting for catalytic operation."""

    rounds: int
    initial_ebits: int
    ebits_held: Tuple[int, ...]
    net_qubits_delivered: Tuple[int, ...]

    @property
    def total_delivered(self) -> int:
        return sum(self.net_qubits_delivered)


def catalytic_schedule(
    n: int, k_enc: int, c: int, rounds: int, initial_ebits: int
) -> CatalyticLedger:
    """Consume c ebits per round, deliver k_enc - c qubits, regenerate c.

    The ebit count therefore returns to its starting value after every
    round; with fewer than c initial ebits no round can start.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if c < 0 or k_enc + c > n:
        raise ValueError(f"inconsistent parameters n={n}, k_enc={k_enc}, c={c}")
    if initial_ebits < c:
        raise InfeasibleError(
            f"catalytic operation needs {c} ebits per round, only {initial_ebits} held"
        )
    return CatalyticLedger(rounds, initial_ebits, (initial_ebits,) * rounds, (k_enc - c,) * rounds)


__all__ = ["InfeasibleError", "CatalyticLedger", "catalytic_schedule"]
