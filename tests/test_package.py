"""Checks on the package source itself."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import eaqecc
from eaqecc import simulate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eaqecc"


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_assert_statements(path):
    # invariants are real checks that raise: python -O strips an assert
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.relative_to(PACKAGE)}: assert statement on lines {lines}"


# the public surface: a name leaves or joins it only on purpose
PUBLIC = [
    "PauliString", "identity", "multiply", "symplectic_product", "parse_pauli", "format_pauli",
    "pauli_to_gf4", "gf4_to_pauli", "GeneratorSet", "Decomposition", "SymplecticMatrix",
    "reduce_independent", "commutation_matrix", "gram_schmidt_decompose",
    "group_equal_up_to_phase", "find_encoding_symplectic", "ClassicalCode", "EaqeccCode",
    "CodeParameters", "quaternary_to_stabilizer", "extend_generators", "build_code",
    "parameters", "syndrome_of", "in_isotropic", "check_correctable_set",
    "min_distance_bruteforce", "nondegenerate_distinct_syndromes", "BoundsReport",
    "singleton_report", "hashing_rates", "DepolarizingChannel", "CounterRng", "sample_error",
    "SyndromeTable", "build_syndrome_table", "decode_error", "TrialResult", "run_trials",
    "CatalyticLedger", "catalytic_schedule", "example_code_path",
]
SIMULATE = [
    "InfeasibleError", "DepolarizingChannel", "CounterRng", "sample_error", "SyndromeTable",
    "build_syndrome_table", "DecodeOutcome", "decode_error", "TrialResult", "run_trials",
    "trial_report", "CatalyticLedger", "catalytic_schedule",
]
# where each name of eaqecc.simulate that it re-exports is defined
HOMES = {
    "table": ["SyndromeTable", "build_syndrome_table"],
    "catalytic": ["InfeasibleError", "CatalyticLedger", "catalytic_schedule"],
}


def test_public_surface():
    assert eaqecc.__all__ == PUBLIC
    assert simulate.__all__ == SIMULATE
    for name in PUBLIC:
        assert hasattr(eaqecc, name), name
    for name in set(PUBLIC) & set(SIMULATE):
        assert getattr(eaqecc, name) is getattr(simulate, name), name


@pytest.mark.parametrize("module", sorted(HOMES))
def test_reexports_are_their_homes_objects(module):
    home = importlib.import_module(f"eaqecc.{module}")
    for name in HOMES[module]:
        assert getattr(simulate, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name


def test_catalytic_imports_no_numpy():
    # the module file alone, loaded by path with numpy made unimportable
    script = f"""
import importlib.util, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("catalytic", {str(PACKAGE / "catalytic.py")!r})
catalytic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(catalytic)
ledger = catalytic.catalytic_schedule(4, 1, 1, rounds=3, initial_ebits=1)
print(ledger.ebits_held, ledger.total_delivered)
try:
    catalytic.catalytic_schedule(8, 3, 1, rounds=1, initial_ebits=0)
except catalytic.InfeasibleError as exc:
    print(type(exc).__name__)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "(1, 1, 1) 0\nInfeasibleError\n"
