"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqecc import analysis, builder, cli, example_code_path, gf4
from eaqecc.builder import build_code
from eaqecc.cli import CodeFileError, load_code_file, main, parse_code_text

from helpers import (
    BENCH_CORPUS,
    random_classical_code,
    reference_distinct_syndromes,
    reference_min_distance,
    reference_parse_rows,
)

H4_PATH = example_code_path("h4.code")

# Tokens that are not GF(4) symbols, for the row-parse tests.
BAD_TOKENS = ["q", "2", "ww", "0w", "W1", "1.0", "None", "\u03c9", "00"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_code(path, code) -> str:
    """Write a classical code in the file format; returns the path as a string."""
    rows = [" ".join(gf4.format_symbol(a) for a in code.h.row(i)) for i in range(code.n - code.k)]
    path.write_text("\n".join([f"{code.n} {code.k}", *rows]) + "\n", encoding="ascii")
    return str(path)


def write_n40_code(tmp_path) -> str:
    """A [40, 38] code file: about 3e9 Paulis up to weight 6, 7.5e6 up to weight 4."""
    return write_code(tmp_path / "n40.code", random_classical_code(random.Random(0), 40, 38))


class TestCodeFileParsing:
    def test_shipped_golden_fixture(self):
        loaded = load_code_file(H4_PATH)
        assert (loaded.code.n, loaded.code.k) == (4, 2)

    def test_comments_and_blank_lines(self):
        code = parse_code_text("# heading\n\n2 1  # dims\n1 w\n")
        assert (code.n, code.k) == (2, 1)

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(CodeFileError, match="line 2, column 2"):
            parse_code_text("2 1\n1 q\n")

    def test_bad_header(self):
        with pytest.raises(CodeFileError, match="line 1"):
            parse_code_text("2\n")
        with pytest.raises(CodeFileError, match="non-integer"):
            parse_code_text("a b\n")

    def test_wrong_row_count(self):
        with pytest.raises(CodeFileError, match="expected n-k=2 rows"):
            parse_code_text("3 1\n1 w W\n")
        with pytest.raises(CodeFileError, match="more than"):
            parse_code_text("2 1\n1 w\n1 1\n")

    def test_wrong_row_width(self):
        with pytest.raises(CodeFileError, match="expected 3 tokens"):
            parse_code_text("3 2\n1 w\n")

    def test_empty_file(self):
        with pytest.raises(CodeFileError, match="empty"):
            parse_code_text("")

    def test_zero_length_code_rejected(self):
        with pytest.raises(CodeFileError, match="line 2: invalid dimensions n=0"):
            parse_code_text("# empty code\n0 0\n")

    def test_non_ascii_byte_reports_line_and_column(self, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_bytes("2 1\n1 \u03c9\n".encode("utf-8"))
        with pytest.raises(CodeFileError, match="line 2, column 3: non-ASCII byte 0xcf"):
            load_code_file(str(bad))

    def test_dependent_rows_rejected(self):
        with pytest.raises(CodeFileError, match="dependent"):
            parse_code_text("3 1\n1 w 0\nw W 0\n")

    @pytest.mark.parametrize("column", [1, 3, 5], ids=["first", "middle", "last"])
    def test_first_bad_token_reported(self, column):
        # a bad token at column, and another in each column after it
        tokens = ["1", "w", "W", "0", "1"]
        tokens[column - 1:] = ["q"] + ["x"] * (5 - column)
        with pytest.raises(CodeFileError) as exc:
            parse_code_text("5 3\n1 1 0 0 0\n" + " ".join(tokens) + "\n")
        message = "invalid GF(4) token 'q'; expected one of 0, 1, w, W"
        assert str(exc.value) == f"line 3, column {column}: {message}"
        assert (exc.value.line, exc.value.column) == (3, column)

    @settings(max_examples=200, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32),
        n=st.integers(1, 9),
        k=st.integers(0, 8),
        bad=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(["first", "middle", "last"]),
                st.sampled_from(BAD_TOKENS),
            ),
            max_size=4,
        ),
    )
    def test_row_parse_matches_per_symbol_oracle(self, code_seed, n, k, bad):
        k = min(k, n - 1)  # at least one row
        code = random_classical_code(random.Random(code_seed), n, k)
        token_rows = [[gf4.format_symbol(a) for a in code.h.row(i)] for i in range(n - k)]
        for row, place, token in bad:
            column = {"first": 0, "middle": n // 2, "last": n - 1}[place]
            token_rows[row % len(token_rows)][column] = token
        text = "\n".join([f"{n} {k}", *map(" ".join, token_rows)]) + "\n"
        try:
            want = reference_parse_rows(token_rows, first_line=2)
        except CodeFileError as exc:
            with pytest.raises(CodeFileError) as got:
                parse_code_text(text)
            where = (str(got.value), got.value.line, got.value.column)
            assert where == (str(exc), exc.line, exc.column)
        else:
            assert parse_code_text(text).h.entries == tuple(want)


class TestBuildCommand:
    def test_golden_report(self, capsys):
        code, out, err = run(capsys, "build", H4_PATH)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert "code=[[4,1;1]]" in lines
        assert "s=2" in lines
        assert "rate=0" in lines
        block = lines[lines.index("alice_generators:") + 1:lines.index("extended_generators:")]
        assert block == ["ZXZI", "ZZIZ", "XYXI", "XXIX"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(capsys, "build", H4_PATH, "--output", str(target))
        assert code == 0
        assert target.read_text() == out

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "build", "/nonexistent/x.code")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_directory_output_is_clean_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", H4_PATH, "--output", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_text("2 1\n1 q\n")
        code, _, err = run(capsys, "build", str(bad))
        assert code == 2
        assert "line 2, column 2" in err

    def test_zero_length_code_is_clean_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.code"
        empty.write_text("0 0\n")
        code, out, err = run(capsys, "build", str(empty))
        assert code == 2
        assert out == ""
        assert err == "error: line 1: invalid dimensions n=0, k=0\n"

    def test_non_ascii_file_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_bytes(b"2 1 \xff\n1 w\n")
        code, out, err = run(capsys, "build", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: line 1, column 5: non-ASCII byte 0xff\n"

    def test_empty_stabilizer_label(self, capsys, tmp_path):
        trivial = tmp_path / "trivial.code"
        trivial.write_text("3 3\n")
        code, out, _ = run(capsys, "build", str(trivial))
        assert code == 0
        assert "code=[[3,3;0]]" in out
        assert "rate=1" in out

    def test_dual_containing_reports_c_zero(self, capsys, tmp_path):
        dual = tmp_path / "dual.code"
        dual.write_text("2 1\n1 1\n")
        code, out, _ = run(capsys, "build", str(dual))
        assert code == 0
        assert "c=0" in out.splitlines()


class TestAnalyzeCommand:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "analyze", H4_PATH)
        lines = out.splitlines()
        assert code == 0
        for expected in [
            "code=[[4,1,3;1]]",
            "d=3",
            "t=1",
            "distinct_syndromes=yes",
            "singleton_classical_slack=0",
            "singleton_quantum_slack=0",
            "singleton_saturated=yes",
            "degenerate=no",
        ]:
            assert expected in lines

    def test_distance_search_runs_once(self, capsys, monkeypatch):
        # the one walk also decides degeneracy and distinct syndromes
        calls = []
        search = cli._lightest

        def counting(codeq, cap):
            calls.append((codeq.n, cap))
            return search(codeq, cap)

        assert run(capsys, "analyze", H4_PATH)[0] == 0  # main's parser is built first
        monkeypatch.setattr(cli, "_lightest", counting)
        code, out, _ = run(capsys, "analyze", H4_PATH)
        assert code == 0 and "degenerate=no" in out.splitlines()
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("extra", [[], ["--t", "2"]])
    def test_each_weight_enumerated_once(self, capsys, monkeypatch, extra):
        # d = 3 needs weights 1 and 2; the distinct-syndrome answer at t = 1
        # or 2 comes from the same walk, which enumerates no weight twice
        weights = []
        level = analysis._level

        def recording(letters, w, below):
            weights.append(w)
            return level(letters, w, below)

        monkeypatch.setattr(analysis, "_level", recording)
        code, _, _ = run(capsys, "analyze", H4_PATH, *extra)
        assert (code, weights) == (0, [1, 2])

    @settings(max_examples=60, deadline=None)
    @given(
        code_seed=st.integers(0, 1 << 32),
        n=st.integers(1, 7),
        k=st.integers(0, 7),
        cap=st.integers(1, 7),
        t=st.integers(0, 3),
    )
    @example(code_seed=6, n=6, k=2, cap=1, t=2)  # cap < 2t, s = 2
    @example(code_seed=6, n=6, k=2, cap=6, t=0)  # cap > 2t, degenerate
    @example(code_seed=0, n=4, k=0, cap=2, t=1)  # k_enc = 0
    @example(code_seed=0, n=4, k=1, cap=4, t=1)  # s = 0, k_enc = 1
    def test_report_matches_oracles(self, tmp_path_factory, code_seed, n, k, cap, t):
        k, cap = min(k, n), min(cap, n)
        classical = random_classical_code(random.Random(code_seed), n, k)
        codeq = build_code(classical)
        path = write_code(tmp_path_factory.mktemp("oracle") / "c.code", classical)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["analyze", path, "--weight-cap", str(cap), "--t", str(t)])
        report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
        dist = reference_min_distance(codeq, cap)
        distinct = reference_distinct_syndromes(codeq, t)
        expected = {"t": str(t), "distinct_syndromes": "yes" if distinct else "no"}
        if codeq.k_enc == 0:
            expected["d"] = "undefined"
        elif dist.exact:
            expected["d"] = str(dist.distance)
            expected["singleton_saturated"] = "yes" if n - k == dist.distance - 1 else "no"
        else:
            expected["d_lower_bound"] = str(cap + 1)
        if dist.degenerate is not None:
            expected["degenerate"] = "yes" if dist.degenerate else "no"
        keys = ("d", "d_lower_bound", "t", "distinct_syndromes", "singleton_saturated", "degenerate")
        assert status == 0
        assert {key: report[key] for key in keys if key in report} == expected

    def test_directory_input_is_clean_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_weight_cap_lower_bound(self, capsys):
        code, out, _ = run(capsys, "analyze", H4_PATH, "--weight-cap", "1")
        assert code == 0
        assert "d_lower_bound=2" in out
        assert "\nd=" not in out

    def test_t_two_collisions(self, capsys):
        code, out, _ = run(capsys, "analyze", H4_PATH, "--t", "2")
        assert code == 0
        assert "distinct_syndromes=no" in out

    # w64 has m = 64 generators, so its syndrome fills exactly one key word.
    # Cap 4 is the largest distance search the Pauli budget allows on the
    # corpus, and t = 2 its largest distinct-syndrome check that answers
    # yes: the one walk covers every D up to 2t = 4 with no early exit.
    @pytest.mark.parametrize(
        "flags, line",
        [(("--weight-cap", "4"), "d_lower_bound=5"), (("--t", "2"), "distinct_syndromes=yes")],
    )
    def test_w64_full_key_word(self, capsys, flags, line):
        code, out, _ = run(capsys, "analyze", str(BENCH_CORPUS / "w64.code"), *flags)
        assert code == 0
        assert line in out.splitlines()

    @pytest.mark.parametrize("option", ["--weight-cap", "--t"])
    def test_explicit_weight_over_budget_is_refused(self, capsys, monkeypatch, tmp_path, option):
        searched = []
        monkeypatch.setattr(cli, "_lightest", lambda *a: searched.append(a))
        code, out, err = run(capsys, "analyze", write_n40_code(tmp_path), option, "5")
        assert (code, out, searched) == (1, "", [])
        count = sum(math.comb(40, w) * 3**w for w in range(6))
        assert f"{option} 5 would enumerate {count} Paulis" in err
        assert f"budget of {cli.TABLE_BUDGET}" in err

    def test_default_weight_cap_shrinks_to_budget(self, capsys, monkeypatch, tmp_path):
        # n = 40: weight 4 takes 7.5e6 Paulis, weight 5 would take 1.7e8
        caps = []
        search = cli._lightest

        def recording(codeq, cap):
            caps.append(cap)
            return None, None

        monkeypatch.setattr(cli, "_lightest", recording)
        code, out, _ = run(capsys, "analyze", write_n40_code(tmp_path))
        assert (code, caps) == (0, [4])
        assert "d_lower_bound=5" in out.splitlines()
        # the golden code's weight 3 is over a budget of 100 Paulis: the
        # search stops at weight 2 and reports a lower bound
        monkeypatch.setattr(cli, "_lightest", search)
        monkeypatch.setattr(cli, "TABLE_BUDGET", 100)
        code, out, _ = run(capsys, "analyze", H4_PATH)
        assert code == 0
        assert "d_lower_bound=3" in out.splitlines()
        assert "\nd=" not in out and "singleton" not in out

    def test_degeneracy_decided_beyond_twenty_isotropic_rows(self, capsys, tmp_path):
        # 11 disjoint "1 1" rows are self-orthogonal: c = 0 and s = 22; a
        # free qubit gives d = 1 exactly, and no Pauli is lighter than that
        rows = ["0 " * 2 * i + "1 1" + " 0" * (22 - 2 * i) for i in range(11)]
        path = tmp_path / "s22.code"
        path.write_text("\n".join(["24 13", *rows]) + "\n", encoding="ascii")
        code, out, _ = run(capsys, "analyze", str(path))
        lines = out.splitlines()
        assert code == 0
        assert "s=22" in lines and "d=1" in lines
        assert lines[-1] == "degenerate=no"

    def test_no_logical_qubits_no_distance(self, capsys, tmp_path):
        # [[2,0;2]]: no logical operators, so there is no distance to bound
        path = tmp_path / "k0.code"
        path.write_text("2 0\n1 0\n0 1\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert out.splitlines() == [
            "code=[[2,0;2]]",
            "n=2",
            "k=0",
            "c=2",
            "s=0",
            "rate=-1",
            "d=undefined",
            "t=1",
            "distinct_syndromes=yes",
        ]


class TestOutOfMemory:
    @pytest.mark.parametrize("command", [["analyze", H4_PATH], ["catalytic", H4_PATH]])
    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError(), "error: out of memory\n"),
            (MemoryError("Unable to allocate 8 GiB"), "error: out of memory: Unable to allocate 8 GiB\n"),
        ],
        ids=["bare", "numpy"],
    )
    def test_clean_error(self, capsys, monkeypatch, command, exc, message):
        def exhausted(code):
            raise exc

        assert run(capsys, "build", H4_PATH)[0] == 0  # main's parser is built first
        monkeypatch.setattr(cli, "build_code", exhausted)
        assert run(capsys, *command) == (1, "", message)


class TestQubitBound:
    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--p", "0.01"]])
    def test_huge_code_refused_before_it_is_built(self, capsys, monkeypatch, tmp_path, command):
        # 100000 qubits and no generators: the check frame alone would hold
        # 2n rows of 2n bits, so the size is refused before build_code runs
        monkeypatch.setattr(cli, "build_code", lambda code: pytest.fail("build_code ran"))
        path = tmp_path / "huge.code"
        path.write_text("100000 100000\n", encoding="ascii")
        message = "error: n=100000 is over the bound of 4096 qubits for the check frame\n"
        assert run(capsys, command[0], str(path), *command[1:]) == (1, "", message)

    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--p", "0.01"]])
    @pytest.mark.parametrize("malformed", [False, True], ids=["rows", "malformed-rows"])
    def test_refused_from_the_header(self, capsys, monkeypatch, tmp_path, command, malformed):
        # the rows after an over-bound header are never parsed or checked, so
        # no sweep runs, and a malformed row does not turn exit 1 into exit 2
        def no_sweep(generators):
            pytest.fail("gram_schmidt_decompose ran")

        monkeypatch.setattr(builder, "gram_schmidt_decompose", no_sweep)
        rng = random.Random(4097)
        rows = [" ".join(rng.choice("01wW") for _ in range(4097)) for _ in range(2)]
        if malformed:
            rows = ["1 q w", " ".join(["0"] * 4097)]
        path = tmp_path / "over.code"
        path.write_text("# one qubit over the bound\n4097 4095\n" + "\n".join(rows) + "\n", encoding="ascii")
        message = "error: n=4097 is over the bound of 4096 qubits for the check frame\n"
        assert run(capsys, command[0], str(path), *command[1:]) == (1, "", message)

    def test_build_has_no_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_QUBITS", 3)
        assert run(capsys, "build", H4_PATH)[0] == 0
        with pytest.raises(ValueError, match="n=4 is over the bound of 3 qubits"):
            load_code_file(H4_PATH, 3)
        assert load_code_file(H4_PATH, 4).code.n == 4

    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--p", "0.01"]])
    def test_bound_is_inclusive(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "MAX_QUBITS", 4)
        assert run(capsys, command[0], H4_PATH, *command[1:])[0] == 0
        monkeypatch.setattr(cli, "MAX_QUBITS", 3)
        code, out, err = run(capsys, command[0], H4_PATH, *command[1:])
        assert (code, out, err) == (1, "", "error: n=4 is over the bound of 3 qubits for the check frame\n")


@pytest.fixture
def fresh_parser():
    """main's cached parser, dropped before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


class TestSharedParser:
    def test_built_once_per_process(self, capsys, monkeypatch, fresh_parser):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["build", H4_PATH], ["analyze", H4_PATH], ["bounds", "--f-list", "0.1"]):
            assert run(capsys, *argv)[0] == 0
        assert built == [1]
        # the public builder still returns a new parser on each call
        assert build() is not build()

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", H4_PATH],
            ["analyze", H4_PATH, "--t", "2"],
            ["simulate", H4_PATH, "--p", "0.05", "--trials", "3000", "--seed", "9"],
            ["bounds", "--f-list", "0,0.1,0.75"],
            ["catalytic", H4_PATH, "--rounds", "2", "--initial-ebits", "1"],
            ["catalytic", H4_PATH, "--rounds", "1"],  # infeasible: exit 1
            ["build", "/nonexistent/x.code"],  # exit 2
        ],
        ids=lambda argv: "-".join(a for a in argv if a != H4_PATH),
    )
    def test_repeated_calls_identical(self, capsys, fresh_parser, argv):
        first = run(capsys, *argv)  # the call that builds the parser
        assert [run(capsys, *argv) for _ in range(2)] == [first, first]

    @pytest.mark.parametrize(
        "interrupt, status",
        [
            pytest.param(["simulate", H4_PATH, "--p", "1.5"], 2, id="bad-p"),
            pytest.param(["simulate", H4_PATH], 2, id="missing-p"),
            pytest.param(["frobnicate"], 2, id="unknown-command"),
            pytest.param(["--help"], 0, id="help"),
            pytest.param(["analyze", "--help"], 0, id="analyze-help"),
        ],
    )
    def test_usage_exit_between_calls(self, capsys, fresh_parser, interrupt, status):
        argv = ["simulate", H4_PATH, "--p", "0.05", "--trials", "3000", "--seed", "9"]
        before = run(capsys, *argv)
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(interrupt)
            assert exc.value.code == status
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert run(capsys, *argv) == before


class TestSimulateCommand:
    def test_p_zero(self, capsys):
        code, out, _ = run(
            capsys, "simulate", H4_PATH, "--p", "0", "--trials", "1000", "--seed", "7"
        )
        assert code == 0
        assert "failures=0" in out
        assert "rate=0" in out

    def test_byte_identical_reruns(self, capsys):
        args = ["simulate", H4_PATH, "--p", "0.03", "--trials", "20000", "--seed", "11"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_worker_count_invariance(self, capsys):
        base = ["simulate", H4_PATH, "--p", "0.07", "--trials", "30000", "--seed", "13"]
        _, one, _ = run(capsys, *base, "--workers", "1")
        _, four, _ = run(capsys, *base, "--workers", "4")
        assert one == four

    def test_million_workers(self, capsys):
        # cut into at most one range per CPU, so this takes as long as --workers 1
        base = ["simulate", H4_PATH, "--p", "0.1", "--trials", "1000", "--seed", "3"]
        _, one, _ = run(capsys, *base, "--workers", "1")
        code, many, _ = run(capsys, *base, "--workers", "1000000")
        assert code == 0 and many == one

    def test_monotone_in_p(self, capsys):
        def rate(p):
            _, out, _ = run(
                capsys, "simulate", H4_PATH, "--p", p, "--trials", "20000", "--seed", "3"
            )
            return float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("rate=")))

        assert rate("0.5") > rate("0.1")

    def test_table_over_budget_is_refused(self, capsys, monkeypatch, tmp_path):
        # a 40-qubit code at depth 6 would enumerate about 3e9 Paulis
        path = write_n40_code(tmp_path)
        built = []
        monkeypatch.setattr(cli, "build_syndrome_table", lambda *a: built.append(a))
        code, out, err = run(capsys, "simulate", path, "--p", "0.1", "--max-weight", "6")
        assert (code, out, built) == (1, "", [])
        count = sum(math.comb(40, w) * 3**w for w in range(7))
        assert f"would enumerate {count} Paulis" in err
        assert f"budget of {cli.TABLE_BUDGET}" in err

    def test_invalid_probability_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", H4_PATH, "--p", "1.5"])
        assert exc.value.code == 2

    def test_invalid_trials_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", H4_PATH, "--p", "0.1", "--trials", "0"])
        assert exc.value.code == 2


class TestBoundsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--f-list", "0,0.1,0.75")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "f=0 R_C=1 R_Q=1"
        assert lines[1].startswith("f=0.1 R_C=0.686254078169")
        assert "R_Q=0.372508156339" in lines[1]
        f75 = dict(kv.split("=") for kv in lines[2].split())
        assert abs(float(f75["R_C"])) < 1e-12
        assert abs(float(f75["R_Q"]) + 1) < 1e-12

    def test_out_of_range_f(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--f-list", "0.2,1.2"])
        assert exc.value.code == 2
        assert "probability 1.2 outside [0, 1]" in capsys.readouterr().err


class TestCatalyticCommand:
    def test_golden_zero_net(self, capsys):
        code, out, _ = run(
            capsys, "catalytic", H4_PATH, "--rounds", "3", "--initial-ebits", "1"
        )
        assert code == 0
        assert "total_delivered=0" in out
        assert out.count("delivered=0 ebits_held=1") == 3

    def test_c_zero_code(self, capsys, tmp_path):
        trivial = tmp_path / "trivial.code"
        trivial.write_text("3 3\n")
        code, out, _ = run(capsys, "catalytic", str(trivial), "--rounds", "2")
        assert code == 0
        assert "total_delivered=6" in out

    def test_infeasible(self, capsys):
        code, out, err = run(capsys, "catalytic", H4_PATH, "--rounds", "1")
        assert code == 1
        assert out == ""
        assert "ebits" in err


CORPUS_MANIFEST = json.loads((BENCH_CORPUS / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", sorted(BENCH_CORPUS.glob("*.code")), ids=lambda p: p.stem)
def test_build_report_matches_corpus_manifest(capsys, path):
    (entry,) = [e for e in CORPUS_MANIFEST.values() if e["file"] == path.name]
    code, out, err = run(capsys, "build", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == entry["build_report_sha256"]


@pytest.mark.parametrize(
    "name, key",
    [(name, key) for name, entry in sorted(CORPUS_MANIFEST.items()) for key in entry.get("analyze", {})],
    ids=lambda v: v.replace(" ", "-"),
)
def test_analyze_report_matches_corpus_manifest(capsys, name, key):
    entry = CORPUS_MANIFEST[name]
    cap, t = (part.split("=")[1] for part in key.split())
    path = str(BENCH_CORPUS / entry["file"])
    code, out, err = run(capsys, "analyze", path, "--weight-cap", cap, "--t", t)
    assert (code, err) == (0, "")
    assert dict(line.split("=", 1) for line in out.splitlines()) == entry["analyze"][key]
