"""End-to-end tests of the command-line interface."""

import pytest

from eaqecc import builder, example_code_path
from eaqecc.cli import CodeFileError, load_code_file, main, parse_code_text

H4_PATH = example_code_path("h4.code")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_isotropic_scan_runs_once(self, capsys, monkeypatch):
        calls = []
        scan = builder.min_isotropic_weight

        def counting(codeq):
            calls.append(codeq.n)
            return scan(codeq)

        monkeypatch.setattr(builder, "min_isotropic_weight", counting)
        code, out, _ = run(capsys, "analyze", H4_PATH)
        assert code == 0 and "degenerate=no" in out.splitlines()
        assert calls == [4]

    def test_weight_cap_lower_bound(self, capsys):
        code, out, _ = run(capsys, "analyze", H4_PATH, "--weight-cap", "1")
        assert code == 0
        assert "d_lower_bound=2" in out
        assert "\nd=" not in out

    def test_t_two_collisions(self, capsys):
        code, out, _ = run(capsys, "analyze", H4_PATH, "--t", "2")
        assert code == 0
        assert "distinct_syndromes=no" in out

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

    def test_monotone_in_p(self, capsys):
        def rate(p):
            _, out, _ = run(
                capsys, "simulate", H4_PATH, "--p", p, "--trials", "20000", "--seed", "3"
            )
            return float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("rate=")))

        assert rate("0.5") > rate("0.1")

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
