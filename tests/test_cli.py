"""Tests for the form expression parser and the command line interface."""

import csv
import io
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    FormSyntaxError,
    PicTorsionClass,
    UnitSquareClass,
    enumerate_generators,
    parse_form,
    quaternion_norm_form,
    run_command,
)


class TestParse:
    def test_norm_form_text(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            parsed = parse_form("<1,-s*L1,-pi,s*pi*L1>", config)
            built = quaternion_norm_form(
                config, UnitSquareClass(1), PicTorsionClass.basis(1, 1)
            )
            assert parsed == built

    def test_empty_form(self, q3r1):
        assert parse_form("<>", q3r1) == DiagonalForm.zero(q3r1)

    def test_unknown_bundle_label(self, q3r1):
        with pytest.raises(FormSyntaxError, match="unknown bundle label L3"):
            parse_form("<L3>", q3r1)
        with pytest.raises(FormSyntaxError, match="unknown bundle label L0"):
            parse_form("<L0>", q3r1)

    def test_oversized_bundle_label(self, q3r1):
        # past 4300 digits int() itself would raise its own ValueError
        with pytest.raises(FormSyntaxError, match="unknown bundle label") as err:
            parse_form("<1,L" + "9" * 5000 + ">", q3r1)
        assert err.value.position == 3
        with pytest.raises(FormSyntaxError, match="unknown bundle label"):
            parse_form("<L10>", q3r1)
        assert parse_form("<L" + "0" * 5000 + "1>", q3r1) == parse_form("<L1>", q3r1)

    def test_non_ascii_digit_label(self, q3r1):
        with pytest.raises(FormSyntaxError, match="expected bundle index"):
            parse_form("<L\u00b2>", q3r1)

    def test_repeated_terms_multiply(self, q3r1):
        assert parse_form("<pi*pi>", q3r1) == parse_form("<1>", q3r1)
        assert parse_form("<s*s*L1*L1>", q3r1) == parse_form("<1>", q3r1)

    def test_minus_is_class_of_minus_one(self):
        q3 = CurveConfig(3, 0)
        q1 = CurveConfig(1, 0)
        assert parse_form("<-1>", q3) == parse_form("<s>", q3)
        assert parse_form("<-1>", q1) == parse_form("<1>", q1)
        assert parse_form("<-s>", q3) == parse_form("<1>", q3)

    def test_unicode_brackets_accepted(self, q3r1):
        assert parse_form("⟨1,-pi⟩", q3r1) == parse_form("<1,-pi>", q3r1)

    def test_whitespace_tolerated(self, q3r1):
        assert parse_form(" < 1 , - s * L1 > ", q3r1) == parse_form("<1,-s*L1>", q3r1)

    def test_syntax_error_positions(self, q3r1):
        with pytest.raises(FormSyntaxError, match="position 0"):
            parse_form("1,s", q3r1)
        with pytest.raises(FormSyntaxError, match="position 3"):
            parse_form("<1,>", q3r1)
        with pytest.raises(FormSyntaxError) as err:
            parse_form("<1>x", q3r1)
        assert "trailing input" in str(err.value)
        with pytest.raises(FormSyntaxError, match="expected term"):
            parse_form("<q>", q3r1)
        with pytest.raises(FormSyntaxError, match="expected bundle index"):
            parse_form("<L>", q3r1)

    def test_missing_closing_bracket(self, q3r1):
        with pytest.raises(FormSyntaxError):
            parse_form("<1,s", q3r1)


class TestFormatRoundTrip:
    TEMPLATES = [
        "<>",
        "<s*L1>",
        "<s*pi*L2>",
        "<1,s*L1>",
        "<s*L1,s*pi*L2>",
        "<pi,s*pi*L1>",
        "<1,s*L1,s*pi*L2>",
        "<s*L1,pi,s*pi*L1*L2>",
        "<1,s*L1,pi,s*pi*L2>",
        "<1,-1,-pi,pi>",
        "<pi,pi,s,s>",
    ]

    @pytest.mark.parametrize("text", TEMPLATES)
    @pytest.mark.parametrize("q", (1, 3))
    def test_golden_corpus(self, text, q):
        config = CurveConfig(q, 2)
        form = parse_form(text, config)
        assert parse_form(str(form), config) == form

    def test_all_generators_round_trip(self, cfg):
        for g in enumerate_generators(cfg):
            form = DiagonalForm(cfg, (g,))
            assert parse_form(str(form), cfg) == form

    def test_no_unicode_emitted(self, q3r1):
        rendered = str(parse_form("⟨s*L1,pi⟩", q3r1))
        assert rendered == "<s*L1,pi>"


class TestRunCommand:
    def test_reduce_zero(self, capsys):
        code = run_command(["reduce", "<1,-1>"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ZERO" in out

    def test_reduce_json(self, capsys):
        code = run_command(["reduce", "<1,-s*L1,s,pi,-pi*s*L1>", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["shape"] == "<s*L,pi,t*pi*M>"
        assert payload["payload"] == "<L1,pi,pi*L1>"

    def test_equal_true_exit_zero(self, capsys):
        code = run_command(["equal", "<s*L1,s*L1>", "<1,1>"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_equal_false_exit_one(self, capsys):
        code = run_command(["equal", "<1>", "<pi>"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_invariants_json_schema(self, capsys):
        run_command(["invariants", "<1,-s*L1,-pi,s*pi*L1>", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "rank_parity": 0,
            "signed_disc": "1",
            "witt_inv": "(s*L1, pi)",
        }

    def test_invariants_json_omits_witt_outside_ideal_square(self, capsys):
        run_command(["invariants", "<s*L1>", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"rank_parity", "signed_disc"}
        assert payload["rank_parity"] == 1

    def test_enumerate_json_census(self, capsys):
        code = run_command(
            ["enumerate", "--picard-rank", "1", "--q-mod-4", "3", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["total"] == 64
        assert [row["count"] for row in payload["shapes"]] == [4, 4, 3, 16, 3, 12, 12, 9]
        assert all(set(row) == {"shape", "count"} for row in payload["shapes"])

    def test_enumerate_csv(self, capsys):
        run_command(["enumerate", "--picard-rank", "0", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["shape", "count"]
        assert rows[-1] == ["total", "16"]
        assert len(rows) == 10

    def test_enumerate_deterministic(self, capsys):
        run_command(["enumerate"])
        first = capsys.readouterr().out
        run_command(["enumerate"])
        assert capsys.readouterr().out == first

    def test_verify_passes(self, capsys):
        code = run_command(["verify", "--picard-rank", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall" in out and "PASS" in out and "FAIL" not in out

    def test_verify_json(self, capsys):
        code = run_command(["verify", "--picard-rank", "0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["passed"] is True
        assert {check["name"] for check in payload["checks"]} == {
            "quaternion_distinctness",
            "rank_one_structure",
            "ring_isomorphism",
            "generator_relations",
        }

    def test_verify_rejects_large_rank_before_running_suites(self, capsys):
        start = time.perf_counter()
        code = run_command(["verify", "--picard-rank", "6"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bound exceeded")
        assert "picard_rank <= 2" in captured.err
        assert elapsed < 1.0

    def test_huge_rank_allocates_nothing_rank_sized(self, capsys):
        tracemalloc.start()
        try:
            code = run_command(["invariants", "<1,L1>", "--picard-rank", "100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "signed_disc" in capsys.readouterr().out
        assert peak < 1 << 20

    def test_usage_error_exits_two(self, capsys):
        assert run_command(["no-such-command"]) == 2
        capsys.readouterr()
        assert run_command([]) == 2
        capsys.readouterr()

    def test_parse_error_exits_two(self, capsys):
        code = run_command(["reduce", "<L9>"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown bundle label" in captured.err

    def test_oversized_label_exits_two(self, capsys):
        code = run_command(["reduce", "<L" + "9" * 5000 + ">"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: unknown bundle label")
        assert len(captured.err.strip().splitlines()) == 1

    def test_invalid_q_rejected(self, capsys):
        assert run_command(["enumerate", "--q-mod-4", "2"]) == 2
        capsys.readouterr()

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "census.json"
        code = run_command(["enumerate", "--format", "json", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["total"] == 64

    def test_out_into_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        code = run_command(["reduce", "<1>", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert not target.exists()

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        capsys.readouterr()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "wittcurve", "equal", "<pi*L1,pi*L1>", "<pi,pi>"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "true"
