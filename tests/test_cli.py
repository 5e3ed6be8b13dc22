"""Tests for the form expression parser and the command line interface."""

import ast
import csv
import errno
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import wittcurve
from wittcurve import (
    CurveConfig,
    DiagonalForm,
    FormSyntaxError,
    enumerate_generators,
    parse_form,
    quaternion_norm_form,
    run_command,
)
from wittcurve.syntax import MAX_FORM_ENTRIES


class TestParse:
    def test_norm_form_text(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            parsed = parse_form("<1,-s*L1,-pi,s*pi*L1>", config)
            built = quaternion_norm_form(config, 1, 1)
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

    def test_bundle_label_limit(self):
        # A label builds a mask of its own size, so labels stop at the rank,
        # and the rank stops at L4096.
        cfg = CurveConfig(3, 4096)
        assert parse_form("<L4096>", cfg).entries[0].mask == 1 << 4095
        with pytest.raises(
            FormSyntaxError, match="^unknown bundle label L4097 at position 5$"
        ) as err:
            parse_form("<1,s*L4097>", cfg)
        assert err.value.position == 5
        with pytest.raises(ValueError, match="^picard_rank must be <= 4096, got 4097$"):
            CurveConfig(3, 4097)

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

    @pytest.mark.parametrize("fmt", ("text", "json", "csv"))
    def test_enumerate_up_to_census_rank_bound(self, fmt, capsys):
        # The census takes every rank a configuration takes; its total at
        # the largest has 2468 digits.
        code = run_command(["enumerate", "--picard-rank", "4096", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert str(16 * 4**4096) in out
        code = run_command(["enumerate", "--picard-rank", "4097", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: picard_rank must be <= 4096, got 4097\n"

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

    @pytest.mark.parametrize(
        "fmt, lines",
        [
            ("text", ["generator_relations      FAIL", "overall                  FAIL"]),
            ("csv", ["generator_relations,false", "overall,false"]),
            ("json", ['  "passed": false']),
        ],
    )
    def test_verify_reports_a_failing_suite(self, fmt, lines, capsys, monkeypatch):
        monkeypatch.setattr(
            "wittcurve.verify.verify_generator_relations",
            lambda cfg: SimpleNamespace(passed=False),
        )
        code = run_command(["verify", "--picard-rank", "0", "--format", fmt])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in out if line in lines] == lines

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
        for rank, expected in (("4096", 0), ("100000000", 2)):
            tracemalloc.start()
            try:
                code = run_command(["invariants", "<1,L1>", "--picard-rank", rank])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == expected
            assert peak < 1 << 20
        captured = capsys.readouterr()
        assert "signed_disc" in captured.out
        assert captured.err == "error: picard_rank must be <= 4096, got 100000000\n"

    def test_label_over_limit_exits_two_in_bounded_memory(self, capsys):
        for rank, message in (
            # Without the rank limit this asks for a 12.5 GB mask.
            ("99999999999", "picard_rank must be <= 4096, got 99999999999"),
            # A label of more digits than the rank is refused unread.
            ("4096", "unknown bundle label L99999999... (11 digits) at position 10"),
        ):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                code = run_command(
                    ["invariants", "<1,L1,-pi*L99999999999>", "--picard-rank", rank]
                )
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
            assert elapsed < 1.0
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

    def test_form_over_length_limit_exits_two(self, capsys):
        limit = MAX_FORM_ENTRIES
        code = run_command(["equal", "<1>", "<" + "1," * limit + "1>"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: form entry {limit + 1} exceeds the limit of {limit} entries "
            f"at position {1 + 2 * limit}\n"
        )

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

    def test_empty_out_path_exits_two(self, capsys):
        # An empty --out is a path that cannot be opened, not a request for
        # stdout.
        code = run_command(["reduce", "<1>", "--out", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cannot write '': No such file or directory\n"

    def test_stdout_write_failure_exits_two(self, capsys, monkeypatch):
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = run_command(["reduce", "<1>"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot write stdout: No space left on device\n"
        )

    def test_missing_stdout_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        code = run_command(["reduce", "<1>"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot write stdout: Bad file descriptor\n"
        )

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        capsys.readouterr()


def test_only_the_renderer_reads_the_format():
    # A command returns a record, and _render alone decides how it prints.
    tree = ast.parse(Path(wittcurve.cli.__file__).read_text(encoding="utf-8"))
    readers = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute) and child.attr == "format"
    ]
    assert readers == []


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _child_env() -> dict:
    """This environment, with the directory that holds the imported package
    first on PYTHONPATH, so that a child interpreter runs the same code from
    a checkout as from an install."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(wittcurve.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize(
    "open_stdout, message",
    [
        pytest.param(
            lambda: os.open("/dev/full", os.O_WRONLY),
            "No space left on device",
            id="dev-full",
            marks=pytest.mark.skipif(
                not os.path.exists("/dev/full"), reason="no /dev/full"
            ),
        ),
        pytest.param(_closed_pipe, "Broken pipe", id="closed-pipe"),
    ],
)
def test_stdout_write_failure_exits_two_in_a_process(open_stdout, message):
    # Block-buffered, as in a shell: the unwritten rest must not fail again
    # when the interpreter flushes stdout at exit.
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    stdout = open_stdout()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "wittcurve", "reduce", "<1>"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(stdout)
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write stdout: {message}\n"


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "wittcurve", "equal", "<pi*L1,pi*L1>", "<pi,pi>"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "true"
