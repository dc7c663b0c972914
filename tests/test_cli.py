"""Command-line behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import gridlint
from gridlint import cli
from gridlint.model import GridlintError, load_workbook
from gridlint.pipeline import analyze_workbook
from gridlint.report import global_view_chunks


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workbook_path(fixtures_dir):
    return str(fixtures_dir / "inconsistent_sum.gridbook")


class TestAnalyze:
    def test_json_to_stdout(self, workbook_path, capsys):
        code, out, err = run(["analyze", workbook_path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["workbook"] == "inconsistent_sum"
        assert payload["sheets"][0]["fixes"][0]["source"] == ["F6"]
        assert payload["sheets"][0]["fixes"][0]["target"] == "F7:F11"
        assert "analyzed 1 sheet(s): 3 regions, 1 proposed fixes" in err
        for phase in ("parse", "vectors", "decomposition", "fixes"):
            assert f"{phase}:" in err

    def test_phase_timings_on_stderr(self, workbook_path, capsys):
        code, _, err = run(["analyze", workbook_path], capsys)
        assert code == 0
        lines = err.splitlines()
        assert lines[0] == "analyzed 1 sheet(s): 3 regions, 1 proposed fixes"
        timings = [re.fullmatch(r"  (\w+): (\S+) ms", line) for line in lines[1:]]
        assert all(timings)
        assert [m[1] for m in timings] == ["parse", "vectors", "decomposition", "fixes"]
        assert all(float(m[2]) >= 0 for m in timings)

    def test_out_file(self, workbook_path, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, out, _ = run(["analyze", workbook_path, "--out", str(out_file)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["workbook"] == "inconsistent_sum"

    def test_text_format(self, workbook_path, capsys):
        code, out, _ = run(["analyze", workbook_path, "--format", "text"], capsys)
        assert code == 0
        assert out.startswith("workbook: inconsistent_sum")
        assert "#1 rewrite [F6] to match F7:F11" in out

    def test_missing_file(self, capsys):
        code, _, err = run(["analyze", "no_such.gridbook"], capsys)
        assert code == 2
        assert "error:" in err

    def test_directory_argument(self, tmp_path, capsys):
        code, _, err = run(["analyze", str(tmp_path)], capsys)
        assert code == 2

    def test_malformed_workbook(self, tmp_path, capsys):
        bad = tmp_path / "bad.gridbook"
        bad.write_text("{not json")
        code, _, err = run(["analyze", str(bad)], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("threshold", ["0", "1.5", "-0.2"])
    def test_threshold_out_of_range(self, workbook_path, threshold, capsys):
        code, _, err = run(["analyze", workbook_path, "--threshold", threshold], capsys)
        assert code == 2

    def test_internal_errors_exit_one(self, workbook_path, capsys, monkeypatch):
        def boom(path):
            raise GridlintError("boom")

        monkeypatch.setattr(cli, "load_workbook", boom)
        code, _, err = run(["analyze", workbook_path], capsys)
        assert code == 1
        assert "internal error: boom" in err

    def test_value_error_inside_analysis_exits_one(self, workbook_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "analyze_workbook", broken)
        code, _, err = run(["analyze", workbook_path], capsys)
        assert code == 1
        assert "internal error: ValueError: bug" in err

    def test_no_jobs_option(self, workbook_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["analyze", workbook_path, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_non_utf8_workbook_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.gridbook"
        bad.write_bytes(b'{"workbook": "caf\xe9", "sheets": []}')
        code, _, err = run(["analyze", str(bad)], capsys)
        assert code == 2
        assert "UTF-8" in err

    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "nested.gridbook"
        bad.write_text('{"workbook": "x", "sheets": ' + "[" * 100000 + "]" * 100000 + "}")
        code, _, err = run(["analyze", str(bad)], capsys)
        assert code == 2
        assert "nested too deeply" in err

    def test_number_past_digit_limit_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "long.gridbook"
        bad.write_text('{"workbook": "x", "sheets": [{"name": "S", "cells": {"A1": {"n": 1'
                       + "0" * 5000 + '}}}]}')
        code, _, err = run(["analyze", str(bad)], capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_row_past_digit_limit_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "long.gridbook"
        bad.write_text('{"workbook": "x", "sheets": [{"name": "S", "cells": {"A1'
                       + "0" * 5000 + '": {"n": 1}}}]}')
        code, _, err = run(["analyze", str(bad)], capsys)
        assert code == 2
        assert "invalid cell address" in err

    def test_cell_past_the_last_column_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "wide.gridbook"
        bad.write_text('{"workbook": "x", "sheets": [{"name": "S", "cells": {"XFE1": {"n": 1}}}]}')
        code, out, err = run(["analyze", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid cell address: 'XFE1' is outside the sheet\n"

    def test_address_ending_in_a_newline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "newline.gridbook"
        bad.write_text(json.dumps({"workbook": "x", "sheets": [
            {"name": "S", "cells": {"B2\n": {"n": 1}, "A1": {"n": 2}}},
        ]}))
        code, out, err = run(["analyze", str(bad)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid cell address: 'B2\\n'\n"

    def test_duplicate_top_level_key_names_file_and_key(self, tmp_path, capsys):
        bad = tmp_path / "twice.gridbook"
        bad.write_text('{"workbook": "w", "workbook": "x", "sheets": []}')
        code, _, err = run(["analyze", str(bad)], capsys)
        assert code == 2
        assert err == f"error: {bad}: duplicate key 'workbook'\n"

    @pytest.mark.parametrize("command", ["analyze", "render"])
    def test_used_range_past_limit_is_usage_error(self, command, tmp_path):
        # A1 plus XFD1048576 spans about 1.7e10 cells.  Run in a child under
        # a 1 GB address-space limit, so a missing check fails the test
        # with a MemoryError instead of exhausting the machine.
        source = tmp_path / "corners.gridbook"
        source.write_text(json.dumps({"workbook": "corners", "sheets": [
            {"name": "S", "cells": {"A1": {"n": 1}, "XFD1048576": {"f": "=A1"}}},
        ]}))
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "gridlint", command, str(source), "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(Path(gridlint.__file__).parent.parent)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "A1:XFD1048576" in proc.stderr

    def test_refused_formula_named_on_stderr(self, tmp_path, capsys):
        source = tmp_path / "row0.gridbook"
        source.write_text(json.dumps({"workbook": "row0", "sheets": [
            {"name": "S", "cells": {"A1": {"n": 1}, "B1": {"f": "=A0"}, "B2": {"f": "=A1"}}},
        ]}))
        code, out, err = run(["analyze", str(source)], capsys)
        assert code == 0
        assert json.loads(out)["workbook"] == "row0"
        lines = err.splitlines()
        assert lines[0].startswith("analyzed 1 sheet(s)")
        assert lines[-1] == "S!B1: unparseable formula treated as text (reference A0 outside the sheet at offset 1)"
        assert sum("unparseable" in line for line in lines) == 1

    def test_out_under_a_file_is_usage_error(self, workbook_path, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, out, err = run(["analyze", workbook_path, "--out", str(tmp_path / "file" / "report.json")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_no_preprocess_output_identical(self, workbook_path, tmp_path, capsys):
        with_pre = tmp_path / "pre.json"
        without = tmp_path / "nopre.json"
        assert run(["analyze", workbook_path, "--out", str(with_pre)], capsys)[0] == 0
        assert run(
            ["analyze", workbook_path, "--no-preprocess", "--out", str(without)], capsys
        )[0] == 0
        assert with_pre.read_bytes() == without.read_bytes()


class TestRender:
    def test_writes_one_page_per_sheet(self, workbook_path, tmp_path, capsys):
        code, _, err = run(["render", workbook_path, "--out", str(tmp_path)], capsys)
        assert code == 0
        page = tmp_path / "inconsistent_sum_Totals.html"
        assert page.exists()
        text = page.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<title>F6</title>" in text
        assert f"wrote {page}" in err

    def test_streamed_pages_equal_the_rendered_string(self, fixtures_dir, tmp_path, capsys):
        for path in sorted(fixtures_dir.glob("*.gridbook")):
            assert run(["render", str(path), "--out", str(tmp_path)], capsys)[0] == 0
            workbook = load_workbook(path)
            for sheet in analyze_workbook(workbook).sheets:
                page = tmp_path / f"{cli._safe_name(workbook.name)}_{cli._safe_name(sheet.name)}.html"
                assert page.read_bytes() == "".join(global_view_chunks(sheet.table)).encode("utf-8")

    def test_empty_sheet_page(self, tmp_path, capsys):
        source = tmp_path / "holes.gridbook"
        source.write_text(json.dumps({
            "workbook": "holes",
            "sheets": [{"name": "Blank", "cells": {}}],
        }))
        code, _, _ = run(["render", str(source), "--out", str(tmp_path)], capsys)
        assert code == 0
        page = tmp_path / "holes_Blank.html"
        assert "no regions" in page.read_text()

    def test_workbook_without_sheets_is_usage_error(self, tmp_path, capsys):
        source = tmp_path / "none.gridbook"
        source.write_text(json.dumps({"workbook": "none", "sheets": []}))
        code, _, err = run(["render", str(source), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "no sheets" in err

    def test_sheet_names_sanitized_for_filenames(self, tmp_path, capsys):
        source = tmp_path / "odd.gridbook"
        source.write_text(json.dumps({
            "workbook": "odd book",
            "sheets": [{"name": "P&L  2024?", "cells": {"A1": {"n": 1}}}],
        }))
        code, _, _ = run(["render", str(source), "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "odd_book_P_L_2024_.html").exists()

    def test_sheets_named_alike_get_pages_of_their_own(self, tmp_path, capsys):
        source = tmp_path / "wb.gridbook"
        source.write_text(json.dumps({
            "workbook": "wb",
            "sheets": [
                {"name": "Q1 2020", "cells": {"A1": {"n": 1}, "A2": {"f": "=A1"}}},
                {"name": "Q1_2020", "cells": {"B1": {"s": "x"}}},
                {"name": "Q1 2020_2", "cells": {"A1": {"n": 2}}},
            ],
        }))
        code, _, err = run(["render", str(source), "--out", str(tmp_path)], capsys)
        assert code == 0
        names = ["wb_Q1_2020.html", "wb_Q1_2020_2.html", "wb_Q1_2020_2_2.html"]
        assert sorted(p.name for p in tmp_path.glob("*.html")) == names
        assert err.splitlines() == [f"wrote {tmp_path / name}" for name in names]
        for name, sheet in zip(names, analyze_workbook(load_workbook(source)).sheets):
            assert (tmp_path / name).read_text(encoding="utf-8") == "".join(global_view_chunks(sheet.table))

    def test_missing_file(self, capsys):
        assert run(["render", "absent.gridbook"], capsys)[0] == 2

    def test_out_naming_a_file_is_usage_error(self, workbook_path, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, _, err = run(["render", workbook_path, "--out", str(tmp_path / "file")], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestEval:
    def test_end_to_end(self, fixtures_dir, tmp_path, capsys):
        workbook = str(fixtures_dir / "weekly_totals.gridbook")
        report_path = tmp_path / "report.json"
        assert run(["analyze", workbook, "--out", str(report_path)], capsys)[0] == 0
        code, out, _ = run(
            ["eval", str(report_path), str(fixtures_dir / "weekly_totals.annotations.json")],
            capsys,
        )
        assert code == 0
        result = json.loads(out)
        overall = result["overall"]
        assert overall["tp"] == 1
        assert overall["precision"] == 1.0
        assert overall["recall"] == 1.0
        assert overall["expected_random_tp"] == pytest.approx(1 / 42)
        assert overall["adjusted_precision"] == pytest.approx(41 / 42)

    def test_out_file(self, fixtures_dir, tmp_path, capsys):
        workbook = str(fixtures_dir / "weekly_totals.gridbook")
        report_path = tmp_path / "report.json"
        result_path = tmp_path / "scores.json"
        run(["analyze", workbook, "--out", str(report_path)], capsys)
        code, out, _ = run(
            [
                "eval", str(report_path),
                str(fixtures_dir / "weekly_totals.annotations.json"),
                "--out", str(result_path),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(result_path.read_text())["workbook"] == "weekly_totals"

    def test_out_under_a_file_is_usage_error(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(["analyze", str(fixtures_dir / "weekly_totals.gridbook"), "--out", str(report_path)], capsys)
        code, out, err = run(
            ["eval", str(report_path), str(fixtures_dir / "weekly_totals.annotations.json"),
             "--out", str(report_path / "scores.json")],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_workbook_mismatch(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(
            ["analyze", str(fixtures_dir / "inconsistent_sum.gridbook"),
             "--out", str(report_path)],
            capsys,
        )
        code, _, err = run(
            ["eval", str(report_path), str(fixtures_dir / "weekly_totals.annotations.json")],
            capsys,
        )
        assert code == 2
        assert "mismatch" in err

    def test_annotation_ending_in_a_newline_is_usage_error(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(["analyze", str(fixtures_dir / "weekly_totals.gridbook"), "--out", str(report_path)], capsys)
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({"workbook": "weekly_totals", "sheets": {"Totals": {"errors": ["F6\n"]}}}))
        code, out, err = run(["eval", str(report_path), str(annotations)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid cell address: 'F6\\n'\n"

    def test_malformed_report(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text("{oops")
        code, _, _ = run(
            ["eval", str(bad), str(fixtures_dir / "weekly_totals.annotations.json")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "sheet",
        [
            {"sheet": "Totals", "cells": "many"},
            {"cells": 30},
            {"sheet": "Totals", "fixes": [7]},
            {"sheet": "Totals", "fixes": {"source": ["B2"]}},
            {"sheet": "Totals", "fixes": [{"source": "B2"}]},
            {"sheet": "Totals", "fixes": [{"source": [5]}]},
            "Totals",
        ],
    )
    def test_malformed_report_sheet(self, fixtures_dir, tmp_path, sheet, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"workbook": "weekly_totals", "sheets": [sheet]}))
        code, _, err = run(
            ["eval", str(bad), str(fixtures_dir / "weekly_totals.annotations.json")],
            capsys,
        )
        assert code == 2
        assert "malformed report" in err

    def test_report_sheets_not_a_list(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"workbook": "weekly_totals", "sheets": {"Totals": {}}}))
        code, _, err = run(
            ["eval", str(bad), str(fixtures_dir / "weekly_totals.annotations.json")],
            capsys,
        )
        assert code == 2
        assert "sheets must be a list" in err

    def test_report_row_past_digit_limit(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "report.json"
        sheet = {"sheet": "Totals", "fixes": [{"source": ["B" + "0" * 5000]}]}
        bad.write_text(json.dumps({"workbook": "weekly_totals", "sheets": [sheet]}))
        code, _, err = run(
            ["eval", str(bad), str(fixtures_dir / "weekly_totals.annotations.json")],
            capsys,
        )
        assert code == 2
        assert "invalid cell address" in err

    @pytest.mark.parametrize("where", ["report", "annotations"])
    def test_json_number_past_digit_limit(self, fixtures_dir, tmp_path, where, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"workbook": "weekly_totals", "sheets": [], "n": 1' + "0" * 5000 + "}")
        good_report = tmp_path / "report.json"
        good_report.write_text(json.dumps({"workbook": "weekly_totals", "sheets": []}))
        annotations = str(fixtures_dir / "weekly_totals.annotations.json")
        args = [str(bad), annotations] if where == "report" else [str(good_report), str(bad)]
        code, _, err = run(["eval", *args], capsys)
        assert code == 2
        assert f"invalid {where[:-1] if where == 'annotations' else where}" in err

    @pytest.mark.parametrize("duals", [5, "x", {"c1": ["F6"], "c2": ["F7"]}])
    def test_duals_not_a_list(self, tmp_path, duals, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"workbook": "w", "sheets": []}))
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({"workbook": "w", "sheets": {"S": {"errors": ["F6", "F7"], "duals": duals}}}))
        code, _, err = run(["eval", str(report), str(annotations)], capsys)
        assert code == 2
        assert err.strip().splitlines() == [err.strip()]
        assert "S.duals must be a list" in err

    def test_missing_annotations(self, fixtures_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(
            ["analyze", str(fixtures_dir / "weekly_totals.gridbook"),
             "--out", str(report_path)],
            capsys,
        )
        assert run(["eval", str(report_path), "absent.json"], capsys)[0] == 2


class TestParser:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["optimize", "x"])
        assert exc_info.value.code == 2
