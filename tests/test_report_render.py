"""The EXPERIMENTS.md report renderer (formatting only; the full
generation runs via `python -m repro.bench.report`)."""

from __future__ import annotations

import copy

import pytest

from repro.bench.report import _markdown_table, _section, render_report
from repro.bench.runner import run_matrix


class TestMarkdownTable:
    def test_basic_shape(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 0.0001}]
        rendered = _markdown_table(rows)
        lines = rendered.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 1 | 2.5 |" in rendered
        assert "0.0001" in rendered

    def test_column_selection(self):
        rows = [{"x": 1, "y": 2}]
        rendered = _markdown_table(rows, columns=["y"])
        assert "x" not in rendered.splitlines()[0]

    def test_empty(self):
        assert "(no rows)" in _markdown_table([])

    def test_missing_cell_blank(self):
        rendered = _markdown_table([{"a": 1}], columns=["a", "b"])
        assert "|  |" in rendered or "|  |" in rendered.replace("| 1 ", "")


class TestSection:
    def test_structure(self):
        section = _section("T9", "title", "expected...", "verdict...", "BODY\n")
        assert "## T9 — title" in section
        assert "**Expected shape.** expected..." in section
        assert "**Verdict.** verdict..." in section
        assert "BODY" in section


@pytest.mark.slow
def test_verdicts_are_computed_from_the_rows():
    """A smoke report whose every check holds prints no ``FAILS``; the
    same report with one doctored E2 row (a forged transfer executed)
    prints ``FAILS`` in E2's verdict and nowhere else."""
    results = run_matrix(smoke=True, workers=2).results
    assert "FAILS" not in render_report(results, smoke=True)
    doctored = copy.deepcopy(results)
    doctored["e2"][0]["fraud_executed"] = 1
    rendered = render_report(doctored, smoke=True)
    e2 = rendered.split("## E2 (extension)")[1].split("\n## ")[0]
    assert "**Verdict.** FAILS" in e2
    assert rendered.count("FAILS") == 1
