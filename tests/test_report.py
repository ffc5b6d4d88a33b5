"""Tests for the reproduction-report generator."""

import pathlib

import pytest

from repro.report import generate_report


@pytest.fixture(scope="module")
def report_text():
    return generate_report()


def test_report_has_all_sections(report_text):
    for heading in (
        "# CHAM reproduction report",
        "## Parameters",
        "## Table II",
        "## NTT and key-switch",
        "## Fig. 2a",
        "## Fig. 2b",
        "## Fig. 6 / Fig. 8",
        "## Fig. 7",
        "## §III-A — noise claim",
    ):
        assert heading in report_text, heading


def test_report_headline_numbers(report_text):
    assert "6144 cycles" in report_text
    assert "195,312" in report_text
    assert "72.13%" in report_text  # BRAM row, Table II
    assert "paper: 2x .. 36x" in report_text
    assert "| bram | 3,324 | 14 | 6144 cycles |" in report_text  # Table III
    assert "97,120 rows/s" in report_text  # E5's deployed DSE point


def test_report_numbers_match_models(report_text):
    """Spot-check: the numbers in the text equal what the models return."""
    from repro.hw.perf import ChamPerfModel

    thr = ChamPerfModel().ntt_offload_throughput()
    assert f"{thr:,.0f}" in report_text


def test_committed_report_is_current(report_text):
    """REPRODUCTION_REPORT.md is the one committed copy of the headline
    numbers; regenerate it with ``python -m repro report -o
    REPRODUCTION_REPORT.md`` whenever a model it reads moves."""
    root = pathlib.Path(__file__).resolve().parent.parent
    committed = (root / "REPRODUCTION_REPORT.md").read_text(encoding="utf-8")
    assert committed == report_text


def test_report_writes_file(tmp_path):
    target = tmp_path / "out.md"
    text = generate_report(str(target))
    assert target.read_text() == text


def test_report_is_markdown_table_clean(report_text):
    """Every table row has a consistent column count within its table."""
    lines = report_text.splitlines()
    current_cols = None
    for line in lines:
        if line.startswith("|"):
            cols = line.count("|")
            if current_cols is None:
                current_cols = cols
            else:
                assert cols == current_cols, line
        else:
            current_cols = None
