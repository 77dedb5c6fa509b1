"""Command-line front-end: configuration validation and exit codes."""

import json

import pytest

from bpl import cli, suites
from bpl.config import SpectralConfig


def test_over_capacity_length_exits_before_any_draw(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("random_instance called for an over-capacity L")

    monkeypatch.setattr(SpectralConfig, "random_instance", classmethod(refuse))
    assert cli.main(["spectrum", "--L", "300000"]) == cli.EXIT_CAPACITY
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spectrum", "--L", "0"], ["spectrum", "--L", "3", "--n", "4"],
                                  ["spectrum", "--L", "3", "--n", "-1"]])
def test_out_of_range_fields_exit_as_usage_errors(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["all", "--L", "7", "--n", "1"], ["dwbc", "pde", "--L", "7"],
                                  ["dwbc", "upsilon", "--L", "8", "--n", "2"]])
def test_over_cap_zbar_suites_exit_before_any_artifact(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum built for a run that must be rejected")

    monkeypatch.setattr(suites, "spectrum", refuse)
    assert cli.main(argv) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "capacity error" in err and "L = 6" in err


def test_all_report_carries_artifact_times(capsys):
    assert cli.main(["all", "--L", "3", "--n", "1", "--json"]) == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert set(report["artifacts"]) == {"eigs", "fits", "family", "eigk", "zbar"}
