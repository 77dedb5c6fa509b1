"""Command-line front-end: configuration validation and exit codes."""

import pytest

from bpl import cli
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
