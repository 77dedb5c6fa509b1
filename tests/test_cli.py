"""Command-line front-end: configuration validation and exit codes."""

import io
import json

import pytest

from bpl import cli, suites
from bpl.config import SpectralConfig
from bpl.errors import ConfigError
from bpl.suites import CheckRecord


def test_over_capacity_length_exits_before_any_draw(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("random_instance called for an over-capacity L")

    monkeypatch.setattr(SpectralConfig, "random_instance", classmethod(refuse))
    assert cli.main(["spectrum", "--L", "300000"]) == cli.EXIT_CAPACITY
    assert "capacity" in capsys.readouterr().err


def test_dense_cap_is_twelve_sites(monkeypatch, capsys):
    # L = 12 loads and echoes the cap; L = 13 exits 3 before anything is drawn
    cfg = cli.load_config(None, {"L": 12, "n": 1})
    assert cfg.L == 12 and cli._config_echo(cfg)["max_dense_L"] == 12

    def refuse(*args, **kwargs):
        raise AssertionError("random_instance called for an over-capacity L")

    monkeypatch.setattr(SpectralConfig, "random_instance", classmethod(refuse))
    assert cli.main(["spectrum", "--L", "13"]) == cli.EXIT_CAPACITY
    assert "lattice length 13 exceeds the dense capacity cap 12\n" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv,named", [
    (["all", "--L", "3", "--n", "0"], ["omega-extract", "omega-eigk", "omega-compare", "n >= 1"]),
    (["all", "--L", "2", "--n", "1"], ["reduce, dwbc-upsilon", "L >= 3"]),
    (["all", "--L", "1", "--n", "0"], ["omega-compare, reduce need n >= 1",
                                       "reduce, dwbc-upsilon need L >= 3"]),
    (["omega", "extract", "--L", "4", "--n", "0"], ["omega-extract need n >= 1"]),
    (["reduce", "--L", "2", "--n", "2"], ["reduce need L >= 3"]),
    (["dwbc", "upsilon", "--L", "2"], ["dwbc-upsilon need L >= 3"]),
])
def test_unsupported_shapes_exit_before_any_artifact(argv, named, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("artifact built for a run that must be rejected")

    for name in ("spectrum", "check_fz_residual"):
        monkeypatch.setattr(suites, name, refuse)
    monkeypatch.setattr(suites.ybcore, "monodromies", refuse)
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "unsupported shape" in err
    for text in named:
        assert text in err


def test_all_report_carries_artifact_times(capsys):
    assert cli.main(["all", "--L", "3", "--n", "1", "--json"]) == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert set(report["artifacts"]) == {"eigs", "fits", "family", "lam_bars", "eigk", "zbar"}


@pytest.mark.parametrize("data,field", [({"tol": True}, "tol"),
                                        ({"L": 2, "mu": [0.1, True]}, "mu"),
                                        ({"gamma": {"re": True, "im": 0.2}}, "gamma")])
def test_boolean_numbers_are_rejected_with_the_field_named(data, field, tmp_path, capsys):
    # JSON true is not the number 1: {"tol": true} would run with tol = 1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        cli.load_config(str(path), {})
    assert info.value.field == field
    assert cli.main(["spectrum", "--config", str(path)]) == cli.EXIT_USAGE
    assert f"config field '{field}'" in capsys.readouterr().err


def test_seeded_instance_is_drawn_only_for_unpinned_fields(tmp_path, monkeypatch):
    # a file pinning gamma and mu, as the benchmark writes it, draws nothing
    # and loads the instance it was written from; one pinning neither loads
    # the seeded instance itself
    ref = SpectralConfig.random_instance(5, 2, seed=7)
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({
        "L": 5, "n": 2, "seed": 7, "gamma": {"re": ref.gamma.real, "im": ref.gamma.imag},
        "mu": [{"re": m.real, "im": m.imag} for m in ref.mu]}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"L": 5, "n": 2, "seed": 7}))
    calls = []
    original = SpectralConfig.random_instance.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(SpectralConfig, "random_instance", classmethod(counted))
    assert cli.load_config(str(pinned), {}) == ref and calls == []
    assert cli.load_config(str(bare), {}) == ref and len(calls) == 1
    # a flag pinning gamma still draws mu from the seed
    cfg = cli.load_config(str(bare), {"gamma": 0.3 + 0.2j})
    assert cfg.gamma == 0.3 + 0.2j and cfg.mu == ref.mu and len(calls) == 2


def test_margin_is_decades_of_headroom_and_null_at_zero_residual():
    checks = [CheckRecord("passes", 1e-12, 1e-9, True, 0.0),
              CheckRecord("fails", 1e-7, 1e-9, False, 0.0),
              CheckRecord("exact", 0.0, 1e-9, True, 0.0)]
    margins = [c.as_dict()["margin_dec"] for c in checks]
    assert margins[0] == pytest.approx(3.0)
    assert margins[1] == pytest.approx(-2.0)
    assert margins[2] is None
    report = cli.RunReport("spectrum", {}, checks)
    assert "Infinity" not in report.to_json()
    table = io.StringIO()
    cli._print_table(report, table)
    rows = table.getvalue().splitlines()
    assert "margin" in rows[1]
    assert [row.split()[3] for row in rows[2:5]] == ["+3.0", "-2.0", "-"]
