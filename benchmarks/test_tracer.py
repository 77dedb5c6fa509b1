"""Tests of the benchmark's outside-in tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_tracer.py``.
"""

import sys

import bpl
import bpl.functional
import bpl.suites
import bpl.ybcore
from bpl.config import SpectralConfig
from bpl.suites import run_checks

from tracer import Tracer, unwrapped_aliases

ORIGINAL_MONODROMY = bpl.ybcore.monodromy


def _residuals(records):
    return [(r.name, r.residual.hex(), r.passed) for r in records]


def test_install_leaves_no_unwrapped_alias_and_uninstall_restores():
    before = unwrapped_aliases()
    assert "bpl.functional.monodromy" in before
    assert "bpl.suites.<table>.spectrum" in before
    assert "bpl.functional.FnSampler.value" in before
    with Tracer():
        assert unwrapped_aliases() == []
        assert bpl.functional.monodromy is bpl.ybcore.monodromy
        assert bpl.ybcore.monodromy is not ORIGINAL_MONODROMY
    assert unwrapped_aliases() == before
    assert bpl.functional.monodromy is ORIGINAL_MONODROMY


def test_monodromy_calls_match_an_independent_count_and_residuals_are_unchanged():
    cfg = SpectralConfig.random_instance(3, 1, seed=5)
    untraced = run_checks("all", cfg)

    code = ORIGINAL_MONODROMY.__code__
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            entered.append(1)

    tracer = Tracer()
    tracer.run = "test"
    with tracer:
        sys.setprofile(profile)
        try:
            traced = run_checks("all", cfg)
        finally:
            sys.setprofile(None)

    summary = tracer.summary()
    assert summary["ybcore.monodromy.calls"] == len(entered) > 0
    assert 0 < summary["ybcore.monodromy.distinct"] <= len(entered)
    assert summary["suites.spectrum.calls"] == 1
    assert _residuals(traced) == _residuals(untraced)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, "r"], ["inner", 1.0, 4.0, 0, "r"],
                    ["inner", 5.0, 6.0, 0, "r"], ["leaf", 2.0, 3.0, 1, "r"]]
    s = tracer.summary()
    assert s["outer.s"] == 10.0 and s["outer.self_s"] == 6.0
    assert s["inner.calls"] == 2 and s["inner.s"] == 4.0 and s["inner.self_s"] == 3.0
    assert s["leaf.self_s"] == 1.0
