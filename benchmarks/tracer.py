"""Outside-in span tracing of the ``bpl`` layers.

The tracer wraps a fixed set of public functions of each ``bpl`` module
without touching the package source.  ``bpl`` imports functions by name
(``from .ybcore import monodromy`` in ``functional``, ``dwbc``, ...), and the
suites are reached through the ``SUITES`` table, so wrapping one module
attribute would miss most calls.  :meth:`Tracer.install` therefore rebinds
every attribute of every loaded ``bpl.*`` module, and every module-level
table entry, that holds a traced function; :func:`unwrapped_aliases` is the
check that none is left.

Spans are kept in memory as ``[name, start, end, parent, run]`` rows and
written out by the caller when the run ends.  Self time is computed from
child coverage afterwards, so no layer number depends on the wall times the
suites store in their check records.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: Traced functions per layer: ``module -> names``; ``Class.method`` names a
#: method.  Every entry of ``suites.SUITES`` is traced as ``suites.<suite>``.
TRACED = {
    "ybcore": ["monodromy", "transfer", "spectrum", "check_ybe", "check_rtt",
               "check_off_relations"],
    "functional": ["FnSampler.value", "check_fz_residual", "extract_fbar",
                   "lambda_bar_coefficients"],
    "omega": ["build_lbar", "extract_omegas", "check_eigk"],
    "closedform": ["eval_v", "eval_q", "pde_coefficients", "closedform_residual",
                   "closedform_operator", "compare_omega_closedform",
                   "special_solutions"],
    "reduction": ["spectral_reduction", "upsilon_residual"],
    "dwbc": ["dwbc_partition", "dwbc_configuration_sum", "extract_zbar",
             "dwbc_pde_residual", "dwbc_upsilon_residual"],
    "polyengine": ["tensor_interpolate", "MultiPoly.eval_many"],
}

LAYERS = tuple(TRACED) + ("suites",)

#: Complex entries of one monodromy block pair (A, B, C, D) at 16 bytes each.
_BLOCKS = 4
_COMPLEX_BYTES = 16


def _bpl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bpl" or name.startswith("bpl."))]


def _slots(module):
    """(container, key, value) for every place of a module that can hold a
    function: its attributes, the entries of its module-level dicts and the
    attributes of the classes it defines."""
    for key, value in list(vars(module).items()):
        yield vars(module), key, value
        if isinstance(value, dict):
            for k, v in list(value.items()):
                yield value, k, v
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for k, v in list(vars(value).items()):
                yield value, k, v


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _original(fn):
    return fn.__wrapped__ if getattr(fn, "_bench_traced", False) else fn


def _originals() -> dict[int, tuple[str, object]]:
    """``{id(original): (span name, original)}`` for every traced function and
    method, plus every suite in ``SUITES``, whether or not a tracer is
    installed."""
    import bpl.suites

    out = {}
    for layer, names in TRACED.items():
        for name in names:
            fn = _original(functools.reduce(getattr, name.split("."), sys.modules[f"bpl.{layer}"]))
            out[id(fn)] = (f"{layer}.{name}", fn)
    for suite, fn in bpl.suites.SUITES.items():
        fn = _original(fn)
        out[id(fn)] = (f"suites.{suite}", fn)
    return out


def unwrapped_aliases() -> list[str]:
    """Places in ``bpl`` modules that still hold a traced function unwrapped.
    Empty while a tracer is installed."""
    originals = _originals()
    return [f"{module.__name__}.{getattr(container, '__name__', '<table>')}.{key}"
            if container is not vars(module) else f"{module.__name__}.{key}"
            for module in _bpl_modules()
            for container, key, value in _slots(module) if id(value) in originals]


class Tracer:
    """In-memory span recorder with alias-complete installation.

    Use as a context manager: ``with Tracer() as tr: ...``; set :attr:`run`
    to label the spans of each pass.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = ""
        self.rapidities: dict[str, set] = defaultdict(set)
        self.cond_max: dict[str, float] = defaultdict(float)
        self.bytes_computed: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        """Rebind every place that holds a traced function to its wrapper."""
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in _originals().items()}
        for module in _bpl_modules():
            for container, key, value in _slots(module):
                if id(value) in wrappers:
                    _set(container, key, wrappers[id(value)])
                    self._undo.append((container, key, value))

    def uninstall(self):
        for container, key, value in reversed(self._undo):
            _set(container, key, value)
        self._undo.clear()

    # -- recording ---------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            row = [name, time.perf_counter(), 0.0, parent, self.run]
            self.spans.append(row)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                row[2] = time.perf_counter()
            if observe is not None:
                observe(args, result)
            return result

        traced._bench_traced = True
        return traced

    def _observer(self, name: str):
        """Per-function counters read from arguments or results."""
        if name == "ybcore.monodromy":
            def observe(args, result):
                lam, cfg = args[0], args[1]
                self.rapidities[name].add((complex(lam), cfg))
                self.bytes_computed[name] += _BLOCKS * 4**cfg.L * _COMPLEX_BYTES
            return observe
        if name == "functional.extract_fbar":
            def observe(args, result):
                self.cond_max[name] = max(self.cond_max[name], result.grid_condition)
            return observe
        if name == "dwbc.extract_zbar":
            def observe(args, result):
                self.cond_max[name] = max(self.cond_max[name], result.fit.grid_condition)
            return observe
        return None

    def reset(self):
        self.spans.clear()
        self.rapidities.clear()
        self.cond_max.clear()
        self.bytes_computed.clear()

    # -- summaries ---------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name ``calls``, inclusive ``s`` and ``self_s``, per-layer
        ``self_s``, and the derived monodromy and fit figures."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
            layer_self[name.split(".")[0]] += end - start - child[i]
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        mono = "ybcore.monodromy"
        n_calls = calls[mono]
        distinct = len(self.rapidities[mono])
        out[f"{mono}.distinct"] = distinct
        out[f"{mono}.reuse_frac"] = 1.0 - distinct / n_calls if n_calls else 0.0
        out[f"{mono}.bytes_computed"] = self.bytes_computed[mono]
        for name, value in self.cond_max.items():
            out[f"{name}.cond_max"] = value
        return out
