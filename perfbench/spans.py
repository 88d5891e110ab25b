"""Spans around calls into the public functions of struveint's layers.

The package is left untouched: ``Tracer.install`` replaces each traced
function with a wrapper in every ``struveint`` module that bound it (callers
use ``from .integrals import F`` and the like, so patching the defining
module alone would miss most calls), and ``uninstall`` puts the originals
back.  ScaledReal operations are patched on the class.

Each span records (name, start, end, parent).  A span's self time is its
duration minus the time covered by its child spans.  Spans of the first traced
pass are kept in memory and written out once at the end; calls and self time
are aggregated for every traced pass.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

from struveint import bounds, cli, harness, integrals, scaled, specfun
from struveint.errors import ConvergenceError

# bound targets whose reference is an F value; G_INTEGRAL is the G group and
# every ratio/product/monotonicity bound is a kernel bound
_F_TARGETS = ("F-integral", "K-weighted-integral")

# (module, attribute, span name) for every plain function that is traced
_FUNCTIONS = (
    (specfun, "struve_l_scaled", "specfun.struve_l_scaled"),
    (specfun, "bessel_i_scaled", "specfun.bessel_i_scaled"),
    (specfun, "bessel_k_scaled", "specfun.bessel_k_scaled"),
    (specfun, "lower_incomplete_gamma_log", "specfun.lower_incomplete_gamma_log"),
    (specfun, "log_gamma", "specfun.log_gamma"),
    (specfun, "pfq", "specfun.pfq"),
    (integrals, "integral_series", "integrals.series"),
    (integrals, "integral_beta0", "integrals.beta0"),
    (integrals, "integral_beta1", "integrals.beta1"),
    (harness, "verify_all", "harness.verify_all"),
    (harness, "margins_csv", "harness.margins_csv"),
    (harness, "reproduce_table", "harness.reproduce_table"),
    (harness, "asymptotic_check", "harness.asymptotic_check"),
    (cli, "main", "cli.main"),
)

# ScaledReal methods: (attribute, span name)
_METHODS = (
    ("__add__", "scaled.add"),
    ("__mul__", "scaled.mul"),
    ("ratio_to", "scaled.ratio_to"),
)

# span names whose per-pass self time and call count are reported
SPAN_NAMES = (
    "scaled.from_log", "scaled.add", "scaled.mul", "scaled.ratio_to",
    *(name for _, _, name in _FUNCTIONS[:9]),
    "integrals.quad_F", "integrals.quad_G",
    "bounds.check.F", "bounds.check.G", "bounds.check.kernel",
    *(name for _, _, name in _FUNCTIONS[9:]),
)

# lru caches behind the traced functions: metric prefix -> cached function
CACHES = {
    "specfun.struve_l_scaled": specfun._struve_l_raw,
    "specfun.bessel_i_scaled": specfun._bessel_i_raw,
    "specfun.bessel_k_scaled": specfun._bessel_k_scaled_log,
    "bounds.f_reference": bounds._f_reference,
    "bounds.g_reference": bounds._g_reference,
}

# counters kept beside the spans
COUNTERS = ("integrals.quad_F.nodes", "integrals.quad_G.nodes", "integrals.series.fallbacks")


def _struveint_modules():
    return [m for n, m in list(sys.modules.items()) if n == "struveint" or n.startswith("struveint.")]


def rebind(old, new) -> list[tuple[object, str]]:
    """Point every struveint module attribute bound to ``old`` at ``new``."""
    done = []
    for module in _struveint_modules():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                done.append((module, attr))
    return done


class Tracer:
    """Records spans while installed; aggregates per traced pass."""

    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._stack: list[list] = []
        self._keep_spans = True
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo: list = []
        self.reset_pass()

    # -- pass bookkeeping ---------------------------------------------------

    def reset_pass(self) -> None:
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def end_pass(self) -> dict[str, float]:
        """Per-layer figures of the pass just run."""
        self._keep_spans = False
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = float(self.calls[i])
            out[f"{name}.self_s"] = self.self_s[i]
        for prefix, fn in CACHES.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out.update({k: float(v) for k, v in self.counters.items()})
        return out

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name_of, after=None, failed=None):
        """Wrap ``fn``; ``name_of(args, kwargs)`` gives the span's name id.

        ``after(name_id, result)`` and ``failed(name_id, exc)`` run inside the
        span on return and on an exception.
        """
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name_id = name_of(args, kwargs)
            frame = [0.0, -1]  # [time covered by child spans, span index]
            if self._keep_spans:
                frame[1] = len(self.span_start)
                self.span_name.append(name_id)
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(name_id, result)
                return result
            except Exception as exc:
                if failed is not None:
                    failed(name_id, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name_id] += 1
                self.self_s[name_id] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    self.span_start[frame[1]] = start
                    self.span_end[frame[1]] = end

        return wrapper

    def _fixed(self, name: str):
        name_id = self._ids[name]
        return lambda args, kwargs: name_id

    def install(self) -> None:
        """Patch every traced name; undone by ``uninstall``."""
        ids = self._ids
        cls = scaled.ScaledReal
        for attr, name in _METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, self._fixed(name)))
            self._undo.append((cls, attr, orig))
        from_log = cls.__dict__["from_log"]
        setattr(cls, "from_log", classmethod(self._wrap(from_log.__func__, self._fixed("scaled.from_log"))))
        self._undo.append((cls, "from_log", from_log))

        def fallback(name_id, exc):
            # F catches a series ConvergenceError and falls back to quadrature
            if isinstance(exc, ConvergenceError):
                self.counters["integrals.series.fallbacks"] += 1

        for module, attr, name in _FUNCTIONS:
            orig = getattr(module, attr)
            failed = fallback if name == "integrals.series" else None
            self._patch(orig, self._wrap(orig, self._fixed(name), failed=failed))

        quad_f, quad_g = ids["integrals.quad_F"], ids["integrals.quad_G"]

        def quad_name(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            return quad_f if spec.order == spec.weight_power else quad_g

        def count_nodes(name_id, result):
            self.counters[f"{SPAN_NAMES[name_id]}.nodes"] += result.node_count

        quad = integrals.integral_quad
        self._patch(quad, self._wrap(quad, quad_name, after=count_nodes))

        check = bounds.check
        groups = {}
        for spec in bounds.list_bounds():
            if spec.target.value in _F_TARGETS:
                groups[spec.bound_id] = ids["bounds.check.F"]
            elif spec.target.value == "G-integral":
                groups[spec.bound_id] = ids["bounds.check.G"]
            else:
                groups[spec.bound_id] = ids["bounds.check.kernel"]
        self._patch(
            check,
            self._wrap(check, lambda args, kwargs: groups[args[0] if args else kwargs["bound_id"]]),
        )

    def _patch(self, orig, wrapper) -> None:
        for module, attr in rebind(orig, wrapper):
            self._undo.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def write_spans(self, directory: Path, stem: str) -> Path:
        """Write the kept spans as four little-endian columns, one after the
        other, plus a JSON index naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans"
        with open(data, "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        index = {
            "spans": len(self.span_start),
            "columns": ["name:uint16", "parent:int32", "start_s:float64", "end_s:float64"],
            "names": list(SPAN_NAMES),
            "file": data.name,
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(index, indent=1) + "\n")
        return data
