"""Layer tracing from the outside: wrap public functions, record spans.

A ``Tracer`` replaces each listed function at every ``bosonic`` module
attribute that holds it -- the name its caller looks up -- with a wrapper
that appends a span (name, start, end, parent, operation id) to an
in-memory list.  Nothing inside ``src/`` changes.  Self time is a span's
duration minus the time covered by its direct children; calls are
synchronous, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

#: layer -> public functions wrapped in that layer's module
LAYER_FUNCTIONS = {
    "states": ("require_valid", "validate_state"),
    "spectral": ("entropy_variance_pure_loss",),
    "tail": ("cutoff_for_error", "trace_distance_truncation_bound"),
    "fock": ("fock_matrix_elements", "truncate_normalize"),
    "tracedist": ("gaussian_trace_distance", "finite_trace_distance"),
    "capacity": (
        "aep_lower_bound_pure_loss",
        "aep_lower_bound_amplifier",
        "improved_lower_bound_pure_loss",
        "ec_aep_lower_bound",
        "ec_variance_lower_bound",
        "best_lower_bound",
        "upper_bound_nshot",
        "asymptotic_capacity",
        "ec_asymptotic",
        "channel_uses_sufficient",
        "channel_uses_necessary",
        "invert_sqrt_bound",
    ),
}

#: the span the benchmark opens around one in-process CLI call
CLI_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


class Tracer:
    """Collects spans while installed; ``hooks`` see each wrapped result."""

    def __init__(self, hooks=None):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._hooks = hooks or {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bosonic" or name.startswith("bosonic."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"bosonic.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue  # the program no longer has it: reports 0 calls
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- spans

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, tuple[int, float]] = {}
        for span, covered in zip(self.spans, child_time):
            calls, seconds = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, seconds + (span.end - span.start) - covered)
        return out


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self):
        self._index = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._index)


def span_names() -> list[str]:
    """Every wrapped function name, as ``<layer>.<function>``."""
    return [CLI_SPAN] + [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]
