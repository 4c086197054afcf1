"""Layer tracing for the benchmark, installed from outside the package.

Each traced function is replaced, in every vectorlight module that binds
it, by a wrapper that records a span: its call count, its inclusive busy
time and its self time (busy time not covered by other traced spans).  The
wrappers use ``functools.wraps``, so ``inspect.signature`` still sees the
original parameters; ``vectorlight.scan`` relies on that to hand the
per-chunk sample cache to observables.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (module, function) pairs wrapped wherever a vectorlight module binds them
FUNCTIONS = (
    ("beams", "field_sample_upto"),
    ("coupling", "relative_strength"),
    ("coupling", "strength_gradient"),
    ("coupling", "averaged_strength"),
    ("coupling", "averaged_strength_rms"),
    ("special", "clebsch_gordan"),
    ("motion", "sideband_strength_at"),
    ("scan", "run_scans"),
    ("cli", "load_map_csv"),
    ("cli", "main"),
)

# observable classes whose evaluate method is a scan-layer span
OBSERVABLES = ("FieldComponentObservable", "TransitionObservable",
               "SidebandObservable")

# spans whose inner calls are counted by name (see Tracer.inner_calls)
NESTED = ("scan.run_scans", "cli.point")


def _span_name(module: str, func: str, args, kwargs) -> str:
    if func == "field_sample_upto":
        order = args[2] if len(args) > 2 else kwargs["order"]
        return f"beams.field_sample_upto.o{order}"
    if func == "main":
        argv = args[0] if args else kwargs["argv"]
        return f"cli.{argv[0]}"
    return f"{module}.{func}"


class Tracer:
    """Span statistics for one traced stretch of a run."""

    def __init__(self):
        self.calls = Counter()
        # counts recorded by the benchmark itself, such as bytes written
        self.counts = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        # nested[a][b]: calls of span b made while span a (in NESTED) ran
        self.nested = {}
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str):
        before = self.calls.copy() if name in NESTED else None
        self._stack.append([name, time.perf_counter(), 0.0, before])

    def _exit(self):
        name, start, child, before = self._stack.pop()
        dur = time.perf_counter() - start
        if before is not None:
            self.nested.setdefault(name, Counter()).update(self.calls - before)
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if not any(frame[0] == name for frame in self._stack):
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, module: str, func: str, orig):
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            self._enter(_span_name(module, func, args, kwargs))
            try:
                return orig(*args, **kwargs)
            finally:
                self._exit()
        return traced

    # ------------------------------------------------------ installation

    def install(self) -> None:
        """Wrap every traced name in every loaded vectorlight module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import vectorlight.cli  # noqa: F401  (binds names to wrap)
        import vectorlight.scan as scan_mod

        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "vectorlight"
                                      or name.startswith("vectorlight."))]
        for home, func in FUNCTIONS:
            orig = getattr(sys.modules[f"vectorlight.{home}"], func)
            wrapper = self._wrap(home, func, orig)
            for mod in mods:
                if mod.__dict__.get(func) is orig:
                    self._restore.append((mod, func, orig))
                    setattr(mod, func, wrapper)
        for cls_name in OBSERVABLES:
            cls = getattr(scan_mod, cls_name)
            orig = cls.__dict__["evaluate"]
            self._restore.append((cls, "evaluate", orig))
            setattr(cls, "evaluate", self._wrap("scan", "evaluate", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the block untraced, e.g. an output check that calls the package."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---------------------------------------------------------- queries

    def inner_calls(self, outer: str, prefix: str) -> int:
        """Calls of spans named `prefix`* made inside spans named `outer`,
        which must be one of NESTED."""
        inner = self.nested.get(outer, Counter())
        return sum(n for name, n in inner.items() if name.startswith(prefix))
