"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each leafatlas module with spans
and counters; nothing inside the package is instrumented. A function is
reached through its defining module (`importlib.import_module`, because the
package attribute `leafatlas.atlas` is the function `atlas`, not the module)
and every module-level binding of it inside the package is replaced, because
`from .rootsys import ...` gives `atlas`, `satake` and `cli` their own names
for the same object. `restore` puts every original binding back.

A span's self time is its duration minus the time covered by its child
spans. A generator function is timed across the `next` calls that produce its
items, so the time spent by its consumer between items is not counted.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (module, attribute path) of every traced function; the metric key is
# "<module>.<last path component>".
TARGETS: tuple[tuple[str, str], ...] = (
    ("rootsys", "build_root_system"),
    ("rootsys", "enumerate_weyl"),
    ("rootsys", "longest_element"),
    ("rootsys", "multiply"),
    ("rootsys", "length"),
    ("satake", "validate"),
    ("satake", "real_form_data"),
    ("satake", "tau_star_matrix"),
    ("satake", "w_b_element"),
    ("atlas", "atlas"),
    ("atlas", "twisted_involutions"),
    ("atlas", "orbit_class"),
    ("atlas", "open_leaf_test"),
    ("matrixlie", "realization"),
    ("matrixlie", "MatrixRealForm.Ad_matrix"),
    ("matrixlie", "pi_U_at"),
    ("matrixlie", "pi_0_at"),
    ("matrixlie", "iwasawa"),
    ("matrixlie", "g_act"),
    ("matrixlie", "chart_bivector"),
    ("matrixlie", "jacobi_check"),
    ("matrixlie", "multiplicativity_residual"),
    ("matrixlie", "t_invariance_residual"),
    ("matrixlie", "max_sampled_rank"),
    ("matrixlie", "stabilizer_dim"),
    ("matrixlie", "annihilator_check"),
    ("matrixlie", "leaf_tangency_check"),
    ("matrixlie", "hermitian_fit"),
    ("matrixlie", "cartan_consistency"),
    ("matrixlie", "representative_for"),
    ("matrixlie", "induced_weyl_matrix"),
    ("cli", "run_verify_battery"),
    ("cli", "atlas_document"),
    ("cli", "_json_dumps"),
    ("cli", "atlas_markdown"),
)

KEYS = tuple(f"{mod}.{path.rsplit('.', 1)[-1]}" for mod, path in TARGETS)
WRITERS = ("cli._json_dumps", "cli.atlas_markdown")
PACKAGE = "leafatlas"


class Tracer:
    """Spans and counters for the functions in TARGETS, kept in memory."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.items: Counter[str] = Counter()  # values yielded by generators
        self.found: Counter[str] = Counter()  # calls returning something other than None
        self.writer_bytes = 0
        # time covered by child spans, one entry per open span; index 0 is
        # the root, which no span owns
        self._child_ns = [0]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _close(self, key: str, start: int) -> None:
        duration = time.perf_counter_ns() - start
        self.self_ns[key] += duration - self._child_ns.pop()
        self._child_ns[-1] += duration

    def _wrap(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[key] += 1
                inner = fn(*args, **kwargs)
                while True:
                    self._child_ns.append(0)
                    start = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(key, start)
                    self.items[key] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            self._child_ns.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(key, start)
            if result is not None:
                self.found[key] += 1
            if key in WRITERS:
                self.writer_bytes += len(result.encode("utf-8"))
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target in place; returns self."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for (mod_name, path), key in zip(TARGETS, KEYS):
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:  # gone from the program: its metrics stay 0
                continue
            wrapper = self._wrap(key, original)
            if inspect.isclass(owner):
                self._rebind(owner, name, original, wrapper)
                continue
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)
        return self

    def _rebind(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every binding that install replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values: calls and self seconds per target, plus counters."""
        out: dict[str, float] = {}
        for key in KEYS:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_ns[key] / 1e9
        visited = self.items["rootsys.enumerate_weyl"]
        out["rootsys.enumerate_weyl.elements"] = visited
        out["atlas.twisted_involutions.hit_ratio"] = _ratio(
            self.items["atlas.twisted_involutions"], visited)
        out["matrixlie.representative_for.found_ratio"] = _ratio(
            self.found["matrixlie.representative_for"],
            self.calls["matrixlie.representative_for"])
        out["cli.writers.bytes"] = self.writer_bytes
        return out


def _package_modules() -> list[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
