"""Spans around the package's public functions, recorded from outside ``src/``.

Each target is a module attribute the program calls through, such as
``spectralcf.training.sample_batch`` (called by ``training.train``) or
``spectralcf.cli.load_checkpoint`` (the name ``cli`` imported). Replacing the
attribute with a timing wrapper leaves the program's control flow unchanged.
A span is named after the function it times (``model.forward`` whether it is
reached through ``model`` or ``training``). A target that a later change
removes or renames is skipped: its span goes missing and nothing fails.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) pairs, at the names the program calls through.
TARGETS = [
    ("data", "parse_interactions"),
    ("data", "to_implicit"),
    ("data", "split_standard"),
    ("data", "split_cold_start"),
    ("data", "_repair_isolated_items"),
    ("data", "save_split"),
    ("data", "load_split"),
    ("graph", "build_graph"),
    ("graph", "eigendecompose"),
    ("graph", "conv_kernel"),
    ("graph", "save_basis"),
    ("graph", "load_basis"),
    ("graph", "spectral_coordinates"),
    ("model", "forward"),
    ("training", "train"),
    ("training", "sample_batch"),
    ("training", "forward"),
    ("training", "bpr_loss"),
    ("training", "backward"),
    ("training", "rmsprop_step"),
    ("baselines", "fit_bpr_mf"),
    ("baselines", "sample_batch"),
    ("baselines", "bpr_mf_loss"),
    ("baselines", "_mf_gradients"),
    ("baselines", "rmsprop_step"),
    ("evaluation", "evaluate"),
    ("evaluation", "save_report"),
    ("cli", "save_checkpoint"),
    ("cli", "load_checkpoint"),
]


def _kernel_nnz(kernel) -> int:
    matrix = kernel.matrix
    nnz = getattr(matrix, "nnz", None)
    return int(np.count_nonzero(matrix) if nnz is None else nnz)


class Tracer:
    """Keeps spans in memory; ``write`` dumps them as JSON lines."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._count_s = 0.0  # time spent reading kernel sizes

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if name == "graph.conv_kernel":
                # The kernel's size, counted outside the span.
                t0 = time.perf_counter()
                try:
                    record["nnz"] = _kernel_nnz(result)
                except (AttributeError, TypeError, ValueError):
                    pass
                self._count_s += time.perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr in TARGETS:
            try:
                module = importlib.import_module(f"spectralcf.{mod_name}")
            except ImportError:
                continue
            func = getattr(module, attr, None)
            if not callable(func):
                continue
            name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    def cost(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Time the tracer added: its spans times the measured cost of one call
        through a wrapper (best of ``repeats``), plus reading kernel sizes."""

        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "noop")
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            per_call.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        return len(self.spans) * min(per_call) + self._count_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}
