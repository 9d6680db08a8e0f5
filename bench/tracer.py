"""Spans and counters recorded around calls into tasc, from outside the package.

Wrappers replace a function under the name its caller looks it up by (for
example ``tasc.engine._forward``, which ``em_pre`` and ``tasc_infer`` call),
so no file of the package changes.  In a traced run the units of work
alternate: every second unit runs with the wrappers installed, the others run
the unwrapped package, so both halves see the same machine over the same
stretch of time and their difference is the tracing overhead.  Spans are kept
in memory and written out when the run ends.  A span's self time is its
duration minus the time covered by its direct children.

The two hottest leaves, ``spd_cholesky`` and ``spd_solve`` (hundreds of
thousands of calls per placebo suite), are not recorded as spans: each call
adds to a call count and a busy time, and its duration is charged to the
enclosing span as child time, so self times stay exact.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

_RESTART_FAILED = re.compile(r"EM restart \d+ failed")
_JITTER = re.compile(r"adding .* jitter")


class Tracer:
    """Span recorder for one benchmark run.

    A finished span is ``(span_id, name, start, end, parent_id, child_s)``
    with times from ``perf_counter``; ``child_s`` is the time its direct
    children covered.
    """

    def __init__(self, run_id: str, alternate: bool = False):
        self.run_id = run_id
        self.alternate = alternate  # every second unit of work is traced
        self._units = 0
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.steps: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = False  # spans are recorded only while a traced unit runs
        self._open: list[list] = []  # [span_id, child_s] of spans still running
        self._next_id = 0
        self._patches: list[tuple] = []
        self._log_handler: logging.Handler | None = None
        self._log_level: int | None = None

    # -- recording -----------------------------------------------------------

    def _begin(self) -> tuple[int, float]:
        span_id = self._next_id
        self._next_id += 1
        self._open.append([span_id, 0.0])
        return span_id, perf_counter()

    def _end(self, name: str, span_id: int, start: float) -> None:
        end = perf_counter()
        _, child_s = self._open.pop()
        parent_id = None
        if self._open:
            parent = self._open[-1]
            parent[1] += end - start
            parent_id = parent[0]
        self.spans.append((span_id, name, start, end, parent_id, child_s))

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code, while active."""
        if not self.active:
            yield
            return
        span_id, start = self._begin()
        try:
            yield
        finally:
            self._end(name, span_id, start)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, steps=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``steps`` optionally maps the arguments to a step count added
        under the span's name.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            if steps is not None:
                tracer.steps[span_name] += steps(args, kwargs)
            span_id, start = tracer._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end(span_name, span_id, start)

        self._patch(owner, attr, traced)

    def wrap_leaf(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls and busy time."""
        fn = getattr(owner, attr)
        stats = self.leaves[name]
        stack = self._open

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stats[0] += 1
                stats[1] += took
                if stack:
                    stack[-1][1] += took

        self._patch(owner, attr, counted)

    def install_layers(self) -> None:
        """Wrap every tasc layer the per-layer metrics cover, and listen to the logger."""
        from tasc import baselines, cli, engine, evaluate, ssm

        def forward_name(args, kwargs):
            missing = kwargs.get("missing_target_from", args[3] if len(args) > 3 else None)
            return "ssm.forward" if missing is None else "ssm.forward_missing"

        self.wrap(engine, "_forward", forward_name, steps=lambda a, k: a[0].shape[1])
        self.wrap(engine, "smooth_pass", "ssm.smooth_pass", steps=lambda a, k: len(a[0]))
        self.wrap(engine, "accumulate_stats", "engine.accumulate_stats")
        self.wrap(engine, "m_step", "engine.m_step")
        self.wrap(engine, "init_params", "engine.init_params")
        self.wrap(engine, "em_pre", "engine.em_pre")
        self.wrap(ssm.StateSpaceParams, "__post_init__", "ssm.params_validate")
        self.wrap_leaf(ssm, "spd_cholesky", "numeric.spd_cholesky")
        self.wrap_leaf(ssm, "spd_solve", "numeric.spd_solve")
        self.wrap(evaluate, "tasc_infer", "engine.tasc_infer")
        self.wrap(evaluate, "sc_fit", "baselines.sc_fit")
        self.wrap(evaluate, "rsc_fit", "baselines.rsc_fit")
        self.wrap(evaluate, "simulate", "simulate.simulate")
        self.wrap(baselines, "hsvt", "baselines.hsvt")
        self.wrap(cli, "load_csv", "panel.load_csv")
        self.wrap(cli, "fit_predict", "evaluate.fit_predict")

        logger = logging.getLogger("tasc")
        self._log_level = logger.level
        self._log_handler = _EventCounter(self.counts)
        logger.addHandler(self._log_handler)
        logger.setLevel(logging.DEBUG)

    def remove_layers(self) -> None:
        """Undo every wrapper and detach the log handler, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._log_handler is not None:
            logger = logging.getLogger("tasc")
            logger.removeHandler(self._log_handler)
            logger.setLevel(self._log_level)
            self._log_handler = None

    def input_index(self, unit: int) -> int:
        """The index of the input a unit takes.

        In an alternating tracer both units of each (untraced, traced) pair
        take the same input, so the two differ only in tracing.
        """
        return unit // 2 if self.alternate else unit

    @contextmanager
    def unit(self):
        """One unit of work; yields whether it is traced.

        In an alternating tracer units 1, 3, 5, ... run with the layers
        installed and spans recorded, and units 0, 2, 4, ... run the package
        untouched.  Otherwise no unit is traced.
        """
        traced = self.alternate and self._units % 2 == 1
        self._units += 1
        if not traced:
            yield False
            return
        self.install_layers()
        self.active = True
        try:
            yield True
        finally:
            self.active = False
            self.remove_layers()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, busy time and self time per span name (leaves have no self time)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for _, name, start, end, _, child_s in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_s
        for name, (calls, busy) in self.leaves.items():
            out[name] = {"calls": calls, "busy_s": busy, "self_s": busy}
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent_id, child_s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent_id,
                            "child_s": child_s,
                        }
                    )
                    + "\n"
                )


class _EventCounter(logging.Handler):
    """Counts the tasc log records that mark failed EM restarts and added jitter."""

    def __init__(self, counts: Counter):
        super().__init__(level=logging.DEBUG)
        self._counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if _RESTART_FAILED.search(message):
            self._counts["engine.em.restart_failures"] += 1
        elif _JITTER.search(message):
            self._counts["numeric.jitter_events"] += 1
