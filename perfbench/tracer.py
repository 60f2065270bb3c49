"""Benchmark-owned span tracer for the repro package.

The tracer wraps the public callables of each layer (``domain``, ``sketch``,
``core``, ``api``, ``continual``, ``queries``, ``io``, ``ingest``, ``serve``)
at the names their callers look up, records one span per call and keeps
running totals per span name.  Nothing under ``src/`` is edited: wrapping
replaces class attributes and module globals in the running process only,
and :meth:`Tracer.uninstall` puts the originals back.

A span is ``(id, parent_id, name, start_ns, end_ns, thread_id, op_id)``.
Self time is a span's duration minus the time covered by its direct child
spans on the same thread.  Raw spans are kept in memory up to
``Tracer.MAX_SPANS`` (later ones only feed the totals) and written out with
:meth:`Tracer.dump`.

Untraced runs never import this module's :func:`install` path, so they run
the program exactly as shipped; :func:`installed_targets` lets a check
confirm that.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

__all__ = ["TARGETS", "Tracer", "installed_targets"]

_MARK = "_perfbench_span"


def _len_arg(index):
    """Count function: ``len`` of positional argument ``index`` (0 is self)."""

    def count(args, kwargs, result):
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 0

    return count


def _frontier(args, kwargs, result):
    """Cells grown below ``L*``: tree size minus the complete exact levels."""
    cutoff = kwargs.get("level_cutoff", args[3] if len(args) > 3 else 0)
    return len(result) - ((1 << (cutoff + 1)) - 1)


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(result) if result is not None else 0


def _sample_points(args, kwargs, result):
    return len(result)


# (module, attribute path, span name, {stat: count function}).
# ``Domain.locate_batch`` itself is left alone: every concrete domain
# overrides it and only falls back to it through ``super()``, which would
# count the same items twice.
# Paths name the place callers look the callable up: a class attribute, or a
# module global imported by name (``grow_partition`` in both summarizers,
# the consistency helpers in ``core.partition``, the checkpoint helpers in
# the ingest worker and the background writer).
TARGETS = [
    ("repro.domain.interval", "UnitInterval.locate_batch", "domain.locate_batch",
     {"items": _len_arg(1)}),
    ("repro.domain.hypercube", "Hypercube.locate_batch", "domain.locate_batch",
     {"items": _len_arg(1)}),
    ("repro.domain.geo", "GeoDomain.locate_batch", "domain.locate_batch", {"items": _len_arg(1)}),
    ("repro.domain.ipv4", "IPv4Domain.locate_batch", "domain.locate_batch",
     {"items": _len_arg(1)}),
    ("repro.domain.discrete", "DiscreteDomain.locate_batch", "domain.locate_batch",
     {"items": _len_arg(1)}),
    ("repro.sketch.countmin", "CountMinSketch.update_batch", "sketch.update_batch",
     {"keys": _len_arg(1)}),
    ("repro.continual.sketch", "ContinualPrivateCountMinSketch.update_batch",
     "sketch.update_batch", {"keys": _len_arg(1)}),
    ("repro.sketch.hashing", "HashFamily.buckets_batch", "sketch.hash", {}),
    ("repro.sketch.countmin", "CountMinSketch.query", "sketch.query", {}),
    ("repro.continual.sketch", "ContinualPrivateCountMinSketch.query", "sketch.query", {}),
    ("repro.core.privhp", "PrivHP.update_batch", "core.update_batch", {}),
    ("repro.core.tree", "PartitionTree.increment_many", "core.tree.increment_many",
     {"cells": _len_arg(1)}),
    ("repro.core.privhp", "PrivHP.release", "core.release", {}),
    ("repro.core.privhp", "grow_partition", "core.grow_partition", {"frontier": _frontier}),
    ("repro.continual.privhp", "grow_partition", "core.grow_partition", {"frontier": _frontier}),
    ("repro.core.partition", "enforce_consistency", "core.consistency", {}),
    ("repro.core.partition", "enforce_subtree_consistency", "core.consistency", {}),
    ("repro.core.sampler", "SyntheticDataGenerator.sample", "core.sample",
     {"points": _sample_points}),
    ("repro.api.builder", "PrivHPBuilder.build", "api.build", {}),
    ("repro.continual.privhp", "PrivHPContinual.update_segments", "continual.update_segments", {}),
    ("repro.continual.privhp", "PrivHPContinual.update_batch", "continual.update_segments", {}),
    ("repro.continual.counter", "BinaryMechanismCounterBank.step", "continual.counter.step", {}),
    ("repro.continual.privhp", "PrivHPContinual.snapshot", "continual.snapshot", {}),
    ("repro.queries.compiled", "CompiledLeafTable.__init__", "queries.compile", {}),
    ("repro.queries.compiled", "CompiledDescentTable.__init__", "queries.compile", {}),
    ("repro.queries.compiled", "CompiledLeafTable.mass_many", "queries.evaluate",
     {"queries": _len_arg(1)}),
    ("repro.queries.compiled", "CompiledDescentTable.descend_many", "queries.evaluate",
     {"queries": _len_arg(1)}),
    ("repro.api.release", "Release.save", "io.save", {"bytes": _saved_bytes}),
    ("repro.api.release", "Release.load", "io.load", {}),
    ("repro.ingest.partition", "save_checkpoint", "io.checkpoint", {"writes": lambda *a: 1}),
    ("repro.io.checkpoint_writer", "save_checkpoint", "io.checkpoint", {"writes": lambda *a: 1}),
    ("repro.ingest.partition", "load_checkpoint", "io.restore", {}),
    ("repro.ingest.service", "IngestService.append", "ingest.append", {}),
    ("repro.ingest.service", "IngestService.flush", "ingest.flush", {}),
    ("repro.ingest.service", "IngestService.snapshot", "ingest.snapshot", {}),
    ("repro.ingest.accounting", "MemoryLedger.touch", "ingest.ledger.touch", {}),
    ("repro.serve.http", "_QueryRequestHandler.do_POST", "serve.handler", {}),
    ("repro.serve.service", "QueryService.answer", "serve.answer", {}),
    ("repro.serve.service", "QueryService.answer_many", "serve.answer", {}),
    ("repro.serve.service", "normalize_query", "serve.normalize", {}),
    ("repro.serve.store", "ReleaseStore.get", "serve.store.get", {}),
]


def _resolve(module_name: str, path: str):
    """``(owner, attribute, raw value)`` for a target, or ``None`` if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


def installed_targets() -> list[str]:
    """``module:path`` of every target currently replaced by a span wrapper."""
    found = []
    for module_name, path, _, _ in TARGETS:
        resolved = _resolve(module_name, path)
        if resolved is None:
            continue
        raw = resolved[2]
        function = getattr(raw, "__func__", raw)
        if getattr(function, _MARK, None) is not None:
            found.append(f"{module_name}:{path}")
    return found


class Tracer:
    """Span recorder with per-name totals (calls, inclusive ns, self ns, counts)."""

    #: Raw spans kept for :meth:`dump`; later spans only feed the totals.
    MAX_SPANS = 200_000

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        #: Operation id stamped on spans that start while it is set; ``None``
        #: stamps each span with the id of its thread's outermost span.
        self.op_id: int | None = None
        #: Cleared to let wrapped calls through unrecorded (verification
        #: work between timed operations).
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget every span and total recorded so far (end of warm-up)."""
        with self._lock:
            self.spans = []
            self.dropped = 0
            self.totals = {}
            self.counts = {}

    def wrap(self, name: str, function, counters: dict):
        """``function`` wrapped to record one ``name`` span per call."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            op = tracer.op_id if tracer.op_id is not None else (
                parent[3] if parent is not None else span_id
            )
            frame = [span_id, 0, parent[0] if parent is not None else 0, op]
            stack.append(frame)
            start = time.perf_counter_ns()
            returned = False
            try:
                result = function(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                extra = {stat: count(args, kwargs, result) for stat, count in counters.items()
                         } if returned else {}
                tracer._record(
                    (span_id, frame[2], name, start, end, threading.get_ident(), op),
                    duration,
                    duration - frame[1],
                    extra,
                )

        setattr(wrapper, _MARK, name)
        return wrapper

    def _record(self, span: tuple, duration: int, self_ns: int, extra: dict) -> None:
        name = span[2]
        with self._lock:
            if len(self.spans) < self.MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0, 0]
            total[0] += 1
            total[1] += duration
            total[2] += self_ns
            for stat, value in extra.items():
                key = f"{name}.{stat}"
                self.counts[key] = self.counts.get(key, 0) + int(value)

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        """Wrap every target present in this version of the package."""
        for module_name, path, name, counters in TARGETS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner, attribute, raw = resolved
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self.wrap(name, raw.__func__, counters))
            else:
                replacement = self.wrap(name, raw, counters)
            setattr(owner, attribute, replacement)
            self._installed.append((owner, attribute, raw))
        return self

    def uninstall(self) -> None:
        """Put every original callable back, in reverse order of wrapping."""
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed = []

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Totals per span name: calls, inclusive ms, self ms, plus counts."""
        with self._lock:
            totals = {name: list(values) for name, values in self.totals.items()}
            counts = dict(self.counts)
            spans = len(self.spans)
            dropped = self.dropped
        return {
            "spans": {
                name: {"calls": calls, "ms": total_ns / 1e6, "self_ms": self_ns / 1e6}
                for name, (calls, total_ns, self_ns) in sorted(totals.items())
            },
            "counts": counts,
            "recorded_spans": spans,
            "dropped_spans": dropped,
            "missing_targets": list(self.missing),
        }

    def dump(self, path) -> None:
        """Write the summary and every kept span as JSON to ``path``."""
        with self._lock:
            spans = list(self.spans)
        document = self.summary()
        document["span_fields"] = ["id", "parent", "name", "start_ns", "end_ns", "thread", "op"]
        document["span_list"] = spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
