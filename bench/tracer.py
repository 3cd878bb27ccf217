"""Call tracing for the benchmark, installed from outside the program.

``Tracer.install`` wraps every public function of the nine ``classfield``
modules, plus ``AbHom.__post_init__``, ``AbHom.compose``,
``FiniteGroup.all_subgroups`` and ``FiniteGroup.generated_subgroup`` on
their classes.  Modules bind functions by
name at import time (``cft`` and ``mackey`` hold their own references to
``subgroup_contains``, ``element_preimage`` and others), so the wrapper is
rebound in every ``classfield.*`` namespace, and in any extra namespace
given, that holds the original object.  ``uninstall`` restores every
original binding.

Hot functions are aggregated in memory per (layer, function): calls, total
time (outermost activations only, so recursion is not counted twice) and
self time (span time minus the time of wrapped callees).  Spans are kept
only for jobs and for calls that cross from one module into another, at
most ``SPAN_CAP`` per job; the rest are counted in the job's
``spans_dropped``.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("abelian", "groups", "catalog", "transfer", "ramification",
          "mackey", "cft", "hrv", "cli")
METHODS = (("abelian", "AbHom", "__post_init__"),
           ("abelian", "AbHom", "compose"),
           ("groups", "FiniteGroup", "all_subgroups"),
           ("groups", "FiniteGroup", "generated_subgroup"))
BENCH = "bench"
SPAN_CAP = 500          # spans kept per job
ORACLE_RATE = 1 / 8     # share of new smith_decompose inputs sampled
ORACLE_PER_JOB = 4      # at most this many oracle samples per job


class Stat:
    __slots__ = ("calls", "total", "self_time", "active", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0
        self.errors = Counter()

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "errors": dict(self.errors)}

    def merge(self, data: dict):
        self.calls += data["calls"]
        self.total += data["total_s"]
        self.self_time += data["self_s"]
        self.errors.update(data["errors"])


def _public_callables(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self, seed: int = 0):
        self.stats: dict[tuple[str, str], Stat] = {}
        self.counters = Counter()
        self.spans: list[dict] = []
        self._stack: list[list] = []   # [layer, child_time, span_id]
        self._next_span = 0
        self._budget = 0
        self._dropped = 0
        self._job = None
        self._undo: list[tuple] = []
        # smith_decompose inputs: repeat detection and oracle sampling
        self._seen_snf: set = set()
        self._oracle_rng = random.Random(f"oracle:{seed}")
        self.oracle_samples: list = []

    # -- installation -----------------------------------------------------

    def install(self, namespaces=()):
        """Wrap and rebind every alias; ``namespaces`` are extra dicts."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"classfield.{layer}")
            for name, obj in _public_callables(module):
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        targets = [vars(m) for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "classfield"
                                         or n.startswith("classfield."))]
        targets.extend(namespaces)
        for ns in targets:
            for name, obj in list(ns.items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    ns[name] = entry[1]
                    self._undo.append((ns, name, obj))
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"classfield.{layer}"),
                          cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(layer, f"{cls_name}.{attr}",
                                          original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._undo.clear()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault((layer, name), Stat())
        stack = self._stack
        clock = time.perf_counter
        after = {"smith_decompose": self._after_snf,
                 "stack_roundtrip": self._after_sampler,
                 "valuation_axiom_sampler": self._after_sampler}.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1] if stack else None
            span = None
            if top is None or top[0] != layer:
                span = tracer._new_span()
            frame = [layer, 0.0, span or (top[2] if top else None)]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_time += elapsed - frame[1]
                if not stat.active:
                    stat.total += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if span is not None:
                    tracer._close_span(span, top, layer, name, start,
                                       start + elapsed)
            if after is not None:
                after(args, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _after_snf(self, args, result):
        key = tuple(tuple(row) for row in args[0])
        if key in self._seen_snf:
            self.counters["abelian.smith_decompose.repeats"] += 1
            return
        self._seen_snf.add(key)
        if (self._job is not None
                and self._job["oracle"] < ORACLE_PER_JOB
                and self._oracle_rng.random() < ORACLE_RATE):
            self._job["oracle"] += 1
            self.oracle_samples.append((self._job["id"], key, result))

    def _after_sampler(self, _args, report):
        self.counters["hrv.samples.sampled"] += report.samples
        self.counters["hrv.samples.skipped"] += report.skipped

    # -- spans ------------------------------------------------------------

    def _new_span(self) -> int | None:
        if self._budget <= 0:
            self._dropped += 1
            return None
        self._budget -= 1
        self._next_span += 1
        return self._next_span

    def _close_span(self, span, parent_frame, layer, name, start, end):
        self.spans.append({
            "job": self._job["id"] if self._job else None, "id": span,
            "parent": parent_frame[2] if parent_frame else None,
            "caller": parent_frame[0] if parent_frame else None,
            "layer": layer, "fn": name, "start": start, "end": end})

    def begin_job(self, job_id, label: str):
        span = self._next_span = self._next_span + 1
        self._budget = SPAN_CAP
        self._dropped = 0
        self._job = {"id": job_id, "label": label, "span": span,
                     "start": time.perf_counter(), "oracle": 0}
        self._stack.append([BENCH, 0.0, span])

    def end_job(self):
        frame = self._stack.pop()
        job, end = self._job, time.perf_counter()
        self.spans.append({
            "job": job["id"], "id": job["span"], "parent": None,
            "caller": None, "layer": BENCH, "fn": job["label"],
            "start": job["start"], "end": end,
            "self_s": end - job["start"] - frame[1],
            "spans_dropped": self._dropped})
        self._job = None
        self._budget = 0

    # -- results ----------------------------------------------------------

    def aggregates(self) -> dict:
        return {"stats": {f"{layer}.{name}": s.to_json()
                          for (layer, name), s in sorted(self.stats.items())
                          if s.calls},
                "counters": dict(self.counters)}

    def merge(self, aggregates: dict):
        """Add aggregates written by a traced child process."""
        for key, data in aggregates["stats"].items():
            layer, name = key.split(".", 1)
            self.stats.setdefault((layer, name), Stat()).merge(data)
        self.counters.update(aggregates["counters"])

    def write(self, directory: Path, extra: dict | None = None):
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.jsonl", "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        data = self.aggregates()
        data.update(extra or {})
        (directory / "aggregates.json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")


def check_snf(matrix, decomposition) -> str | None:
    """Independent check of one Smith decomposition; None when it holds.

    ``left @ M @ right`` must be diagonal with the decomposition's diagonal,
    and the diagonal must equal sympy's Smith normal form over ZZ.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if not rows or not cols:
        return None

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    product = mul(mul(decomposition.left, [list(r) for r in matrix]),
                  decomposition.right)
    diagonal = list(decomposition.diagonal)
    for i in range(rows):
        for j in range(cols):
            want = diagonal[i] if i == j else 0
            if product[i][j] != want:
                return f"left*M*right differs from the diagonal at ({i},{j})"
    snf = smith_normal_form(Matrix(matrix), domain=ZZ)
    expected = [abs(int(snf[i, i])) for i in range(min(rows, cols))]
    if [abs(d) for d in diagonal] != expected:
        return f"invariant factors {diagonal} != sympy {expected}"
    return None
