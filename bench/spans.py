"""Spans recorded around the calls into each layer, from the benchmark's side.

Nothing under ``src/`` changes. ``install`` swaps the names that
``intentconf.chain``, ``intentconf.prompting`` and ``intentconf.harness``
imported for timed wrappers, and times garbage collections, until it
exits. A span records its name, start, end, parent span and chain id;
spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import intentconf.chain as chain_mod
import intentconf.harness as harness_mod
import intentconf.preprocess as preprocess_mod
import intentconf.prompting as prompting_mod

# Names that chain, prompting and harness call through their own module globals.
_PATCHED = (
    (chain_mod, "preprocess_reply", "preprocess.preprocess_reply"),
    (chain_mod, "evaluate", "validation.evaluate"),
    (chain_mod, "build_prompt", "prompting.build_prompt"),
    (chain_mod, "verify_alignment", "prompting.verify_alignment"),
    (chain_mod, "retrieve", "retrieval.retrieve"),
    (chain_mod, "complete", "gateway.complete"),
    (prompting_mod, "complete", "gateway.complete"),
    (harness_mod, "run_chain", "chain.run_chain"),
)

# The benchmark's own calibration loops, recorded so that self time leaves
# them out; they belong to no layer.
CALIBRATION = "bench.calibration"


class Span:
    __slots__ = ("name", "start", "end", "parent", "chain")

    def __init__(self, name: str, start: float, parent: "Span | None", chain: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.chain = chain


class Tracer:
    """Collects spans and per-call samples; safe to use from pool threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Parent for spans opened on a thread with no open span of its own:
        # the harness call that handed the work to the pool.
        self._ambient: Span | None = None
        # Garbage-collection pauses; list.append needs no lock, and taking
        # one inside a collection could block it.
        self.gc_pauses: list[float] = []
        self._gc_start = 0.0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def on_gc(self, phase: str, info: dict) -> None:
        """A ``gc.callbacks`` hook; collections never overlap, so one start time serves."""
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)

    def wrap(self, name: str, fn, observe=None, ambient: bool = False):
        """``fn`` timed as span ``name``; ``observe(args, result)`` runs after the span ends."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._ambient
            chain = parent.chain if parent else ""
            if name == "chain.run_chain":
                deps = args[2]
                chain = f"{args[1].name}:{deps.case_id}"
            span = Span(name, 0.0, parent, chain)
            stack.append(span)
            if ambient:
                self._ambient = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if ambient:
                    self._ambient = None
                with self._lock:
                    self.spans.append(span)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        ids = {id(span): n for n, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for n, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent else None
                handle.write(
                    json.dumps([n, span.name, span.start, span.end, parent, span.chain]) + "\n"
                )


class _CountingYaml:
    """Stands in for the ``yaml`` module inside ``intentconf.preprocess``,
    counting ``load_all`` calls and forwarding everything else."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def load_all(self, *args, **kwargs):
        self._tracer.sample("yaml.load_all", 1)
        return self._real.load_all(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TracedDeployer:
    """Deployer proxy; it has ``benchmark`` only when the real deployer has it,
    because the chain enables its runtime gate by checking for that method."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer
        self.deploy = tracer.wrap("simulator.deploy", real.deploy, self._observe)

    def _observe(self, args, outcome) -> None:
        self._tracer.sample("simulator.deploy_failed", 0.0 if outcome.success else 1.0)
        self._tracer.sample("simulator.log_lines", len(outcome.logs.splitlines()))

    def __getattr__(self, name):
        if name == "benchmark":
            return self._tracer.wrap("simulator.benchmark", self._real.benchmark)
        raise AttributeError(name)


@contextmanager
def install(tracer: Tracer, embedded: dict[str, dict]):
    """Wrap the layer entry points that ``chain``, ``prompting`` and ``harness`` call.

    Yields ``traced(name, fn)``, which wraps the calls the benchmark makes
    itself. ``embedded`` maps each scripted reply to the tree written into
    it, so the extraction wrapper can count extractions that return
    exactly that tree.
    """

    def observe_extract(args, document) -> None:
        tree = embedded.get(args[0])
        if tree is not None:
            tracer.sample("preprocess.exact_extract", 1.0 if document.root == tree else 0.0)

    def observe_prompt(args, payload) -> None:
        tracer.sample("prompting.user_message_chars", len(payload.user_message))

    def observe_chain(args, outcome) -> None:
        tracer.sample("chain.resolved", 1.0 if outcome.resolved else 0.0)
        tracer.sample("chain.attempts", outcome.attempts_used)

    def observe_write(args, _) -> None:
        tracer.sample("chain.transcript_bytes", os.path.getsize(args[0]))

    observers = {
        "preprocess.preprocess_reply": observe_extract,
        "prompting.build_prompt": observe_prompt,
        "chain.run_chain": observe_chain,
        "chain.write_transcript": observe_write,
    }

    def traced(name: str, fn, ambient: bool = False):
        return tracer.wrap(name, fn, observers.get(name), ambient=ambient)

    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _PATCHED]
    saved.append((preprocess_mod, "yaml", preprocess_mod.yaml))
    try:
        for module, attr, name in _PATCHED:
            setattr(module, attr, traced(name, getattr(module, attr)))
        preprocess_mod.yaml = _CountingYaml(preprocess_mod.yaml, tracer)
        gc.callbacks.append(tracer.on_gc)
        yield traced
    finally:
        if tracer.on_gc in gc.callbacks:
            gc.callbacks.remove(tracer.on_gc)
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children on pool threads overlap each other, so covered time is the
    union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(span)] = (span.end - span.start) - covered
    return out
