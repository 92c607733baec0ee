"""Per-layer tracing, installed from outside around public calls.

:class:`LayerTracer` wraps the public functions and methods of each layer
with a ``repro.telemetry`` span tagged ``layer=<name>`` and, where the
layer's work is a count, with a counter.  Wrappers are installed only
for a traced repetition and removed after it, so untraced repetitions
run the program's own code.

Spans are kept in memory (name, start, end, parent) and written out at
the end through ``repro.perf.export_chrome_trace``.  A layer's self time
is its span's duration minus the part covered by its nearest descendant
layer spans; spans the program opens itself are transparent, so their
time stays with the enclosing layer.

Module-level functions that other modules bind by name (``state_root``,
``build_batch``, ``train``, ...) are rebound in every loaded ``repro``
module that holds them.  Digests are counted at
``repro.crypto.hashing.hash_hex``, which ``hash_value`` and
``hash_pair`` look up as a module global.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of each wrapped public method: (module, class, methods, layer).
_METHOD_LAYERS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.streaming.traffic", "TrafficGenerator", ("next_batch",),
     "traffic.next_batch"),
    ("repro.streaming.scanner", "BatchScanner", ("scan",), "scanner.scan"),
    ("repro.defense.detector", "MempoolGuard", ("inspect",),
     "detector.inspect"),
    ("repro.core.gentranseq", "GenTranSeq", ("optimize", "infer"),
     "gentranseq.optimize"),
    ("repro.core.encoding", "TransactionEncoder",
     ("encode", "encode_from_trace", "encode_columns", "encode_2d"),
     "encoding.encode"),
    ("repro.rollup.replay_engine", "IncrementalOVM",
     ("evaluate", "replay_order", "replay"), "replay.evaluate"),
    ("repro.rollup.replay_engine", "BatchReplayEngine", ("evaluate_many",),
     "replay.evaluate"),
    ("repro.rollup.ovm", "OVM", ("replay",), "ovm.replay"),
    ("repro.rollup.verifier", "Verifier", ("inspect",), "verifier.inspect"),
    ("repro.chain.orsc", "OptimisticRollupContract", ("commit_batch",),
     "orsc.commit"),
    ("repro.rollup.node", "RollupNode", ("finalize_ready_batches",),
     "node.finalize"),
    ("repro.rollup.node", "RollupNode", ("run_round",), "node.round"),
    ("repro.faults.invariants", "InvariantChecker", ("check", "on_report"),
     "invariants.check"),
)

#: Module functions bound by name across the package.
_FUNCTION_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.rollup.batch", "build_batch", "batch.build"),
    ("repro.rollup.fraud_proof", "state_root", "commit.state_root"),
    ("repro.drl.trainer", "train", "drl.train"),
    ("repro.core.encoding", "encode_for_inference", "encoding.encode"),
)

#: Base classes whose every override of these methods is one layer.
_HIERARCHY_LAYERS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.strategies.base", "BaseStrategy", ("observe",),
     "strategy.observe"),
    ("repro.matrix.defenses", "Defense", ("enforce", "blind", "reveal"),
     "defense.enforce"),
)

#: Pool methods, by the layer they belong to.  The pool class is found
#: at run time from ``node.mempool``, so whichever pool the deployments
#: use is the one measured.
_POOL_WRITES = ("submit", "submit_all", "admit_stamped", "requeue")
_POOL_READS = ("collect", "peek", "pending", "drop")

#: Every layer a traced run reports self time for, in report order.
LAYERS = (
    "traffic.next_batch", "mempool.submit", "mempool.collect",
    "scanner.scan", "strategy.observe", "defense.enforce",
    "detector.inspect", "gentranseq.optimize", "drl.train",
    "encoding.encode", "replay.evaluate", "ovm.replay", "batch.build",
    "commit.state_root", "verifier.inspect", "orsc.commit",
    "node.finalize", "invariants.check", "node.round", "unattributed",
)

#: The span that encloses one traced repetition.
REP_LAYER = "unattributed"

#: Span records kept for the exported trace; later ones are counted only.
KEEP_SPANS = 40000


def _size(values: Any) -> int:
    try:
        return len(values)
    except TypeError:
        return 0


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class _SpanSink:
    """Keeps span records and folds them into per-layer self time.

    The tracer emits a span when it closes, children first, so the time
    covered by layer descendants is known when a span arrives.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0
        self.self_s: Dict[str, float] = Counter()
        self._covered: Dict[int, float] = {}

    def emit(self, record: Dict[str, Any]) -> None:
        if len(self.records) < KEEP_SPANS:
            self.records.append(record)
        else:
            self.dropped += 1
        if record.get("type") != "span":
            return
        covered = self._covered.pop(record["span_id"], 0.0)
        layer = (record.get("attrs") or {}).get("layer")
        if layer is not None:
            self.self_s[layer] += record["duration_s"] - covered
            passed_up = record["duration_s"]
        else:
            passed_up = covered
        parent = record.get("parent_id")
        if parent is not None and passed_up:
            self._covered[parent] = self._covered.get(parent, 0.0) + passed_up


class LayerTracer:
    """Installs the layer wrappers and collects spans and counts."""

    def __init__(self) -> None:
        # repro is imported here, not at module level, so that the worker
        # can time ``import repro`` itself.
        from repro.telemetry import TraceSink, Tracer

        sink_cls = type("LayerSpanSink", (_SpanSink, TraceSink), {})
        self.sink = sink_cls()
        #: One tracer for every traced repetition, so span ids and the
        #: clock run on across them in the exported trace.
        self.tracer = Tracer(self.sink)
        self.counts: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pools: List[type] = []

    # ------------------------------------------------------------------ #
    # Wrapping helpers
    # ------------------------------------------------------------------ #

    def _spanned(self, fn: Callable, layer: str,
                 count: Optional[Callable] = None) -> Callable:
        from repro.telemetry import tracing

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            with tracing.span(layer, layer=layer):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn: Callable, count: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_method(self, cls: type, name: str, layer: Optional[str],
                     count: Optional[Callable] = None) -> None:
        original = cls.__dict__.get(name)
        if original is None or not callable(original):
            return
        if layer is None:
            self._set(cls, name, self._counted(original, count))
        else:
            self._set(cls, name, self._spanned(original, layer, count))

    def _rebind_function(self, module_name: str, name: str,
                         wrapper_for: Callable[[Callable], Callable]) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, name, None) if module else None
        if original is None:
            return
        wrapped = wrapper_for(original)
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set(loaded, attr, wrapped)

    def _bump(self, key: str, amount: Callable = lambda a, k: 1) -> Callable:
        counts = self.counts

        def count(args, kwargs):
            counts[key] += amount(args, kwargs)

        return count

    # ------------------------------------------------------------------ #
    # Install / remove
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        import importlib

        from repro.rollup.transaction import NFTTransaction
        from repro.crypto.merkle import MerkleTree
        from repro.drl.network import MLP

        # Counters kept at the same boundaries as the spans.
        counters = {
            "OVM.replay": self._ovm_count,
            "IncrementalOVM.evaluate": self._bump("replay.evaluations"),
            "BatchReplayEngine.evaluate_many": self._bump(
                "replay.evaluations", lambda a, k: len(a[1])
            ),
            "RollupNode.run_round": self._round_count,
            "state_root": self._bump("commit.state_root"),
        }
        for module_name, cls_name, methods, layer in _METHOD_LAYERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for method in methods:
                count = counters.get(f"{cls_name}.{method}")
                self._wrap_method(cls, method, layer, count)
        for module_name, cls_name, methods, layer in _HIERARCHY_LAYERS:
            base = getattr(importlib.import_module(module_name), cls_name)
            for cls in dict.fromkeys(_subclasses(base)):
                for method in methods:
                    self._wrap_method(cls, method, layer)
        for module_name, name, layer in _FUNCTION_LAYERS:
            importlib.import_module(module_name)
            self._rebind_function(
                module_name, name,
                lambda fn, layer=layer, count=counters.get(name): self._spanned(
                    fn, layer, count
                ),
            )
        self._rebind_function(
            "repro.crypto.hashing", "hash_hex",
            lambda fn: self._counted(fn, self._bump("crypto.digests")),
        )
        counted = self._counted(
            NFTTransaction.tx_hash.fget, self._bump("crypto.tx_hash")
        )
        self._set(NFTTransaction, "tx_hash", property(counted))
        self._wrap_method(
            MerkleTree, "__init__", None,
            self._bump("commit.merkle_leaves", lambda a, k: _size(a[1])),
        )
        self._wrap_method(MLP, "forward", None, self._bump("drl.forward"))
        self._wrap_method(
            MLP, "train_on_cached_targets", None, self._bump("drl.train_steps")
        )
        self._hook_node_init()

    def _ovm_count(self, args, kwargs) -> None:
        self.counts["ovm.replays"] += 1
        transactions = args[2] if len(args) > 2 else kwargs["transactions"]
        self.counts["ovm.steps"] += len(transactions)

    def _round_count(self, args, kwargs) -> None:
        self.counts["mempool.backlog"] += len(args[0].mempool)

    def _hook_node_init(self) -> None:
        from repro.rollup.node import RollupNode

        original = RollupNode.__dict__["__init__"]
        tracer = self

        @functools.wraps(original)
        def __init__(node, *args, **kwargs):
            original(node, *args, **kwargs)
            tracer._hook_pool(type(node.mempool))

        self._set(RollupNode, "__init__", __init__)

    def _hook_pool(self, pool_cls: type) -> None:
        if pool_cls in self._pools:
            return
        self._pools.append(pool_cls)
        for method in _POOL_WRITES:
            count = (
                self._bump("mempool.requeued", lambda a, k: len(a[1]))
                if method == "requeue" else None
            )
            self._wrap_method(pool_cls, method, "mempool.submit", count)
        for method in _POOL_READS:
            self._wrap_method(pool_cls, method, "mempool.collect")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._pools.clear()

    # ------------------------------------------------------------------ #
    # One traced repetition
    # ------------------------------------------------------------------ #

    def run(self, fn: Callable[[], Any]) -> Tuple[Any, Dict[str, float],
                                                   Dict[str, int]]:
        """Run ``fn`` traced; return its result, self seconds and counts."""
        from repro.telemetry import (
            disable_metrics, disable_tracing, enable_metrics, set_tracer,
        )
        from repro.telemetry import tracing

        before_self = dict(self.sink.self_s)
        before_counts = Counter(self.counts)
        self.install()
        enable_metrics()
        set_tracer(self.tracer)
        try:
            with tracing.span("rep", layer=REP_LAYER):
                result = fn()
            self.tracer.emit_metrics("counters")
        finally:
            disable_tracing()
            disable_metrics()
            self.uninstall()
        self_s = {
            layer: self.sink.self_s.get(layer, 0.0) - before_self.get(layer, 0.0)
            for layer in LAYERS
        }
        counts = dict(self.counts - before_counts)
        return result, self_s, counts

    def export(self, out_dir: Path, stem: str) -> Path:
        """Write the kept spans as JSONL and convert them for Perfetto."""
        from repro.perf import export_chrome_trace

        out_dir.mkdir(parents=True, exist_ok=True)
        jsonl = out_dir / f"{stem}.jsonl"
        with jsonl.open("w") as handle:
            for record in self.sink.records:
                handle.write(json.dumps(record, default=str) + "\n")
        out, _ = export_chrome_trace(jsonl, out_dir / f"{stem}.chrome.json")
        return out
