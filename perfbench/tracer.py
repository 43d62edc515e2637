"""Span tracing of the moama package from outside.

``install`` wraps the public functions named in ``SPANS`` and the tape ops in
``OPS``. A function is replaced in every ``moama`` module that bound it, so a
consumer that did ``from .gin import encode`` at import time is traced too.
Methods are replaced on their class. Nothing in the package changes on disk.

A span is (name, start, end, parent). Spans live in compact arrays while the
program runs and are written once by ``Recorder.dump``. ``summarize`` turns
them into per-name call counts and self time: a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module under moama, attribute path): the layer boundaries a traced run
# records. The benchmark's self-test checks that each still exists.
SPANS = (
    ("cli", "main"),
    ("smiles", "read_dataset"),
    ("smiles", "parse"),
    ("motif", "decompose"),
    ("fingerprint", "morgan_fingerprint"),
    ("molgraph", "k_hop_neighborhood"),
    ("masking", "build_plan"),
    ("masking", "apply_mask"),
    ("gin", "TensorGraph.from_graphs"),
    ("gin", "encode"),
    ("gin", "decode_attrs"),
    ("gin", "readout"),
    ("gin", "predict_label"),
    ("gin", "ParamStore.adam_step"),
    ("loss", "rec_loss"),
    ("loss", "aux_loss"),
    ("autodiff", "Tensor.backward"),
    ("influence", "analyze_dataset"),
    ("influence", "influence_matrix"),
    ("train", "pretrain"),
    ("train", "scaffold_split"),
    ("train", "finetune_probe"),
    ("train", "auc_score"),
    ("train", "load_checkpoint"),
    ("train", "save_checkpoint"),
)

# Tape ops of moama.autodiff. Each gets a forward span "autodiff.<op>" and,
# when it records a backward closure, a span "autodiff.<op>.bwd" around it.
OPS = ("matmul", "take_rows", "segment_sum", "segment_max", "add", "mul", "sub",
       "div", "power", "sqrt", "relu", "exp", "log", "tsum", "slice_cols",
       "log_softmax")

# Counted, not spanned: every Tensor construction runs a finiteness check.
TENSOR_INIT = ("autodiff", "Tensor.__init__")


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def dump(self, path) -> None:
        """Write the spans as raw arrays behind a one-line JSON header."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open at dump")
        header = {"names": self.names, "counters": self.counters,
                  "spans": len(self.span_name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def load_spans(path):
    """(names, counters, name ids, parents, starts, ends) from ``dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"], header["counters"], *arrays)


def summarize(path) -> tuple[dict[str, tuple[int, float]], dict[str, float]]:
    """({span name: (calls, self seconds)}, counters) of one dumped trace."""
    names, counters, name, parent, start, end = load_spans(path)
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i, nid in enumerate(name):
        calls[nid] += 1
        self_s[nid] += dur[i] - covered[i]
    return {n: (calls[i], self_s[i]) for i, n in enumerate(names)}, counters


def resolve(module: str, path: str):
    """(owner object, attribute name, original function); raises if gone."""
    owner = importlib.import_module(f"moama.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = vars(owner)[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
    return owner, parts[-1], raw


def missing_targets() -> list[str]:
    """Traced names the program no longer defines (empty when all resolve)."""
    gone = []
    for module, path in (*SPANS, *(("autodiff", op) for op in OPS), TENSOR_INIT):
        try:
            _, _, raw = resolve(module, path)
        except (ImportError, AttributeError, KeyError):
            gone.append(f"moama.{module}.{path}")
            continue
        if not callable(getattr(raw, "__func__", raw)):
            gone.append(f"moama.{module}.{path}")
    return gone


def _rebind(original, replacement) -> None:
    """Replace ``original`` wherever a moama module bound it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "moama" and not mod_name.startswith("moama."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _span_wrapper(rec: Recorder, name: str, fn, after=None):
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _op_wrapper(rec: Recorder, op: str, fn):
    fwd = rec.name_id(f"autodiff.{op}")
    bwd = rec.name_id(f"autodiff.{op}.bwd")

    def timed_backprop(back):
        def traced_back(g):
            idx = rec.open(bwd)
            try:
                back(g)
            finally:
                rec.close(idx)
        traced_back.traced = True
        return traced_back

    def traced(*args, **kwargs):
        idx = rec.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        back = out._backprop
        # a composite op (log_softmax) returns a tensor whose closure an
        # inner op already wrapped; its backward time stays with that op
        if back is not None and not getattr(back, "traced", False):
            out._backprop = timed_backprop(back)
        return out

    traced.__wrapped__ = fn
    return traced


# Counters taken at span exit: (rec, args, kwargs, result) -> None.

def _after_read_dataset(rec, args, kwargs, result):
    rec.add("smiles.read_dataset.skipped", result.skipped)


def _after_build_plan(rec, args, kwargs, result):
    rec.add("masking.plans", 1)
    rec.add("masking.feasible", int(result.feasible))


def _after_encode(rec, args, kwargs, result):
    rec.add("gin.encode.nodes", result.values.shape[0])


def _after_analyze(rec, args, kwargs, result):
    rec.add("influence.molecules", len(args[0]))


def _after_adam(rec, args, kwargs, result):
    store = args[0]
    names = kwargs.get("names", args[5] if len(args) > 5 else None)
    grads = {n: p.grad for n, p in store.params.items() if p.grad is not None}
    rec.add("autodiff.grad_elems", sum(g.size for g in grads.values()))
    applied = grads if names is None else [n for n in names if n in grads]
    rec.add("autodiff.grad_applied", sum(grads[n].size for n in applied))


AFTER = {
    "smiles.read_dataset": _after_read_dataset,
    "masking.build_plan": _after_build_plan,
    "gin.encode": _after_encode,
    "influence.analyze_dataset": _after_analyze,
    "gin.ParamStore.adam_step": _after_adam,
}


def install(rec: Recorder) -> None:
    """Wrap every traced name of the already importable moama package."""
    importlib.import_module("moama.cli")  # imports every traced module
    gone = missing_targets()
    if gone:
        raise RuntimeError(f"traced names missing from moama: {', '.join(gone)}")
    for module, path in SPANS:
        name = f"{module}.{path}"
        owner, attr, raw = resolve(module, path)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_span_wrapper(rec, name, raw.__func__, AFTER.get(name))))
        elif isinstance(owner, type):
            setattr(owner, attr, _span_wrapper(rec, name, raw, AFTER.get(name)))
        else:
            _rebind(raw, _span_wrapper(rec, name, raw, AFTER.get(name)))
    for op in OPS:
        _, _, raw = resolve("autodiff", op)
        _rebind(raw, _op_wrapper(rec, op, raw))

    owner, attr, init = resolve(*TENSOR_INIT)

    def counted_init(self, *args, **kwargs):
        rec.counters["autodiff.tensors"] += 1
        init(self, *args, **kwargs)

    rec.counters["autodiff.tensors"] = 0
    setattr(owner, attr, counted_init)
