"""GIN encoder, attribute decoders, prediction head, and Adam updates.

Everything runs in double precision on the autodiff tape. Graphs are batched
by concatenating nodes and keeping a graph-id per node. Each molecule sorts its
directed edges by (destination, source) once, when it is built, and a batch
concatenates them. Neighbour sums add from +0.0, in content order
(``autodiff._canonical_order``) for three or more messages, so a sum depends
only on its messages and runs stay bit-reproducible.

Layer update, for layer weights (w1, b1, w2, b2) and scalar eps:
    h_v <- w2 . relu(w1 . ((1 + eps) h_v + sum_{u in N(v)} (h_u + bond_emb))
           + b1) + b2
with an extra rectifier between layers except after the last. Each layer,
that rectifier included, is one tape node (``autodiff.gin_layer``), in the
encoder and in the gnn decoder alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .molgraph import (
    BOND_ORDERS,
    MASK_ATOM_TYPE,
    MASK_CHIRALITY,
    N_ATOM_TYPES,
    N_CHIRALITY,
    MolGraph,
    stack_edges,
)

N_ATOM_EMBED = MASK_ATOM_TYPE + 1      # 120 rows, mask code included
N_CHIRALITY_EMBED = MASK_CHIRALITY + 1  # 5 rows
N_BOND_EMBED = len(BOND_ORDERS)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

READOUTS = ("mean", "sum", "max")
DECODERS = ("gnn", "mlp")

# What each ``loss.targets`` value reconstructs: its decoder heads in the order
# ``init_params`` draws them, each with the attributes its logit columns hold,
# left to right. Each attribute is one column of ``MolGraph.X`` and gets one
# logit per real code; the mask code is never predicted.
TARGETS = {
    "atom_type": (("atom", ("atom_type",)),),
    "chirality": (("chir", ("chirality",)),),
    "both_one_decoder": (("joint", ("atom_type", "chirality")),),
    "both_two_decoders": (("atom", ("atom_type",)), ("chir", ("chirality",))),
}
ATTRIBUTES = {"atom_type": (0, N_ATOM_TYPES), "chirality": (1, N_CHIRALITY)}

# Upper bounds that cap an encoder's memory. The largest allowed model (16
# layers of width 512, two gnn decoders) holds 9.85M parameters: 79 MB of
# values, 315 MB with Adam's two moments and a gradient, plus activations that
# grow with the batch. Paper scale is 5 layers of width 300.
MAX_LAYERS = 16
MAX_EMBED_DIM = 512


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 5
    embed_dim: int = 32
    readout: str = "mean"
    epsilon: float = 0.0
    learn_epsilon: bool = False
    decoder: str = "gnn"

    def __post_init__(self):
        if not 1 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must be between 1 and {MAX_LAYERS}")
        if not 1 <= self.embed_dim <= MAX_EMBED_DIM:
            raise ValueError(f"embed_dim must be between 1 and {MAX_EMBED_DIM}")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {', '.join(READOUTS)}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {', '.join(DECODERS)}")


@dataclass(frozen=True)
class TensorGraph:
    """Concatenated batch of molecules with graph-id bookkeeping."""

    atom_type: np.ndarray
    chirality: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_order: np.ndarray
    graph_ids: np.ndarray
    n_nodes: int
    n_graphs: int

    @classmethod
    def from_graphs(cls, graphs, x_list=None) -> "TensorGraph":
        """Build from molecules, optionally with masked attribute matrices."""
        graphs = list(graphs)
        if not graphs:
            raise ValueError("empty batch")
        xs = [g.X if x_list is None else x_list[i] for i, g in enumerate(graphs)]
        if any(x.shape != (g.n_atoms, 2) for g, x in zip(graphs, xs)):
            raise ValueError("attribute matrix shape mismatch")
        ts, cs = np.concatenate([x.T for x in xs], axis=1).astype(np.int64, copy=False)
        if ts.min() < 0 or ts.max() >= N_ATOM_EMBED:
            raise ValueError("atom_type code out of range")
        if cs.min() < 0 or cs.max() >= N_CHIRALITY_EMBED:
            raise ValueError("chirality code out of range")

        sizes = [g.n_atoms for g in graphs]
        return cls(ts, cs, *stack_edges(graphs),
                   np.repeat(np.arange(len(graphs), dtype=np.int64), sizes),
                   sum(sizes), len(graphs))


def single(g: MolGraph, x=None) -> TensorGraph:
    return TensorGraph.from_graphs([g], None if x is None else [x])


class ParamStore:
    """Named parameter tensors plus per-parameter Adam moment buffers.

    A constant tensor (``ad.const``) is never trained: it records no tape and
    ``adam_step`` leaves it as it is. ``frozen`` makes parameters constant.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = dict(params)
        self.m = {n: np.zeros_like(t.values) for n, t in self.params.items()}
        self.v = {n: np.zeros_like(t.values) for n, t in self.params.items()}
        self.t = 0

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def adam_step(self, lr=1e-3) -> None:
        """Bias-corrected Adam update of every parameter that is not a
        constant, in sorted-name order. A parameter with no gradient sees a
        zero gradient; a constant keeps its values and moments."""
        self.t += 1
        for name in self.names():
            p = self.params[name]
            if not p.requires_grad:
                continue
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[name] / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = self.v[name] / (1.0 - ADAM_BETA2 ** self.t)
            p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def copy(self) -> "ParamStore":
        """Deep copy; each tensor stays a parameter or a constant."""
        dup = ParamStore({n: Tensor(t.values.copy(), t.requires_grad)
                          for n, t in self.params.items()})
        dup.m = {n: v.copy() for n, v in self.m.items()}
        dup.v = {n: v.copy() for n, v in self.v.items()}
        dup.t = self.t
        return dup

    def frozen(self, names=None) -> "ParamStore":
        """A copy whose named parameters (default: all) are constants. A store
        with nothing left to freeze is returned as is."""
        names = self.names() if names is None else names
        if not any(self.params[n].requires_grad for n in names):
            return self
        dup = self.copy()
        for n in names:
            dup.params[n] = ad.const(dup.params[n].values)
        return dup

    def load_values(self, other: "ParamStore", names) -> None:
        """Overwrite values (not moments) for the given parameter names."""
        for n in names:
            self.params[n].values = other.params[n].values.copy()


def _mlp_block(prefix: str, k: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    return {f"{prefix}.w1": (k, k), f"{prefix}.b1": (k,),
            f"{prefix}.w2": (k, out_dim), f"{prefix}.b2": (out_dim,)}


def encoder_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each encoder parameter (``embed.*``, ``enc.*``), in the order
    ``init_params`` draws them."""
    k = cfg.embed_dim
    shapes = {"embed.atom": (N_ATOM_EMBED, k), "embed.chirality": (N_CHIRALITY_EMBED, k),
              "embed.bond": (N_BOND_EMBED, k)}
    for layer in range(cfg.layers):
        shapes.update(_mlp_block(f"enc.{layer}", k, k))
        if cfg.learn_epsilon:
            shapes[f"enc.{layer}.eps"] = ()
    return shapes


def param_shapes(cfg: EncoderConfig, targets: str) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter: the encoder's, the decoders' (``dec.*``) for
    ``targets`` and the label head's (``head.*``), in the order ``init_params``
    draws them. The label head has one output: fine-tuning reads one binary
    label."""
    k = cfg.embed_dim
    shapes = encoder_shapes(cfg)
    for head, attrs in TARGETS[targets]:
        out_dim = sum(ATTRIBUTES[a][1] for a in attrs)
        if cfg.decoder == "gnn":
            shapes.update(_mlp_block(f"dec.{head}", k, k))
            if cfg.learn_epsilon:
                shapes[f"dec.{head}.eps"] = ()
            shapes[f"dec.{head}.proj.w"] = (k, out_dim)
            shapes[f"dec.{head}.proj.b"] = (out_dim,)
        else:
            shapes.update(_mlp_block(f"dec.{head}", k, out_dim))
    shapes.update(_mlp_block("head", k, 1))
    return shapes


def init_params(cfg: EncoderConfig, targets: str = "atom_type", seed: int = 0) -> ParamStore:
    """Seeded init of ``param_shapes(cfg, targets)``: weights (2-D) uniform in
    +-1/sqrt(embed_dim), biases (1-D) zero, epsilons (0-D) at ``cfg.epsilon``."""
    shapes = param_shapes(cfg, targets)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(cfg.embed_dim)

    def value(shape):
        if len(shape) == 2:
            return rng.uniform(-bound, bound, size=shape)
        return np.zeros(shape) if shape else np.full((), cfg.epsilon)

    return ParamStore({name: ad.parameter(value(shape)) for name, shape in shapes.items()})


def _epsilon(store: ParamStore, cfg: EncoderConfig, name: str):
    if cfg.learn_epsilon:
        return store[f"{name}.eps"]
    return cfg.epsilon


def _gin_layer(h: Tensor, tg: TensorGraph, store: ParamStore, cfg: EncoderConfig,
               prefix: str, bond_embed: Tensor | None, relu_out: bool = False) -> Tensor:
    w1, b1, w2, b2 = (store[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2"))
    return ad.gin_layer(h, bond_embed, tg.edge_src, tg.edge_dst, tg.n_nodes,
                        _epsilon(store, cfg, prefix), w1, b1, w2, b2, relu_out)


def _mlp(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """``w2 . relu(w1 . x + b1) + b2`` on the ``_mlp_block`` named ``prefix``."""
    z = ad.relu(x @ store[f"{prefix}.w1"] + store[f"{prefix}.b1"])
    return z @ store[f"{prefix}.w2"] + store[f"{prefix}.b2"]


def _bond_embedding(tg: TensorGraph, store: ParamStore) -> Tensor | None:
    if tg.edge_src.size == 0:
        return None
    return ad.take_rows(store["embed.bond"], tg.edge_order)


def encode(tg: TensorGraph, store: ParamStore, cfg: EncoderConfig,
           zero_nodes=()) -> Tensor:
    """Node representation matrix H, shape (n_nodes, embed_dim).

    ``zero_nodes`` replaces those nodes' layer-0 embeddings with zero vectors;
    all other inputs stay unchanged. The influence analysis passes a graph of
    stacked copies of one molecule and zeroes one node in each copy.
    """
    h = ad.take_rows(store["embed.atom"], tg.atom_type) + ad.take_rows(
        store["embed.chirality"], tg.chirality
    )
    if len(zero_nodes):
        keep = np.ones((tg.n_nodes, 1))
        keep[list(zero_nodes), 0] = 0.0
        h = h * ad.const(keep)
    bond_embed = _bond_embedding(tg, store)
    for layer in range(cfg.layers):
        h = _gin_layer(h, tg, store, cfg, f"enc.{layer}", bond_embed, layer < cfg.layers - 1)
    return h


def readout(h: Tensor, mode: str, graph_ids, n_graphs: int) -> Tensor:
    """Permutation-invariant pooling of node rows into one row per graph."""
    if h.values.shape[0] == 0:
        raise ValueError("readout of an empty graph")
    if mode == "sum":
        return ad.segment_sum(h, graph_ids, n_graphs)
    if mode == "mean":
        counts = np.bincount(np.asarray(graph_ids), minlength=n_graphs)
        total = ad.segment_sum(h, graph_ids, n_graphs)
        return total * ad.const(1.0 / counts[:, None])
    if mode == "max":
        return ad.segment_max(h, graph_ids, n_graphs)
    raise ValueError(f"unknown readout {mode!r}")


def decode_attrs(tg: TensorGraph, h: Tensor, store: ParamStore,
                 cfg: EncoderConfig, targets: str = "atom_type") -> dict[str, Tensor]:
    """Per-node reconstruction rows keyed by attribute, in ``TARGETS`` order.

    The gnn decoder applies one more GIN layer over H (no re-masking) and a
    linear projection; the mlp decoder is a per-node 2-layer MLP. A head that
    holds two attributes is sliced into their column ranges.
    """
    bond_embed = _bond_embedding(tg, store)
    out: dict[str, Tensor] = {}
    for head, attrs in TARGETS[targets]:
        if cfg.decoder == "gnn":
            z = _gin_layer(h, tg, store, cfg, f"dec.{head}", bond_embed)
            logits = z @ store[f"dec.{head}.proj.w"] + store[f"dec.{head}.proj.b"]
        else:
            logits = _mlp(h, store, f"dec.{head}")
        col = 0
        for attr in attrs:
            width = ATTRIBUTES[attr][1]
            out[attr] = logits if len(attrs) == 1 else ad.slice_cols(logits, col, col + width)
            col += width
    return out


def predict_label(h_graph: Tensor, store: ParamStore) -> Tensor:
    """Task logits from graph vectors. Nothing applies a sigmoid: training
    takes binary cross-entropy on the logits and AUC ranks them."""
    return _mlp(h_graph, store, "head")

