"""GIN encoder, attribute decoders, prediction head, and Adam updates.

Everything runs in double precision on the autodiff tape. A batch
(``TensorGraph``) is its molecules' ``molgraph.stack`` plus the codes the
encoder embeds. The stack lays their nodes end to end, each with its molecule
id, and their directed edges, which each molecule sorts by (destination,
source) once, when it is built. Neighbour sums add from +0.0, in content order
(``autodiff._canonical_order``) for three or more messages, so a sum depends
only on its messages and runs stay bit-reproducible.

Layer update, for layer weights (w1, b1, w2, b2) and scalar eps:
    h_v <- w2 . relu(w1 . ((1 + eps) h_v + sum_{u in N(v)} (h_u + bond_emb))
           + b1) + b2
with an extra rectifier between layers except after the last. Every layer,
that rectifier included, and every MLP (the mlp decoder, the label head: a
layer with no edges and eps 0) is one tape node (``autodiff.gin_layer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masking import apply_mask
from .molgraph import (
    BOND_ORDERS,
    MASK_ATOM_TYPE,
    MASK_CHIRALITY,
    N_ATOM_TYPES,
    N_CHIRALITY,
    Stack,
    stack,
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


class TensorGraph(NamedTuple):
    """A batch of molecules: their ``molgraph.Stack`` ``s``, whose ``x`` holds
    the true codes, and ``x``, the codes the encoder embeds."""

    s: Stack
    x: np.ndarray

    @classmethod
    def from_graphs(cls, graphs, plans=None) -> "TensorGraph":
        """Build from molecules (``molgraph.stack``), each masked by its plan
        (``masking.apply_mask``) when ``plans`` is given."""
        graphs = list(graphs)
        if not graphs:
            raise ValueError("empty batch")
        if plans is not None and len(plans) != len(graphs):
            raise ValueError(f"{len(plans)} mask plans for {len(graphs)} molecules")
        s = stack(graphs)
        return cls(s, s.x if plans is None else
                   np.concatenate([apply_mask(g, p) for g, p in zip(graphs, plans)]))

    def masked_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending rows whose atom type, and whose chirality, the plans
        masked: the mask codes lie outside the real code spaces."""
        return (np.flatnonzero(self.x[:, 0] == MASK_ATOM_TYPE),
                np.flatnonzero(self.x[:, 1] == MASK_CHIRALITY))


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


def param_shapes(cfg: EncoderConfig, targets: str | None) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in the order ``init_params`` draws them: the
    encoder's (``embed.*``, ``enc.*``), the decoders' (``dec.*``) for
    ``targets`` (none when None, as fine-tuning needs) and the label head's
    (``head.*``, one output: fine-tuning reads one binary label)."""
    k = cfg.embed_dim
    shapes = {"embed.atom": (N_ATOM_EMBED, k), "embed.chirality": (N_CHIRALITY_EMBED, k),
              "embed.bond": (N_BOND_EMBED, k)}
    for layer in range(cfg.layers):
        shapes.update(_mlp_block(f"enc.{layer}", k, k))
        if cfg.learn_epsilon:
            shapes[f"enc.{layer}.eps"] = ()
    for head, attrs in TARGETS[targets] if targets else ():
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


def init_params(cfg: EncoderConfig, targets: str | None = "atom_type", seed: int = 0) -> ParamStore:
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


def _block(store: ParamStore, prefix: str) -> tuple[Tensor, ...]:
    """The (w1, b1, w2, b2) of the ``_mlp_block`` named ``prefix``."""
    return tuple(store[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2"))


def _gin_layer(h: Tensor, store: ParamStore, cfg: EncoderConfig, prefix: str, src, dst,
               bond_embed: Tensor | None, rows=None, relu_out: bool = False) -> Tensor:
    """The GIN layer named ``prefix`` at the nodes ``rows`` (None: every node)
    over the edges into them (``autodiff.gin_layer``)."""
    eps = store[f"{prefix}.eps"] if cfg.learn_epsilon else cfg.epsilon
    return ad.gin_layer(h, bond_embed, src, dst, rows, eps, *_block(store, prefix), relu_out)


_NO_EDGES = np.empty(0, dtype=np.int64)


def _mlp(x: Tensor, store: ParamStore, prefix: str, rows=None) -> Tensor:
    """``w2 . relu(w1 . x + b1) + b2`` on the ``_mlp_block`` named ``prefix``,
    at the rows ``rows`` of x (None: every row): a GIN layer with no edges and
    eps 0, whose ``x * 1.0`` keeps x's bits."""
    return ad.gin_layer(x, None, _NO_EDGES, _NO_EDGES, rows, 0.0, *_block(store, prefix), False)


def _bond_embedding(store: ParamStore, order: np.ndarray) -> Tensor | None:
    """The bond embedding row of each edge, by its bond order code."""
    return ad.take_rows(store["embed.bond"], order) if order.size else None


def _in_edges(tg: TensorGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges into the distinct nodes ``rows``: their indices, ascending,
    and each one's destination position in ``rows``."""
    pos = np.full(len(tg.x), -1)
    pos[rows] = np.arange(len(rows))
    dst = pos[tg.s.dst]
    edges = np.flatnonzero(dst >= 0)
    return edges, dst[edges]


def encode(tg: TensorGraph, store: ParamStore, cfg: EncoderConfig,
           zero_nodes=()) -> Tensor:
    """Node representation matrix H, shape (n_nodes, embed_dim).

    ``zero_nodes`` replaces those nodes' layer-0 embeddings with zero vectors;
    all other inputs stay unchanged. The influence analysis passes a graph of
    stacked copies of one molecule and zeroes one node in each copy.
    """
    h = ad.take_rows(store["embed.atom"], tg.x[:, 0]) + ad.take_rows(
        store["embed.chirality"], tg.x[:, 1]
    )
    if len(zero_nodes):
        keep = np.ones((len(tg.x), 1))
        keep[list(zero_nodes), 0] = 0.0
        h = h * ad.const(keep)
    bond_embed = _bond_embedding(store, tg.s.order)
    for layer in range(cfg.layers):
        h = _gin_layer(h, store, cfg, f"enc.{layer}", tg.s.src, tg.s.dst, bond_embed,
                       relu_out=layer < cfg.layers - 1)
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


def decode_attrs(tg: TensorGraph, h: Tensor, store: ParamStore, cfg: EncoderConfig,
                 targets: str = "atom_type", masked=None) -> dict[str, Tensor]:
    """Reconstruction rows keyed by attribute, in ``TARGETS`` order: one row
    per node of ``masked[d]`` (default ``tg.masked_nodes()``), in its order,
    for the attribute of column d.

    Each head decodes only the nodes its attributes need (GraphMAE
    reconstructs only masked nodes): the gnn decoder applies one more GIN
    layer over H (no re-masking) at those nodes, reading their rows and
    in-edges, then a linear projection; the mlp decoder is a per-node 2-layer
    MLP on their rows. A head that holds two attributes decodes the union of
    their nodes and is sliced into their column ranges, each gathered down to
    its attribute's nodes where the union holds more.
    """
    masked = tg.masked_nodes() if masked is None else masked
    out: dict[str, Tensor] = {}
    for head, attrs in TARGETS[targets]:
        wanted = [np.asarray(masked[ATTRIBUTES[a][0]], dtype=np.int64) for a in attrs]
        rows = np.unique(np.concatenate(wanted))
        if cfg.decoder == "gnn":
            edges, dst = _in_edges(tg, rows)
            z = _gin_layer(h, store, cfg, f"dec.{head}", tg.s.src[edges], dst,
                           _bond_embedding(store, tg.s.order[edges]), rows)
            logits = z @ store[f"dec.{head}.proj.w"] + store[f"dec.{head}.proj.b"]
        else:
            logits = _mlp(h, store, f"dec.{head}", rows)
        col = 0
        for attr, nodes in zip(attrs, wanted):
            width = ATTRIBUTES[attr][1]
            part = logits if len(attrs) == 1 else ad.slice_cols(logits, col, col + width)
            out[attr] = part if np.array_equal(nodes, rows) else ad.take_rows(
                part, np.searchsorted(rows, nodes))
            col += width
    return out


def predict_label(h_graph: Tensor, store: ParamStore) -> Tensor:
    """Task logits from graph vectors. Nothing applies a sigmoid: training
    takes binary cross-entropy on the logits and AUC ranks them."""
    return _mlp(h_graph, store, "head")

