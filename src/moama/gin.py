"""GIN encoder, attribute decoders, prediction head, and Adam updates.

Everything runs in double precision on the autodiff tape. Graphs are batched
by concatenating nodes and keeping a graph-id per node; directed edge arrays
are sorted by (destination, source) once at construction so neighbor sums
always accumulate in ascending node order and runs stay bit-reproducible.

Layer update, for layer weights (w1, b1, w2, b2) and scalar eps:
    h_v <- w2 . relu(w1 . ((1 + eps) h_v + sum_{u in N(v)} (h_u + bond_emb))
           + b1) + b2
with an extra rectifier between layers except after the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .molgraph import BOND_ORDER_INDEX, MASK_ATOM_TYPE, MASK_CHIRALITY, MolGraph

N_ATOM_EMBED = MASK_ATOM_TYPE + 1      # 120 rows, mask code included
N_CHIRALITY_EMBED = MASK_CHIRALITY + 1  # 5 rows
N_BOND_EMBED = 4
ATOM_LOGITS = 119
CHIRALITY_LOGITS = 4

READOUTS = ("mean", "sum", "max")
DECODERS = ("gnn", "mlp")
TARGETS = ("atom_type", "chirality", "both_one_decoder", "both_two_decoders")


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 5
    embed_dim: int = 32
    readout: str = "mean"
    epsilon: float = 0.0
    learn_epsilon: bool = False
    decoder: str = "gnn"

    def __post_init__(self):
        if self.layers < 1 or self.embed_dim < 1:
            raise ValueError("layers and embed_dim must be >= 1")
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
        types, chir, gids = [], [], []
        src, dst, order = [], [], []
        offset = 0
        for gi, g in enumerate(graphs):
            x = g.X if x_list is None else x_list[gi]
            if x.shape != (g.n_atoms, 2):
                raise ValueError("attribute matrix shape mismatch")
            types.extend(int(v) for v in x[:, 0])
            chir.extend(int(v) for v in x[:, 1])
            gids.extend([gi] * g.n_atoms)
            for b in g.bonds:
                code = BOND_ORDER_INDEX[b.order]
                src.extend((offset + b.u, offset + b.v))
                dst.extend((offset + b.v, offset + b.u))
                order.extend((code, code))
            offset += g.n_atoms

        ts = np.asarray(types, dtype=np.int64)
        cs = np.asarray(chir, dtype=np.int64)
        if ts.size == 0:
            raise ValueError("empty batch")
        if ts.min() < 0 or ts.max() >= N_ATOM_EMBED:
            raise ValueError("atom_type code out of range")
        if cs.min() < 0 or cs.max() >= N_CHIRALITY_EMBED:
            raise ValueError("chirality code out of range")

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        order_arr = np.asarray(order, dtype=np.int64)
        if src.size:
            perm = np.lexsort((src, dst))
            src, dst, order_arr = src[perm], dst[perm], order_arr[perm]
        return cls(ts, cs, src, dst, order_arr,
                   np.asarray(gids, dtype=np.int64), offset, len(graphs))


def single(g: MolGraph, x=None) -> TensorGraph:
    return TensorGraph.from_graphs([g], None if x is None else [x])


class ParamStore:
    """Named parameter tensors plus per-parameter Adam moment buffers."""

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

    def adam_step(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, names=None) -> None:
        """Bias-corrected Adam update over ``names`` (default: all), in
        sorted-name order. Parameters with no gradient see a zero gradient."""
        self.t += 1
        for name in sorted(names) if names is not None else self.names():
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            self.m[name] = beta1 * self.m[name] + (1.0 - beta1) * g
            self.v[name] = beta2 * self.v[name] + (1.0 - beta2) * (g * g)
            m_hat = self.m[name] / (1.0 - beta1 ** self.t)
            v_hat = self.v[name] / (1.0 - beta2 ** self.t)
            p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + eps)

    def copy(self) -> "ParamStore":
        dup = ParamStore({n: ad.parameter(t.values.copy()) for n, t in self.params.items()})
        dup.m = {n: v.copy() for n, v in self.m.items()}
        dup.v = {n: v.copy() for n, v in self.v.items()}
        dup.t = self.t
        return dup

    def load_values(self, other: "ParamStore", names) -> None:
        """Overwrite values (not moments) for the given parameter names."""
        for n in names:
            self.params[n].values = other.params[n].values.copy()


def decoder_heads(targets: str) -> tuple[tuple[str, int], ...]:
    if targets == "atom_type":
        return (("atom", ATOM_LOGITS),)
    if targets == "chirality":
        return (("chir", CHIRALITY_LOGITS),)
    if targets == "both_one_decoder":
        return (("joint", ATOM_LOGITS + CHIRALITY_LOGITS),)
    if targets == "both_two_decoders":
        return (("atom", ATOM_LOGITS), ("chir", CHIRALITY_LOGITS))
    raise ValueError(f"unknown reconstruction targets {targets!r}")


def init_params(cfg: EncoderConfig, targets: str = "atom_type",
                n_tasks: int = 1, seed: int = 0) -> ParamStore:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    k = cfg.embed_dim
    params: dict[str, Tensor] = {}

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return ad.parameter(rng.uniform(-bound, bound, size=shape))

    def zeros(shape):
        return ad.parameter(np.zeros(shape))

    params["embed.atom"] = uniform((N_ATOM_EMBED, k), k)
    params["embed.chirality"] = uniform((N_CHIRALITY_EMBED, k), k)
    params["embed.bond"] = uniform((N_BOND_EMBED, k), k)

    def mlp_block(prefix, out_dim=None):
        params[f"{prefix}.w1"] = uniform((k, k), k)
        params[f"{prefix}.b1"] = zeros((k,))
        params[f"{prefix}.w2"] = uniform((k, out_dim or k), k)
        params[f"{prefix}.b2"] = zeros((out_dim or k,))

    for layer in range(cfg.layers):
        mlp_block(f"enc.{layer}")
        if cfg.learn_epsilon:
            params[f"enc.{layer}.eps"] = ad.parameter(np.full((), cfg.epsilon))

    for head, out_dim in decoder_heads(targets):
        if cfg.decoder == "gnn":
            mlp_block(f"dec.{head}")
            if cfg.learn_epsilon:
                params[f"dec.{head}.eps"] = ad.parameter(np.full((), cfg.epsilon))
            params[f"dec.{head}.proj.w"] = uniform((k, out_dim), k)
            params[f"dec.{head}.proj.b"] = zeros((out_dim,))
        else:
            mlp_block(f"dec.{head}", out_dim)

    params["head.w1"] = uniform((k, k), k)
    params["head.b1"] = zeros((k,))
    params["head.w2"] = uniform((k, n_tasks), k)
    params["head.b2"] = zeros((n_tasks,))
    return ParamStore(params)


def _epsilon(store: ParamStore, cfg: EncoderConfig, name: str):
    if cfg.learn_epsilon:
        return store[f"{name}.eps"]
    return cfg.epsilon


def _gin_layer(h: Tensor, tg: TensorGraph, store: ParamStore,
               cfg: EncoderConfig, prefix: str, bond_embed: Tensor) -> Tensor:
    if tg.edge_src.size:
        messages = ad.take_rows(h, tg.edge_src) + bond_embed
        agg = ad.segment_sum(messages, tg.edge_dst, tg.n_nodes)
        z = h * (1.0 + _epsilon(store, cfg, prefix)) + agg
    else:
        z = h * (1.0 + _epsilon(store, cfg, prefix))
    z = ad.relu(z @ store[f"{prefix}.w1"] + store[f"{prefix}.b1"])
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
        h = _gin_layer(h, tg, store, cfg, f"enc.{layer}", bond_embed)
        if layer < cfg.layers - 1:
            h = ad.relu(h)
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
    """Per-node reconstruction rows keyed by attribute dimension.

    The gnn decoder applies one more GIN layer over H (no re-masking) and a
    linear projection; the mlp decoder is a per-node 2-layer MLP.
    """
    bond_embed = _bond_embedding(tg, store)
    out: dict[str, Tensor] = {}
    for head, _dim in decoder_heads(targets):
        if cfg.decoder == "gnn":
            z = _gin_layer(h, tg, store, cfg, f"dec.{head}", bond_embed)
            logits = z @ store[f"dec.{head}.proj.w"] + store[f"dec.{head}.proj.b"]
        else:
            z = ad.relu(h @ store[f"dec.{head}.w1"] + store[f"dec.{head}.b1"])
            logits = z @ store[f"dec.{head}.w2"] + store[f"dec.{head}.b2"]
        if head == "joint":
            out["atom_type"] = ad.slice_cols(logits, 0, ATOM_LOGITS)
            out["chirality"] = ad.slice_cols(logits, ATOM_LOGITS,
                                             ATOM_LOGITS + CHIRALITY_LOGITS)
        elif head == "atom":
            out["atom_type"] = logits
        else:
            out["chirality"] = logits
    return out


def predict_label(h_graph: Tensor, store: ParamStore) -> Tensor:
    """Task logits from graph vectors; sigmoid is applied only at evaluation."""
    z = ad.relu(h_graph @ store["head.w1"] + store["head.b1"])
    return z @ store["head.w2"] + store["head.b2"]


def sigmoid(values: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    pos = values >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-values[pos]))
    ez = np.exp(values[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
