"""Motif-aware attribute masking toolkit for molecular graph pre-training."""

from .errors import ConfigError, DataError, MoamaError, NumericsError, SmilesError
from .fingerprint import Fingerprint, morgan_fingerprint, tanimoto
from .gin import EncoderConfig, ParamStore, TensorGraph, decode_attrs, encode, init_params, predict_label, readout
from .influence import analyze_dataset, influence_pair
from .loss import LossConfig, aux_loss, rec_loss, total_loss
from .masking import MaskConfig, MaskPlan, MaskToken, apply_mask, random_mask, sample_motifs
from .molgraph import AtomAttr, Bond, MolGraph, adjacency, k_hop_neighborhood, ring_bonds
from .motif import BricsRule, Motif, MotifDecomposition, decompose, load_rules, match_rules, motif_adjacency
from .smiles import Dataset, parse, read_dataset, tokenize
from .train import RunConfig, auc_score, finetune_probe, load_checkpoint, pretrain, save_checkpoint, scaffold_split

__version__ = "0.1.0"
