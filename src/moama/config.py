"""Flat key=value run configuration with section prefixes.

The file format is line-oriented ``section.key=value`` (blank lines and
``#`` comments ignored), diff-friendly by design. Flags override file values;
the resulting effective config is echoed back as an artifact whose re-use
reproduces the run.

The config dataclasses declare the keys: ``RunConfig``'s scalar fields are
``run.*`` and each dataclass-typed field is a section. Field types parse the
value text, defaults give the default text, and ``__post_init__`` validates,
with messages that begin with the field name so errors can name the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_type_hints

from .errors import ConfigError, ascii_number, read_input
from .fingerprint import FingerprintConfig
from .gin import EncoderConfig
from .influence import InfluenceConfig
from .loss import LossConfig
from .masking import MaskConfig
from .motif import MotifConfig
from .smiles import DataConfig


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 30
    lr: float = 0.001
    batch_pretrain: int = 32
    batch_finetune: int = 32
    seed: int = 0
    finetune_epochs: int = 20
    finetune_mode: str = "probe"   # probe (frozen encoder) | full
    checkpoint: str = ""
    data: DataConfig = field(default_factory=DataConfig)
    mask: MaskConfig = field(default_factory=MaskConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    fp: FingerprintConfig = field(default_factory=FingerprintConfig)
    influence: InfluenceConfig = field(default_factory=InfluenceConfig)
    motif: MotifConfig = field(default_factory=MotifConfig)

    def __post_init__(self):
        for name in ("epochs", "batch_pretrain", "batch_finetune", "finetune_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.finetune_mode not in ("probe", "full"):
            raise ValueError("finetune_mode must be one of probe, full")


def _boolean(text: str) -> bool:
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _finite(text: str) -> float:
    value = ascii_number(text, float)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# field type -> parser of its value text
_PARSERS = {int: lambda text: ascii_number(text, int), float: _finite, bool: _boolean, str: str}


def _defaults(cls, section: str):
    """(key, default text) of every key that ``cls`` declares; the text
    parses back to the field's default."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _defaults(hints[f.name], f.name)
        elif isinstance(f.default, bool):
            yield f"{section}.{f.name}", str(f.default).lower()
        else:
            yield f"{section}.{f.name}", str(f.default)


# keys that take another key's value when left empty
INHERITS = {"mask.hop_k": "encoder.layers", "mask.seed": "run.seed"}

DEFAULTS: dict[str, str] = {key: "" if key in INHERITS else text
                            for key, text in _defaults(RunConfig, "run")}


def build_section(cls, section: str, values):
    """``cls`` built from the ``section.*`` entries of a flat config, its
    dataclass-typed fields from their own sections. A missing key, or a value
    that does not parse or that ``__post_init__`` rejects, is a ConfigError
    naming the key."""
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        kind = hints[f.name]
        if is_dataclass(kind):
            kwargs[f.name] = build_section(kind, f.name, values)
            continue
        key = f"{section}.{f.name}"
        if key not in values:
            raise ConfigError(f"{key} is missing")
        try:
            kwargs[f.name] = _PARSERS[kind](values[key])
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from e
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from e


def parse_config_file(path) -> dict[str, str]:
    text = read_input(path, "config", ConfigError)
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def effective_config(file_values: dict[str, str] | None,
                     overrides: dict[str, str] | None = None) -> dict[str, str]:
    """Merge defaults, file values, and flag overrides; validate keys."""
    merged = dict(DEFAULTS)
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            # the echo is read back line by line
            if "".join(value.splitlines()) != value:
                raise ConfigError(f"{key}: a value cannot contain a line break")
            # the echo is UTF-8; undecodable argv bytes arrive as lone surrogates
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as e:
                raise ConfigError(f"{key}: a value must be valid UTF-8") from e
            merged[key] = value
    for key, source in INHERITS.items():
        if merged[key] == "":
            merged[key] = merged[source]
    return merged


def format_effective(cfg: dict[str, str]) -> str:
    return "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg)) + "\n"
