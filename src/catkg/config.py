"""Run configuration and its flat dotted-key text format.

A config file is plain text, one ``section.key = value`` per line, with
``#`` comments and blank lines ignored::

    model.d = 64
    train.lr = 0.001
    data.train_path = data/fb15k-237/train.txt

Each key's section is declared with its :class:`TrainConfig` field.
Unknown or duplicate keys are hard errors, as are out-of-range and
non-finite values; there are no silently applied defaults for
misspelled keys. The format round-trips: ``parse(serialize(cfg))``
reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import tensor as T
from .attention import VARIANTS
from .errors import ConfigError, ParseError, PathError

DROPOUT_SITES = ("entity", "relation", "composite")
ENTROPY_SIGNS = ("subtract", "add")


def _in(section: str, default):
    """A field whose file key is ``<section>.<field name>``."""
    return dataclasses.field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class TrainConfig:
    d: int = _in("model", 64)
    heads: int = _in("model", 4)
    ff_multiplier: int = _in("model", 2)
    variant: str = _in("model", "cat")
    curvature: float = _in("model", 1.0)
    activation: str = _in("model", "gelu")
    batch_size: int = _in("train", 512)
    epochs: int = _in("train", 200)
    lr: float = _in("train", 0.001)
    weight_decay: float = _in("train", 0.001)
    beta1: float = _in("train", 0.9)
    beta2: float = _in("train", 0.999)
    adam_eps: float = _in("train", 1e-8)
    grad_clip: float = _in("train", 0.0)  # 0 disables the global-norm guard
    dropout: float = _in("train", 0.2)
    dropout_sites: str = _in("train", "entity,relation,composite")
    label_smoothing: float = _in("train", 0.1)
    lambda_ent_init: float = _in("train", 0.01)
    lambda_ent_decay: float = _in("train", 0.95)
    lambda_ent_min: float = _in("train", 0.001)
    entropy_sign: str = _in("train", "subtract")
    plateau_factor: float = _in("train", 0.5)
    plateau_patience: int = _in("train", 10)
    seed: int = _in("train", 0)
    train_path: str = _in("data", "")
    valid_path: str = _in("data", "")
    test_path: str = _in("data", "")

    def sites(self) -> tuple[str, ...]:
        """The dropout sites as a tuple (empty string means none)."""
        if not self.dropout_sites:
            return ()
        return tuple(s.strip() for s in self.dropout_sites.split(","))


# Dotted file key -> dataclass field, in serialization (declaration) order.
KEY_MAP: dict[str, str] = {f"{f.metadata['section']}.{f.name}": f.name
                           for f in dataclasses.fields(TrainConfig)}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[KEY_MAP[key]]
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def parse_config(text: str, source: str = "<config>") -> TrainConfig:
    """Parse dotted-key text into a validated :class:`TrainConfig`."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KEY_MAP:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        seen.add(key)
        values[KEY_MAP[key]] = _convert(key, raw)
    return validate(TrainConfig(**values))


def load_config(path) -> TrainConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PathError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: config file is not valid UTF-8") from exc
    return parse_config(text, source=str(path))


def serialize_config(cfg: TrainConfig) -> str:
    """Render a config in the dotted-key format (stable key order)."""
    lines = []
    for key, field_name in KEY_MAP.items():
        value = getattr(cfg, field_name)
        lines.append(f"{key} = {value!r}" if isinstance(value, float)
                     else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: TrainConfig, seed: int | None = None,
                    variant: str | None = None) -> TrainConfig:
    """Apply command-line overrides and re-validate."""
    updates: dict[str, object] = {}
    if seed is not None:
        updates["seed"] = seed
    if variant is not None:
        updates["variant"] = variant
    if not updates:
        return cfg
    return validate(dataclasses.replace(cfg, **updates))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate(cfg: TrainConfig) -> TrainConfig:
    for key, name in KEY_MAP.items():
        if _FIELD_TYPES[name] == "float":
            value = getattr(cfg, name)
            _require(math.isfinite(value), f"{key} must be finite, got {value}")
    _require(cfg.d >= 1, f"model.d must be >= 1, got {cfg.d}")
    _require(cfg.heads >= 1, f"model.heads must be >= 1, got {cfg.heads}")
    _require(cfg.d % cfg.heads == 0,
             f"model.d ({cfg.d}) must be divisible by model.heads ({cfg.heads})")
    _require(cfg.ff_multiplier >= 1,
             f"model.ff_multiplier must be >= 1, got {cfg.ff_multiplier}")
    _require(cfg.variant in VARIANTS,
             f"model.variant must be one of {VARIANTS}, got {cfg.variant!r}")
    _require(cfg.curvature > 0,
             f"model.curvature must be positive, got {cfg.curvature}")
    T.activation(cfg.activation)  # raises on unknown names
    _require(cfg.batch_size >= 1,
             f"train.batch_size must be >= 1, got {cfg.batch_size}")
    _require(cfg.epochs >= 1, f"train.epochs must be >= 1, got {cfg.epochs}")
    _require(cfg.lr > 0, f"train.lr must be positive, got {cfg.lr}")
    _require(cfg.weight_decay >= 0,
             f"train.weight_decay must be >= 0, got {cfg.weight_decay}")
    _require(0 <= cfg.beta1 < 1, f"train.beta1 must be in [0, 1), got {cfg.beta1}")
    _require(0 <= cfg.beta2 < 1, f"train.beta2 must be in [0, 1), got {cfg.beta2}")
    _require(cfg.adam_eps > 0, f"train.adam_eps must be positive, got {cfg.adam_eps}")
    _require(cfg.grad_clip >= 0, f"train.grad_clip must be >= 0, got {cfg.grad_clip}")
    _require(0 <= cfg.dropout < 1,
             f"train.dropout must be in [0, 1), got {cfg.dropout}")
    sites = cfg.sites()
    for site in sites:
        _require(site in DROPOUT_SITES,
                 f"train.dropout_sites: unknown site {site!r}; "
                 f"choose from {DROPOUT_SITES}")
    _require(len(set(sites)) == len(sites),
             f"train.dropout_sites has duplicates: {cfg.dropout_sites!r}")
    _require(0 <= cfg.label_smoothing < 1,
             f"train.label_smoothing must be in [0, 1), got {cfg.label_smoothing}")
    _require(cfg.lambda_ent_init >= 0,
             f"train.lambda_ent_init must be >= 0, got {cfg.lambda_ent_init}")
    _require(0 < cfg.lambda_ent_decay <= 1,
             f"train.lambda_ent_decay must be in (0, 1], got {cfg.lambda_ent_decay}")
    _require(cfg.lambda_ent_min >= 0,
             f"train.lambda_ent_min must be >= 0, got {cfg.lambda_ent_min}")
    _require(cfg.entropy_sign in ENTROPY_SIGNS,
             f"train.entropy_sign must be one of {ENTROPY_SIGNS}, "
             f"got {cfg.entropy_sign!r}")
    _require(0 < cfg.plateau_factor <= 1,
             f"train.plateau_factor must be in (0, 1], got {cfg.plateau_factor}")
    _require(cfg.plateau_patience >= 1,
             f"train.plateau_patience must be >= 1, got {cfg.plateau_patience}")
    _require(cfg.seed >= 0, f"train.seed must be >= 0, got {cfg.seed}")
    return cfg
