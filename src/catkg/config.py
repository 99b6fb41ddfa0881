"""Run configuration and its flat dotted-key text format.

A config file is plain text, one ``section.key = value`` per line, with
``#`` comments and blank lines ignored::

    model.d = 64
    train.lr = 0.001
    data.train_path = data/fb15k-237/train.txt

Each key's section and valid range are declared with its
:class:`TrainConfig` field, and a config checks itself when it is built,
whether parsed, constructed or copied by ``dataclasses.replace``.
Unknown or duplicate keys are hard errors, as are out-of-range and
non-finite values; there are no silently applied defaults for
misspelled keys. A string value may not start or end with a blank or
hold a line break, so the format round-trips: ``parse(serialize(cfg))``
reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .attention import VARIANTS
from .errors import ConfigError, ParseError, PathError


# A range rule, named by the wording of its error message.
_RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "positive": lambda v: v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
}

# A field type: the values it admits, its parser, its error noun.
_KINDS = {"int": (numbers.Integral, int, "an integer"),
          "float": (numbers.Real, float, "a number"),
          "str": (str, str, "a string")}


def _in(section: str, default, rule: str | tuple | None = None):
    """A field whose file key is ``<section>.<field name>``; its value must
    pass ``rule``, a :data:`_RULES` name or a tuple of allowed values."""
    return dataclasses.field(default=default,
                             metadata={"section": section, "rule": rule})


@dataclass(frozen=True)
class TrainConfig:
    d: int = _in("model", 64, ">= 1")
    heads: int = _in("model", 4, ">= 1")
    ff_multiplier: int = _in("model", 2, ">= 1")
    variant: str = _in("model", "cat", VARIANTS)
    batch_size: int = _in("train", 512, ">= 1")
    epochs: int = _in("train", 200, ">= 1")
    lr: float = _in("train", 0.001, "positive")
    weight_decay: float = _in("train", 0.001, ">= 0")
    dropout: float = _in("train", 0.2, "in [0, 1)")
    label_smoothing: float = _in("train", 0.1, "in [0, 1)")
    lambda_ent_init: float = _in("train", 0.01, ">= 0")
    plateau_patience: int = _in("train", 10, ">= 1")
    seed: int = _in("train", 0, ">= 0")
    train_path: str = _in("data", "")
    valid_path: str = _in("data", "")
    test_path: str = _in("data", "")

    def __post_init__(self) -> None:
        validate(self)


# Dotted file key -> dataclass field, in serialization (declaration) order.
_FIELDS = {f"{f.metadata['section']}.{f.name}": f
           for f in dataclasses.fields(TrainConfig)}
KEY_MAP: dict[str, str] = {key: f.name for key, f in _FIELDS.items()}


def _convert(key: str, raw: str):
    _, parse, noun = _KINDS[_FIELDS[key].type]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {noun}, got {raw!r}") from None


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
    return TrainConfig(**values)


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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate(cfg: TrainConfig) -> TrainConfig:
    """Raise :class:`ConfigError` at the first value ``cfg`` may not hold:
    types, finiteness and string form first, then each field's rule,
    then ``model.d``'s divisibility by ``model.heads``."""
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        kind, _, noun = _KINDS[f.type]
        # bool is an Integral, but True is no epoch count or rate.
        _require(isinstance(value, kind) and not isinstance(value, bool),
                 f"{key}: expected {noun}, got {value!r}")
        if f.type == "float":
            _require(math.isfinite(value), f"{key} must be finite, got {value}")
        if f.type == "str":  # parse_config strips values, one line per key
            _require(value == value.strip() and len(value.splitlines()) <= 1,
                     f"{key} must have no outer blanks or line breaks, got "
                     f"{value!r}")
    for key, f in _FIELDS.items():
        rule, value = f.metadata["rule"], getattr(cfg, f.name)
        if isinstance(rule, tuple):
            _require(value in rule, f"{key} must be one of {rule}, got {value!r}")
        elif rule is not None:
            _require(_RULES[rule](value), f"{key} must be {rule}, got {value}")
    _require(cfg.d % cfg.heads == 0,
             f"model.d ({cfg.d}) must be divisible by model.heads ({cfg.heads})")
    return cfg
