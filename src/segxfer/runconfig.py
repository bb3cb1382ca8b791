"""Run configuration: one flat, strictly-validated document for the
experiment harness.

Unknown keys are fatal on parse; a silently misspelled hyperparameter is the
easiest way to corrupt an experiment.  Every field is checked against its
annotation, whether the config is built directly or parsed from a dict.
"""

from __future__ import annotations

import math
import numbers
import types
import typing
from dataclasses import dataclass, fields, asdict

from .errors import ConfigError
from .synthdata import SynthConfig


@dataclass
class RunConfig:
    # synthetic data
    height: int = 32
    width: int = 32
    channels: int = 16
    num_classes: int = 4
    shift_classes: tuple[int, ...] = (2, 3)
    delta: float = 1.0
    sigma: float = 0.2
    noise_scales: tuple[float, ...] | None = None
    camouflage_classes: tuple[int, ...] = ()
    rectangular_layout: bool = True
    source_count: int = 200
    target_count: int = 200
    eval_count: int = 50

    # region clustering
    r: int = 4
    tau: float = 0.07
    cluster_iters: int = 6

    # domain discriminator
    disc_hidden: tuple[int, ...] = (64, 64)
    disc_epochs: int = 5
    disc_lr: float = 1e-3
    disc_batch: int = 16

    # segmentation model
    num_queries: int = 8
    model_channels: int = 16
    decoder_layers: int = 3
    ffn_hidden: int = 32
    lambda_m: float = 0.5
    p_t: float = 30.0

    # training
    source_steps: int = 500
    finetune_steps: int = 300
    batch_size: int = 8
    model_lr: float = 1e-2

    # experiment runs
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        for name, hint in _HINTS.items():
            setattr(self, name, _typed(name, hint, getattr(self, name)))
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not 0.0 <= self.p_t <= 100.0:
            raise ConfigError(f"p_t must be a percentile in [0, 100], got {self.p_t}")
        if not 0.0 <= self.lambda_m <= 1.0:
            raise ConfigError(f"lambda_m must lie in [0, 1], got {self.lambda_m}")
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        for name in ("source_count", "target_count", "eval_count", "r", "source_steps",
                     "finetune_steps", "batch_size", "disc_epochs", "disc_batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # delegate data-geometry validation (divisibility, shift set, ...)
        self.synth_config(self.seeds[0])
        if self.height % self.r or self.width % self.r:
            raise ConfigError(f"r={self.r} must divide {self.height}x{self.width}")

    def synth_config(self, seed: int) -> SynthConfig:
        """The data config of one seed: every field the two configs share,
        plus ``rectangular_layout`` under its data-side name."""
        shared = {f.name: getattr(self, f.name) for f in fields(SynthConfig) if f.name in _HINTS}
        return SynthConfig(**shared, rectangular=self.rectangular_layout, seed=seed)

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - set(_HINTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


def _typed(name: str, hint, value):
    """``value`` checked against the annotation ``hint`` (int, float, str,
    bool, a tuple of one of them, or ``X | None``).  Numbers must be finite
    and convert to the annotated type; a bool is never a number."""
    if isinstance(hint, types.UnionType):
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(name, typing.get_args(hint)[0], v) for v in value)
    if hint in (str, bool):
        if not isinstance(value, hint):
            raise ConfigError(f"{name} must be a {hint.__name__}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if hint is int and value % 1:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return hint(value)


_HINTS = typing.get_type_hints(RunConfig)
