"""Flat key=value run configuration with profile-aware defaults.

A config file is UTF-8 text, one ``key = value`` per line, ``#`` starting a
comment. Unknown keys are rejected. Command-line flags override file
values; the fully resolved configuration is echoed into every output
directory as ``resolved_config.txt``.

The run-wide and model keys are ``RunConfig`` fields. Every other key is a
field of ``SynthConfig``, ``MatchConfig`` or ``TrainConfig`` and takes its
default from there. Their ``seed`` and ``shape_profile`` fields are not
keys: the run-wide ``seed`` and ``profile`` set them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import ModalitySet, ShapeProfile
from .errors import ConfigError
from .model import ModelSpec
from .registration import MatchConfig
from .synth import SynthConfig
from .text import key_value_lines
from .training import TrainConfig

RESOLVED_NAME = "resolved_config.txt"
_SECTIONS = ("synth", "match", "train")  # the RunConfig fields that hold sub-configs
_NOT_KEYS = ("seed", "shape_profile")  # sub-config fields the run-wide keys set


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


@dataclass
class RunConfig:
    # run-wide
    profile: str = "paper"
    modalities: str = "three"
    seed: int = 0
    repeats: int = 1
    holdout_recordings: int = 0
    # model; conv_filters/dense_units of -1 resolve per profile (ModelSpec's, or 16/32 reduced)
    conv_filters: int = -1
    dense_units: int = -1
    kernel_size: int = ModelSpec.kernel[0]
    dropout_rate: float = ModelSpec.dropout_rate
    # generator, registration and training keys, with their defaults
    synth: SynthConfig = field(default_factory=SynthConfig)
    match: MatchConfig = field(default_factory=MatchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def _key_owners(self) -> dict[str, object]:
        """Every flat key, mapped to the config object that holds its value."""
        owners = {f.name: self for f in fields(self) if f.name not in _SECTIONS}
        for section in _SECTIONS:
            sub = getattr(self, section)
            owners.update((f.name, sub) for f in fields(sub) if f.name not in _NOT_KEYS)
        return owners

    def resolve(self) -> None:
        try:
            ShapeProfile.named(self.profile)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.modalities not in [s.value for s in ModalitySet]:
            raise ConfigError(
                f"modalities must be one, two or three, got {self.modalities!r}"
            )
        if self.repeats < 1:
            raise ConfigError(f"repeats must be positive, got {self.repeats}")
        if self.holdout_recordings < 0:
            raise ConfigError("holdout_recordings must be non-negative")
        if self.conv_filters == -1:
            self.conv_filters = ModelSpec.conv_filters if self.profile == "paper" else 16
        if self.dense_units == -1:
            self.dense_units = ModelSpec.dense_units if self.profile == "paper" else 32
        # every key is checked here, before any command writes output
        for section in _SECTIONS:
            getattr(self, section).validate()
        mset = self.modality_set
        self.model_spec(mset, *self.shape_profile.network_input(mset)).validate()

    def model_spec(self, modality_set: ModalitySet, stacked_shape, radar_len: int) -> ModelSpec:
        """The model keys as a spec for inputs of the given shapes."""
        kernel = (self.kernel_size, self.kernel_size)
        return ModelSpec(
            modality_set, tuple(stacked_shape), radar_len, self.conv_filters, kernel,
            self.dense_units, self.dropout_rate,
        )

    @property
    def shape_profile(self) -> ShapeProfile:
        return ShapeProfile.named(self.profile)

    @property
    def modality_set(self) -> ModalitySet:
        return ModalitySet(self.modalities)

    def synth_config(self) -> SynthConfig:
        return replace(self.synth, seed=self.seed, shape_profile=self.shape_profile)

    def train_config(self, seed: int) -> TrainConfig:
        return replace(self.train, seed=seed)

    def resolved_lines(self) -> str:
        owners = sorted(self._key_owners().items())
        return key_value_lines({key: getattr(owner, key) for key, owner in owners})

    def write_resolved(self, out_dir) -> None:
        """Echo the keys into ``out_dir``; the one place the CLI makes an output directory."""
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / RESOLVED_NAME).write_text(self.resolved_lines(), encoding="utf-8")


_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}


def parse_config_file(path) -> dict[str, str]:
    """Raw key -> text mapping from a ``key = value`` file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_run_config(config_path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then CLI overrides; then resolve."""
    cfg = RunConfig()
    owners = cfg._key_owners()

    def apply(key: str, text_or_value, where: str) -> None:
        if key not in owners:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if isinstance(text_or_value, str):
            try:
                value = _PARSERS[type(getattr(owners[key], key))](text_or_value)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key}: {exc}") from None
        else:
            value = text_or_value
        setattr(owners[key], key, value)

    if config_path is not None:
        for key, text in parse_config_file(config_path).items():
            apply(key, text, str(config_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            apply(key, value, "command line")
    cfg.resolve()
    return cfg
