"""Run configuration: YAML file plus flag overrides, unknown keys rejected.

Defaults follow the published hyperparameters: lr 1e-4 with step-20
gamma-0.5 schedule, Adam betas (0.9, 0.99), weight decay 1e-5, batch 20,
IMU window 15, loss weights alpha=1.0 lambda=0.1, voxel side 0.3 m with
0.01 m steps toward K=10240 +/- 100, projection f_w=180 eta=0.5 H=52 W=720.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import yaml

from .matching import LossWeights
from .pipeline import PipelineConfig, TrainParams
from .preprocess import VoxelParams
from .range_image import ProjectionConfig


class ConfigError(ValueError):
    pass


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# Sections and their keys are the config dataclasses' fields with a plain
# default, which also types the key's values; the loss weights appear as
# pipeline.alpha and pipeline.lam.
_NESTED = {"projection": ProjectionConfig, "voxel": VoxelParams, "train": TrainParams}
_SECTIONS = {
    "pipeline": {**_defaults(PipelineConfig), **_defaults(LossWeights)},
    **{sec: _defaults(cls) for sec, cls in _NESTED.items()},
}

def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for sec, vals in override.items():
        out.setdefault(sec, {}).update(vals)
    return out


def _check_sections(data: dict):
    """Every section known and a mapping of known keys."""
    if unknown := set(data) - set(_SECTIONS):
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for sec, vals in data.items():
        if not isinstance(vals, dict):
            raise ConfigError(f"section {sec} must be a mapping")
        if unknown := set(vals) - _SECTIONS[sec].keys():
            raise ConfigError(f"unknown {sec} keys: {sorted(unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(key: str, value, default):
    """value as the type of its field's default: float fields take a finite
    number or a string that reads as one (YAML reads 1e-4 as text), int
    fields a non-bool int, str fields a str, and the encoder widths a
    sequence of ints."""
    if isinstance(default, float):
        try:
            number = float(value) if _is_int(value) or isinstance(value, (float, str)) else None
        except (ValueError, OverflowError):
            number = None
        if number is not None and math.isfinite(number):
            return number
        kind = "a finite number"
    elif isinstance(default, int):
        if _is_int(value):
            return value
        kind = "an integer"
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
        kind = "a string"
    else:
        if isinstance(value, (list, tuple)) and all(map(_is_int, value)):
            return tuple(value)
        kind = "a list of integers"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def config_from_dict(data: dict) -> PipelineConfig:
    data = data or {}
    _check_sections(data)
    data = {sec: {key: _typed(f"{sec}.{key}", value, _SECTIONS[sec][key])
                  for key, value in vals.items()} for sec, vals in data.items()}
    pl = data.get("pipeline", {})
    try:
        weights = LossWeights(alpha=pl.pop("alpha", 1.0), lam=pl.pop("lam", 0.1))
        return PipelineConfig(weights=weights, **pl, **{
            sec: cls(**data.get(sec, {})) for sec, cls in _NESTED.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-data sections of cfg; the exact inverse of config_from_dict."""
    pipeline = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                if f.name in _SECTIONS["pipeline"]}
    pipeline["encoder_widths"] = list(cfg.encoder_widths)
    pipeline.update(alpha=cfg.weights.alpha, lam=cfg.weights.lam)
    return {"pipeline": pipeline, **{sec: asdict(getattr(cfg, sec)) for sec in _NESTED}}


def load_config(path=None, overrides: dict | None = None,
                base: dict | None = None) -> PipelineConfig:
    """Config file (without one, the `base` sections), then flag overrides,
    which win."""
    data = base or {}
    if path is not None:
        loaded = yaml.safe_load(Path(path).read_text()) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        data = loaded
    _check_sections(data)
    if overrides:
        _check_sections(overrides)
        data = _merge(data, overrides)
    return config_from_dict(data)


def dump_config(cfg: PipelineConfig, path):
    """Write the fully resolved configuration next to a run's outputs."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
