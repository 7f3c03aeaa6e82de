"""Run configuration: YAML file plus flag overrides, unknown keys rejected.

Defaults follow the published hyperparameters: lr 1e-4 with step-20
gamma-0.5 schedule, Adam betas (0.9, 0.99), weight decay 1e-5, batch 20,
IMU window 15, loss weights alpha=1.0 lambda=0.1, voxel side 0.3 m with
0.01 m steps toward K=10240 +/- 100, projection f_w=180 eta=0.5 H=52 W=720.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path

import yaml

from .matching import LossWeights
from .pipeline import PipelineConfig, TrainParams
from .preprocess import VoxelParams
from .range_image import ProjectionConfig


class ConfigError(ValueError):
    pass


# Sections and their keys are the config dataclasses' fields; the loss
# weights appear as pipeline.alpha and pipeline.lam.
_NESTED = {"projection": ProjectionConfig, "voxel": VoxelParams, "train": TrainParams}
_SECTIONS = {
    "pipeline": {f.name for f in fields(PipelineConfig)} - {"weights", *_NESTED} | {"alpha", "lam"},
    **{sec: {f.name for f in fields(cls)} for sec, cls in _NESTED.items()},
}

# Preset config fragments matching the published ablation families.
ABLATION_PRESETS = {
    "imu-initial-pose": {"pipeline": {"imu_mode": "initial-pose"}},
    "imu-feature-concat": {"pipeline": {"imu_mode": "feature-concat"}},
    "no-imu": {"pipeline": {"imu_mode": "none"}},
    "two-branch": {"pipeline": {"head_mode": "two-branch"}},
    "merged-heads": {"pipeline": {"head_mode": "merged"}},
    "vertex-only": {"pipeline": {"head_mode": "vertex-only"}},
    "attention-head": {"pipeline": {"head_type": "attention"}},
    "fc-head": {"pipeline": {"head_type": "fc-activation"}},
    "nearest-matching": {"pipeline": {"matching": "nearest"}},
    "pixel-matching": {"pipeline": {"matching": "pixel"}},
    "no-point-to-plane": {"pipeline": {"alpha": 0.0}},
    "no-plane-to-plane": {"pipeline": {"lam": 0.0}},
}


def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for sec, vals in override.items():
        out.setdefault(sec, {}).update(vals)
    return out


def config_from_dict(data: dict) -> PipelineConfig:
    data = data or {}
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for sec, vals in data.items():
        if not isinstance(vals, dict):
            raise ConfigError(f"section {sec} must be a mapping")
        if unknown := set(vals) - _SECTIONS[sec]:
            raise ConfigError(f"unknown {sec} keys: {sorted(unknown)}")
    pl = dict(data.get("pipeline", {}))
    try:
        weights = LossWeights(alpha=pl.pop("alpha", 1.0), lam=pl.pop("lam", 0.1))
        if "encoder_widths" in pl:
            pl["encoder_widths"] = tuple(pl["encoder_widths"])
        return PipelineConfig(weights=weights, **pl, **{
            sec: cls(**data.get(sec, {})) for sec, cls in _NESTED.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-data sections of cfg; the exact inverse of config_from_dict."""
    pipeline = {f.name: getattr(cfg, f.name) for f in fields(cfg)
                if f.name in _SECTIONS["pipeline"]}
    pipeline["encoder_widths"] = list(cfg.encoder_widths)
    pipeline.update(alpha=cfg.weights.alpha, lam=cfg.weights.lam)
    return {"pipeline": pipeline, **{sec: asdict(getattr(cfg, sec)) for sec in _NESTED}}


def load_config(path=None, overrides: dict | None = None,
                preset: str | None = None, base: dict | None = None) -> PipelineConfig:
    """Config file (without one, the `base` sections) -> preset -> flag overrides.

    Later layers win.
    """
    data = base or {}
    if path is not None:
        loaded = yaml.safe_load(Path(path).read_text()) or {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        data = loaded
    if preset is not None:
        if preset not in ABLATION_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; know {sorted(ABLATION_PRESETS)}")
        data = _merge(data, ABLATION_PRESETS[preset])
    if overrides:
        data = _merge(data, overrides)
    return config_from_dict(data)


def dump_config(cfg: PipelineConfig, path):
    """Write the fully resolved configuration next to a run's outputs."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
