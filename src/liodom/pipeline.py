"""End-to-end odometry dataflow, unsupervised training, and sequence inference.

Per frame pair: the IMU branch predicts an initial pose, the current maps
are remapped by it, residual rotation/translation come from encoder
features through the configured heads, and the final estimate is the
composition residual * initial. Training backpropagates the registration
loss through the composition into both branches with correspondences
frozen: both factor gradients are `matching.loss_gradient` calls, one on
the hat-moved source and one against targets pulled back through the
residual. Gradients are not propagated through the discrete remap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Pose, apply_to_point, compose
from .matching import (
    CorrespondenceSet,
    EmptyMatchError,
    KdIndex,
    LossWeights,
    build_index,
    loss_gradient,
    loss_terms,
    match_nearest,
    transformed_cloud,
)
from .nn import LSTM, Adam, AttentionHead, FcActivationHead, Linear, MapEncoder, Module, StepLR
from .preprocess import PreprocessedCloud, VoxelParams
from .range_image import NormalMap, ProjectionConfig, VertexMap, compute_normal_map, project, project_with_indices, remap
from .registration import RegistrationError, register

IMU_MODES = ("initial-pose", "feature-concat", "none")
HEAD_MODES = ("two-branch", "merged", "vertex-only")
HEAD_TYPES = ("attention", "fc-activation")
MATCHING = ("nearest", "pixel")


@dataclass(frozen=True)
class TrainParams:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 1e-5
    lr_step_size: int = 20
    lr_gamma: float = 0.5
    batch_size: int = 20
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "lr_step_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"train.{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class PipelineConfig:
    imu_mode: str = "initial-pose"
    head_mode: str = "two-branch"
    head_type: str = "attention"
    matching: str = "nearest"
    feature_dim: int = 256
    encoder_widths: tuple = (16, 32, 64)
    lstm_hidden: int = 64
    imu_window: int = 15
    q_scale: float = 0.1        # keeps raw head outputs in the small-angle regime
    max_match_dist: float = 1.0
    weights: LossWeights = field(default_factory=LossWeights)
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    voxel: VoxelParams = field(default_factory=VoxelParams)
    train: TrainParams = field(default_factory=TrainParams)

    def __post_init__(self):
        if self.imu_mode not in IMU_MODES:
            raise ValueError(f"imu_mode must be one of {IMU_MODES}")
        if self.head_mode not in HEAD_MODES:
            raise ValueError(f"head_mode must be one of {HEAD_MODES}")
        if self.head_type not in HEAD_TYPES:
            raise ValueError(f"head_type must be one of {HEAD_TYPES}")
        if self.matching not in MATCHING:
            raise ValueError(f"matching must be one of {MATCHING}")
        if self.imu_window < 1:
            raise ValueError(f"imu_window must be at least 1, got {self.imu_window}")
        if not self.max_match_dist > 0:
            raise ValueError(f"max_match_dist must be positive, got {self.max_match_dist}")


@dataclass
class FramePair:
    """Everything one training/inference step needs for a scan pair."""

    v_last: VertexMap
    n_last: NormalMap
    v_cur: VertexMap
    n_cur: NormalMap
    last_cloud: PreprocessedCloud
    cur_cloud: PreprocessedCloud
    imu: np.ndarray | None = None      # (S, 6): lin acc 0-2, ang vel 3-5
    _index: KdIndex | None = None

    def target_index(self) -> KdIndex:
        if self._index is None:
            self._index = build_index(self.last_cloud)
        return self._index


def _make_head(head_type: str, dim: int, rng):
    return AttentionHead(dim, rng) if head_type == "attention" else FcActivationHead(dim, rng)


class OdometryModel(Module):
    """Siamese IMU LSTMs, map-pair encoders, and residual-pose heads.

    The ablations are one table of feature blocks: `feature_blocks` sizes
    each block the model produces (`v`; `n` unless vertex-only; `imu`, the
    LSTM states, in feature-concat mode) and `head_inputs` lists the blocks
    each head reads. The forward concatenates and the backward splits by it.

    Output FC layers are zero-initialized so the untrained network emits
    the identity pose. In merged and vertex-only head modes head_q is
    head_t, so its parameters are named and stepped once, as head_t.
    """

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(cfg.train.seed)
        self.cfg = cfg
        F = cfg.feature_dim
        self.lstm_gyro = LSTM(3, cfg.lstm_hidden, rng)
        self.lstm_acc = LSTM(3, cfg.lstm_hidden, rng)
        self.fc_q_init = Linear(cfg.lstm_hidden, 3, zero_init=True)
        self.fc_t_init = Linear(cfg.lstm_hidden, 3, zero_init=True)
        self.vertex_encoder = MapEncoder(cfg.encoder_widths, F, rng=rng)
        self.normal_encoder = None
        self.feature_blocks = {"v": F}
        if cfg.head_mode != "vertex-only":
            self.normal_encoder = MapEncoder(cfg.encoder_widths, F, rng=rng)
            self.feature_blocks["n"] = F
        if cfg.imu_mode == "feature-concat":
            self.feature_blocks["imu"] = 2 * cfg.lstm_hidden
        t_reads = ("v", "imu") if cfg.head_mode == "two-branch" else ("v", "n", "imu")
        self.head_inputs = {head: tuple(b for b in reads if b in self.feature_blocks)
                            for head, reads in (("t", t_reads), ("q", ("v", "n", "imu")))}
        self.t_dim, self.q_dim = (sum(self.feature_blocks[b] for b in self.head_inputs[h])
                                  for h in ("t", "q"))
        self.head_t = _make_head(cfg.head_type, self.t_dim, rng)
        self.head_q = self.head_t
        if cfg.head_mode == "two-branch":
            self.head_q = _make_head(cfg.head_type, self.q_dim, rng)
        self.out_t = Linear(self.t_dim, 3, zero_init=True)
        self.out_q = Linear(self.q_dim, 3, zero_init=True)

    # -- forward / backward -------------------------------------------------

    def initial_pose(self, window: np.ndarray | None):
        """(initial Pose, `imu` block or None): in initial-pose mode the gyro
        hidden state gives q and the accelerometer's gives t."""
        mode = self.cfg.imu_mode
        if mode == "none":
            return Pose.identity(), None
        if window is None:
            raise ValueError(f"imu_mode={mode} requires an IMU window")
        window = np.asarray(window, dtype=float)
        _, h_g = self.lstm_gyro(window[None, :, 3:6])
        _, h_a = self.lstm_acc(window[None, :, 0:3])
        if mode == "feature-concat":
            return Pose.identity(), np.concatenate([h_g[0], h_a[0]])
        return Pose(q=self.fc_q_init(h_g)[0], t=self.fc_t_init(h_a)[0]), None

    def residual_pose(self, v_pair: np.ndarray, n_pair: np.ndarray | None,
                      imu_feats: np.ndarray | None) -> Pose:
        """Residual pose from stacked map pairs (6, H, W) and optional IMU features."""
        blocks = {"v": self.vertex_encoder(v_pair[None])[0], "imu": imu_feats}
        if self.normal_encoder is not None:
            if n_pair is None:
                raise ValueError("head mode requires a normal-map pair")
            blocks["n"] = self.normal_encoder(n_pair[None])[0]
        x_t, x_q = (np.concatenate([blocks[b] for b in self.head_inputs[h]])[None]
                    for h in ("t", "q"))
        h_t = self.head_t(x_t)
        h_q = h_t if self.head_q is self.head_t else self.head_q(x_q)
        return Pose(q=self.cfg.q_scale * self.out_q(h_q)[0], t=self.out_t(h_t)[0])

    def backward(self, grad_delta: np.ndarray, grad_hat: np.ndarray):
        """Backprop the loss gradients on the residual and initial pose vectors."""
        gh_q = self.out_q.backward(np.atleast_2d(self.cfg.q_scale * grad_delta[:3]))
        gh_t = self.out_t.backward(np.atleast_2d(grad_delta[3:]))
        if self.head_q is self.head_t:     # one backward on the summed output gradients
            head_grads = {"t": self.head_t.backward(gh_t + gh_q)[0]}
        else:
            head_grads = {"t": self.head_t.backward(gh_t)[0], "q": self.head_q.backward(gh_q)[0]}
        grads = {}
        for head, gx in head_grads.items():
            reads = self.head_inputs[head]
            parts = np.split(gx, np.cumsum([self.feature_blocks[b] for b in reads])[:-1])
            for b, part in zip(reads, parts):
                grads[b] = grads[b] + part if b in grads else part
        self.vertex_encoder.backward(grads["v"][None])
        if self.normal_encoder is not None:
            self.normal_encoder.backward(grads["n"][None])
        if self.cfg.imu_mode == "initial-pose":
            gh_g = self.fc_q_init.backward(np.atleast_2d(grad_hat[:3]))
            gh_a = self.fc_t_init.backward(np.atleast_2d(grad_hat[3:]))
        elif self.cfg.imu_mode == "feature-concat":
            gh_g, gh_a = np.split(grads["imu"][None], 2, axis=1)
        else:
            return
        self.lstm_gyro.backward(grad_h_final=gh_g)
        self.lstm_acc.backward(grad_h_final=gh_a)


@dataclass
class PairDiagnostics:
    initial: Pose = field(default_factory=Pose.identity)
    residual: Pose = field(default_factory=Pose.identity)
    matches: int = 0
    loss: float = float("nan")


def estimate_pair(fp: FramePair, model: OdometryModel, cfg: PipelineConfig):
    """Forward pass for one pair: returns (Pose, PairDiagnostics)."""
    t_hat, imu_feats = model.initial_pose(fp.imu)
    # feature-concat and none skip the remap step entirely
    v_cur, n_cur = fp.v_cur, fp.n_cur
    if cfg.imu_mode == "initial-pose":
        v_cur, n_cur = remap(fp.v_cur, fp.n_cur, t_hat, cfg.projection)
    v_pair = np.concatenate([_map_tensor(fp.v_last), _map_tensor(v_cur)])
    n_pair = None
    if model.normal_encoder is not None:
        n_pair = np.concatenate([_map_tensor(fp.n_last), _map_tensor(n_cur)])
    delta = model.residual_pose(v_pair, n_pair, imu_feats)
    pose = compose(delta, t_hat)
    return pose, PairDiagnostics(initial=t_hat, residual=delta)


def _map_tensor(m) -> np.ndarray:
    return np.transpose(m.grid, (2, 0, 1))


def pixel_correspondences(fp: FramePair, pose: Pose, cfg: ProjectionConfig):
    """Pixel-to-pixel matching, frozen at `pose`, over the loss clouds' maps.

    Source points are the current map's vertices; the transformed copies
    are scattered back onto the grid and matched against the last map at
    identical pixels. Returns (source pseudo-cloud, CorrespondenceSet).
    """
    src_mask = fp.v_cur.valid & fp.n_cur.valid
    if not src_mask.any():
        raise EmptyMatchError("pixel matching found no current pixel with a valid normal")
    source = PreprocessedCloud(fp.v_cur.grid[src_mask], fp.n_cur.grid[src_mask])
    _, winner = project_with_indices(apply_to_point(pose, source.points), cfg)
    both = (winner >= 0) & fp.v_last.valid & fp.n_last.valid
    if not both.any():
        raise EmptyMatchError("pixel matching found no shared valid pixels")
    return source, CorrespondenceSet(winner[both], fp.v_last.grid[both], fp.n_last.grid[both])


def pair_loss(fp: FramePair, pose: Pose, cfg: PipelineConfig):
    """(source cloud, correspondences, `loss_terms`) at a predicted pose."""
    if cfg.matching == "pixel":
        source, corr = pixel_correspondences(fp, pose, cfg.projection)
    else:
        source = fp.cur_cloud
        corr = match_nearest(transformed_cloud(source, pose), fp.target_index(),
                             max_dist=cfg.max_match_dist)
    return source, corr, loss_terms(pose.as_vector(), source, corr)


def composed_pose_gradients(p_delta: np.ndarray, p_hat: np.ndarray,
                            source: PreprocessedCloud, corr: CorrespondenceSet,
                            weights: LossWeights):
    """Loss gradients w.r.t. both composition factors, matches frozen.

    The composed transform is y = R_h s + t_h, then R_d y + t_d. The delta
    gradient is the plain pose gradient over the hat-moved source. The hat
    gradient is the plain pose gradient against targets pulled back through
    the delta, n_t -> R_d^T n_t and t_p -> R_d^T (t_p - t_d), since
    n_t . (R_d y + t_d - t_p) = (R_d^T n_t) . (y - R_d^T (t_p - t_d)) and
    |R_d m - n_t| = |m - R_d^T n_t|.
    """
    hat = Pose.from_vector(p_hat)
    delta = Pose.from_vector(p_delta)
    grad_delta = loss_gradient(p_delta, transformed_cloud(source, hat), corr, weights)
    R_d = delta.rotation
    pulled = replace(corr, tgt_points=(corr.tgt_points - delta.t) @ R_d,
                     tgt_normals=corr.tgt_normals @ R_d)
    grad_hat = loss_gradient(p_hat, source, pulled, weights)
    return grad_delta, grad_hat


class NonFinitePairError(ArithmeticError):
    """A training pair's predicted pose, loss or pose gradient is not finite."""


@dataclass
class EpochStats:
    mean_loss: float
    mean_po2pl: float
    mean_pl2pl: float
    pairs_used: int
    pairs_skipped: int
    learning_rate: float


def train_step(fp: FramePair, model: OdometryModel, cfg: PipelineConfig):
    """Forward + backward for one pair; gradients accumulate on the model.

    Raises NonFinitePairError, before any backward, if the predicted pose,
    the loss or a pose gradient is not finite.
    """
    pose, diag = estimate_pair(fp, model, cfg)
    if not np.isfinite(pose.as_vector()).all():
        raise NonFinitePairError("predicted pose is not finite")
    source, corr, terms = pair_loss(fp, pose, cfg)
    diag.matches = len(corr)
    diag.loss = cfg.weights.combine(terms)
    p_delta = diag.residual.as_vector()
    p_hat = diag.initial.as_vector()
    grad_delta, grad_hat = composed_pose_gradients(p_delta, p_hat, source, corr, cfg.weights)
    if not (np.isfinite(diag.loss) and np.isfinite(grad_delta).all()
            and np.isfinite(grad_hat).all()):
        raise NonFinitePairError("loss or pose gradient is not finite")
    model.backward(grad_delta, grad_hat)
    return diag.loss, terms, diag


def train_epoch(pairs, model: OdometryModel, optimizer: Adam,
                cfg: PipelineConfig, epoch: int = 0,
                scheduler: StepLR | None = None) -> EpochStats:
    """One pass over the dataset in batches; Adam step per batch.

    Pairs without matches or with a non-finite pose, loss or gradient are
    skipped and counted in `pairs_skipped`.
    """
    if scheduler is not None:
        scheduler.set_epoch(epoch)
    model.set_training(True)
    bs = cfg.train.batch_size
    losses, po, pl = [], [], []
    skipped = 0
    for start in range(0, len(pairs), bs):
        batch = pairs[start:start + bs]
        model.zero_grad()
        used = 0
        for fp in batch:
            try:
                loss, terms, _ = train_step(fp, model, cfg)
            except (EmptyMatchError, NonFinitePairError):
                skipped += 1
                continue
            losses.append(loss)
            po.append(terms[0])
            pl.append(terms[1])
            used += 1
        if used == 0:
            continue
        for p in model.parameters().values():
            p.grad /= used
        optimizer.step()
    model.set_training(False)
    return EpochStats(
        mean_loss=float(np.mean(losses)) if losses else float("nan"),
        mean_po2pl=float(np.mean(po)) if po else float("nan"),
        mean_pl2pl=float(np.mean(pl)) if pl else float("nan"),
        pairs_used=len(losses), pairs_skipped=skipped,
        learning_rate=optimizer.lr,
    )


def build_frame_pairs(scans, cfg: PipelineConfig, imu_windows=None,
                      clouds=None) -> list[FramePair]:
    """Assemble FramePairs from sensor-frame scans.

    `scans` is a list of (N, 3) arrays (or objects with .points/.normals
    such as synthetic scenes). Loss-side clouds may be passed precomputed;
    otherwise scans with analytic normals use them directly and raw arrays
    go through the full preprocess pipeline.
    """
    from .preprocess import adaptive_voxel_downsample, preprocess_cloud

    def points_of(s):
        return s.points if hasattr(s, "points") else np.asarray(s, dtype=float)

    maps = []
    for s in scans:
        vm = project(points_of(s), cfg.projection)
        maps.append((vm, compute_normal_map(vm)))
    if clouds is None:
        clouds = []
        for s in scans:
            if hasattr(s, "normals"):
                clouds.append(adaptive_voxel_downsample(points_of(s), s.normals, cfg.voxel))
            else:
                clouds.append(preprocess_cloud(points_of(s), cfg.voxel))
    pairs = []
    for k in range(len(scans) - 1):
        pairs.append(FramePair(
            v_last=maps[k][0], n_last=maps[k][1],
            v_cur=maps[k + 1][0], n_cur=maps[k + 1][1],
            last_cloud=clouds[k], cur_cloud=clouds[k + 1],
            imu=None if imu_windows is None else imu_windows[k],
        ))
    return pairs


def run_sequence(pairs, mode: str, cfg: PipelineConfig,
                 model: OdometryModel | None = None):
    """Chain per-pair estimates into absolute poses (first pose identity).

    Modes: learned (network only), classical (registration from identity),
    hybrid (registration warm-started from the learned pose). A pair whose
    registration fails keeps its initial pose (identity in classical mode,
    the learned pose in hybrid) and is flagged.
    """
    if mode not in ("learned", "classical", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("learned", "hybrid") and model is None:
        raise ValueError(f"mode {mode!r} needs a model")
    relatives = []
    flags = []
    for fp in pairs:
        init = Pose.identity()
        if mode in ("learned", "hybrid"):
            init, _ = estimate_pair(fp, model, cfg)
        if mode == "learned":
            relatives.append(init)
            flags.append("ok")
            continue
        try:
            pose, _ = register(fp.cur_cloud, fp.last_cloud, init=init,
                               max_match_dist=cfg.max_match_dist, weights=cfg.weights)
            relatives.append(pose)
            flags.append("ok")
        except RegistrationError as exc:
            relatives.append(exc.pose)
            flags.append("registration-failed")
    from .evaluation import accumulate

    return accumulate(relatives), relatives, flags
