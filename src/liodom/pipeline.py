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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import accumulate
from .geometry import Pose, apply_to_point, compose
from .matching import (
    CorrespondenceSet,
    EmptyMatchError,
    LossWeights,
    build_index,
    loss_gradient,
    loss_terms,
    match_nearest,
    transformed_cloud,
)
from .nn import LSTM, Adam, AttentionHead, FcActivationHead, Linear, MapEncoder, Module, StepLR
from .preprocess import PreprocessedCloud, VoxelParams, adaptive_voxel_downsample, preprocess_cloud
from .range_image import NormalMap, ProjectionConfig, VertexMap, compute_normal_map, project, project_with_indices, remap
from .registration import register

IMU_MODES = ("initial-pose", "feature-concat", "none")
HEAD_MODES = ("two-branch", "merged", "vertex-only")
HEAD_TYPES = ("attention", "fc-activation")
MATCHING = ("nearest", "pixel")
# The fewest stem output elements (B * widths[0] * H * W) at which the two
# map encoders run on two threads. Below it numpy's small array loops
# hold the GIL, and the interpreter's switch interval serialises the threads.
# Both encoders' forward plus backward, medians of two runs, one BLAS thread
# on a 2-vCPU host: at train-smoke's 9,216 they ran 1.8x slower concurrently
# (7.4-7.6 against 13.4-14.1 ms), at 16,384 1.4x slower, at 2^15 even
# (1.02-1.07x faster), and at the paper's 599,040 1.6-1.7x faster
# (ROADMAP, "Not levers").
CONCURRENT_STEM_SIZE = 2 ** 15


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
        for name in ("batch_size", "lr_step_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"train.{name} must be at least 1, got {getattr(self, name)}")
        if not (self.learning_rate > 0 and self.lr_gamma > 0):
            raise ValueError(f"train.learning_rate and train.lr_gamma must be positive, "
                             f"got {self.learning_rate} and {self.lr_gamma}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"train.{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.weight_decay >= 0:
            raise ValueError(f"train.weight_decay must be non-negative, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"train.seed must be non-negative, got {self.seed}")


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
        for name, choices in (("imu_mode", IMU_MODES), ("head_mode", HEAD_MODES),
                              ("head_type", HEAD_TYPES), ("matching", MATCHING)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}")
        for name in ("feature_dim", "lstm_hidden", "imu_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if len(self.encoder_widths) != 3 or not all(isinstance(w, int) and w >= 1
                                                    for w in self.encoder_widths):
            raise ValueError(f"encoder_widths must be three integers of at least 1, "
                             f"got {self.encoder_widths}")
        if not self.max_match_dist > 0:
            raise ValueError(f"max_match_dist must be positive, got {self.max_match_dist}")
        if min(self.projection.H, self.projection.W) < MapEncoder.FLOOR:
            raise ValueError(f"projection.H and projection.W must be at least {MapEncoder.FLOOR}, "
                             f"the map encoders' floor, got {self.projection.H} and "
                             f"{self.projection.W}")


class Frame:
    """One scan and its two products: the vertex and normal maps that the
    network reads, and the loss-side cloud that the loss and registration
    read.

    Each product is built on its first read, once, and kept. The cloud is
    the precomputed one when given, else a voxel downsample of the scan's
    analytic `normals`, else the full preprocess of the raw points. Once a
    frame holds both products it drops `points` and `normals` (both become
    None), which nothing reads any more. A frame holds no lock: each
    consumer builds what it reads with `_build` before any reader runs, so
    no two threads build the same product.
    """

    def __init__(self, points: np.ndarray, cfg: PipelineConfig,
                 normals: np.ndarray | None = None, cloud: PreprocessedCloud | None = None):
        self.points = points
        self.normals = normals
        self.cfg = cfg
        self._maps = None
        self._cloud = cloud

    @property
    def maps(self) -> tuple[VertexMap, NormalMap]:
        if self._maps is None:
            vm = project(self.points, self.cfg.projection)
            self._maps = vm, compute_normal_map(vm)
            self._drop_scan()
        return self._maps

    @property
    def cloud(self) -> PreprocessedCloud:
        if self._cloud is None:
            self._cloud = (preprocess_cloud(self.points, self.cfg.voxel) if self.normals is None
                           else adaptive_voxel_downsample(self.points, self.normals, self.cfg.voxel))
            self._drop_scan()
        return self._cloud

    def _drop_scan(self):
        if self._maps is not None and self._cloud is not None:
            self.points = self.normals = None


@dataclass(frozen=True)
class FramePair:
    """Everything one training/inference step needs for a scan pair. The
    map and cloud fields read through to the two frames."""

    last: Frame
    cur: Frame
    imu: np.ndarray | None = None      # (S, 6): lin acc 0-2, ang vel 3-5

    v_last = property(lambda self: self.last.maps[0])
    n_last = property(lambda self: self.last.maps[1])
    v_cur = property(lambda self: self.cur.maps[0])
    n_cur = property(lambda self: self.cur.maps[1])
    last_cloud = property(lambda self: self.last.cloud)
    cur_cloud = property(lambda self: self.cur.cloud)


def _frames(pairs) -> list[Frame]:
    """The distinct frames of `pairs`, in order of first appearance."""
    return list(dict.fromkeys(f for fp in pairs for f in (fp.last, fp.cur)))


def _build(pairs, maps: bool, cloud: bool):
    """Build the products a consumer reads, for every frame of `pairs` that
    lacks one, one frame per worker thread (`_pool_map`)."""
    todo = [f for f in _frames(pairs)
            if (maps and f._maps is None) or (cloud and f._cloud is None)]
    if todo:     # reading a product builds it
        _pool_map(lambda f: (maps and f.maps, cloud and f.cloud), todo)


def built_clouds(pairs) -> list[PreprocessedCloud]:
    """The loss-side clouds that the frames of `pairs` hold so far, in frame
    order; a frame whose cloud was never read adds none."""
    return [f._cloud for f in _frames(pairs) if f._cloud is not None]


def _make_head(head_type: str, dim: int, rng):
    return AttentionHead(dim, rng) if head_type == "attention" else FcActivationHead(dim, rng)


class OdometryModel(Module):
    """Siamese IMU LSTMs, map-pair encoders, and residual-pose heads.

    The heads read one feature vector x: the vertex features `v`, then the
    normal features `n` unless vertex-only, then the two LSTM states in
    feature-concat mode. head_q reads all of x; head_t reads
    `x[:, t_columns]`, which in two-branch mode leaves out the `n` columns.
    Every method takes and returns arrays with a leading batch axis B.

    Output FC layers are zero-initialized so the untrained network emits
    the identity pose. In merged and vertex-only head modes there is one
    head, head_t, and head_q is None: out_q reads head_t's output.

    The network runs in float32: its parameters, buffers, activations and
    gradients. Parameters are drawn in float64, then cast once. Each layer
    casts its input to its parameters' dtype; the model casts the pose
    gradients `backward` takes to the network's dtype, and the pose vectors
    it returns to float64, for the pose algebra and the loss. The `imu`
    block stays in the network's dtype: only `residual_pose` reads it.
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
        self.n_end = F          # x's n columns are [F, n_end); the LSTM states follow
        if cfg.head_mode != "vertex-only":
            self.normal_encoder = MapEncoder(cfg.encoder_widths, F, rng=rng)
            self.n_end = 2 * F
        width = self.n_end + (2 * cfg.lstm_hidden if cfg.imu_mode == "feature-concat" else 0)
        self.t_columns = np.arange(width)
        if cfg.head_mode == "two-branch":
            self.t_columns = np.delete(self.t_columns, np.s_[F:self.n_end])
        self.head_t = _make_head(cfg.head_type, len(self.t_columns), rng)
        self.head_q = None
        if cfg.head_mode == "two-branch":
            self.head_q = _make_head(cfg.head_type, width, rng)
        self.out_t = Linear(len(self.t_columns), 3, zero_init=True)
        self.out_q = Linear(width, 3, zero_init=True)
        self.cast(np.float32)

    @property
    def dtype(self) -> np.dtype:
        """The network's precision: the dtype of its parameters."""
        return self.out_t.weight.value.dtype

    # -- forward / backward -------------------------------------------------

    def initial_pose(self, windows: np.ndarray | None):
        """(initial pose vectors (B, 6) or None, `imu` block (B, 2 * lstm_hidden)
        or None) from IMU windows (B, S, 6): in initial-pose mode the gyro
        hidden state gives q and the accelerometer's gives t."""
        mode = self.cfg.imu_mode
        if mode == "none":
            return None, None
        if windows is None:
            raise ValueError(f"imu_mode={mode} requires an IMU window")
        h_g = self.lstm_gyro(windows[:, :, 3:6])
        h_a = self.lstm_acc(windows[:, :, 0:3])
        if mode == "feature-concat":
            return None, np.concatenate([h_g, h_a], axis=1)
        p_hat = np.concatenate([self.fc_q_init(h_g), self.fc_t_init(h_a)], axis=1)
        return p_hat.astype(float), None

    def residual_pose(self, v_pairs: np.ndarray, n_pairs: np.ndarray | None,
                      imu_feats: np.ndarray | None) -> np.ndarray:
        """Residual pose vectors (B, 6) from stacked map pairs (B, 6, H, W) and
        optional IMU features. The two encoders run on two threads
        (`_pool_map`) when the stem's output, B * widths[0] * H * W, holds
        at least `CONCURRENT_STEM_SIZE` elements; the backward follows the
        same choice."""
        if self.normal_encoder is not None and n_pairs is None:
            raise ValueError("head mode requires a normal-map pair")
        B, _, H, W = np.shape(v_pairs)
        self._cache = (self.normal_encoder is not None
                       and B * self.cfg.encoder_widths[0] * H * W >= CONCURRENT_STEM_SIZE)
        blocks = self._run_encoders("forward", [v_pairs, n_pairs], self._cache)
        if self.cfg.imu_mode == "feature-concat":
            blocks.append(imu_feats)
        x = np.concatenate(blocks, axis=1)
        h_t = self.head_t(x[:, self.t_columns])
        h_q = h_t if self.head_q is None else self.head_q(x)
        p_delta = np.concatenate([self.cfg.q_scale * self.out_q(h_q), self.out_t(h_t)], axis=1)
        return p_delta.astype(float)

    def backward(self, grad_delta: np.ndarray, grad_hat: np.ndarray):
        """Backprop the loss gradients (B, 6) on the residual and initial pose vectors."""
        concurrent = self._take_cache()
        grad_delta = np.asarray(grad_delta, dtype=self.dtype)
        grad_hat = np.asarray(grad_hat, dtype=self.dtype)
        gh_q = self.out_q.backward(self.cfg.q_scale * grad_delta[:, :3])
        gh_t = self.out_t.backward(grad_delta[:, 3:])
        if self.head_q is None:  # one backward on the summed output gradients
            gx = self.head_t.backward(gh_t + gh_q)
        else:
            gx = self.head_q.backward(gh_q)
            gx[:, self.t_columns] += self.head_t.backward(gh_t)
        gv, gn, g_imu = np.split(gx, [self.cfg.feature_dim, self.n_end], axis=1)
        self._run_encoders("backward", [gv, gn], concurrent)
        if self.cfg.imu_mode == "initial-pose":
            gh_g = self.fc_q_init.backward(grad_hat[:, :3])
            gh_a = self.fc_t_init.backward(grad_hat[:, 3:])
        elif self.cfg.imu_mode == "feature-concat":
            gh_g, gh_a = np.split(g_imu, 2, axis=1)
        else:
            return
        self.lstm_gyro.backward(gh_g)
        self.lstm_acc.backward(gh_a)

    def _run_encoders(self, method: str, inputs, concurrent: bool) -> list:
        """`method` of each encoder on its input, vertex then normal: one
        encoder per thread (`_pool_map`) when `concurrent`, else one after
        the other. Each encoder owns its parameters, running
        statistics and cache, so both orders give the same bits."""
        calls = [getattr(e, method) for e in (self.vertex_encoder, self.normal_encoder)
                 if e is not None]
        if not concurrent:
            return [call(x) for call, x in zip(calls, inputs)]
        return _pool_map(lambda call, x: call(x), calls, inputs)


@dataclass(frozen=True)
class PairDiagnostics:
    initial: Pose = field(default_factory=Pose.identity)
    residual: Pose = field(default_factory=Pose.identity)


def estimate_pair(fp: FramePair, model: OdometryModel, cfg: PipelineConfig):
    """Forward pass for one pair, as a batch of one: returns (Pose, PairDiagnostics)."""
    windows = None if fp.imu is None else np.asarray(fp.imu, dtype=float)[None]
    p_hat, imu_feats = model.initial_pose(windows)
    t_hat = Pose.identity() if p_hat is None else Pose.from_vector(p_hat[0])
    # feature-concat and none skip the remap step entirely
    v_cur, n_cur = fp.v_cur, fp.n_cur
    if cfg.imu_mode == "initial-pose":
        v_cur, n_cur = remap(fp.v_cur, fp.n_cur, t_hat, cfg.projection)
    v_pairs = _map_pair(fp.v_last, v_cur)[None]
    n_pairs = None if model.normal_encoder is None else _map_pair(fp.n_last, n_cur)[None]
    delta = Pose.from_vector(model.residual_pose(v_pairs, n_pairs, imu_feats)[0])
    pose = compose(delta, t_hat)
    return pose, PairDiagnostics(initial=t_hat, residual=delta)


def _map_pair(last, cur) -> np.ndarray:
    """Two (H, W, 3) maps stacked channel-first, last then current: (6, H, W)."""
    return np.concatenate([np.transpose(m.grid, (2, 0, 1)) for m in (last, cur)])


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
        corr = match_nearest(transformed_cloud(source, pose), build_index(fp.last_cloud),
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

    Raises FloatingPointError, before any backward, if the predicted pose,
    the loss or a pose gradient is not finite.
    """
    pose, diag = estimate_pair(fp, model, cfg)
    if not np.isfinite(pose.as_vector()).all():
        raise FloatingPointError("predicted pose is not finite")
    source, corr, terms = pair_loss(fp, pose, cfg)
    loss = cfg.weights.combine(terms)
    p_delta = diag.residual.as_vector()
    p_hat = diag.initial.as_vector()
    grad_delta, grad_hat = composed_pose_gradients(p_delta, p_hat, source, corr, cfg.weights)
    if not (np.isfinite(loss) and np.isfinite(grad_delta).all()
            and np.isfinite(grad_hat).all()):
        raise FloatingPointError("loss or pose gradient is not finite")
    model.backward(grad_delta[None], grad_hat[None])
    return loss, terms, diag


def train_epoch(pairs, model: OdometryModel, optimizer: Adam,
                cfg: PipelineConfig, epoch: int = 0,
                scheduler: StepLR | None = None) -> EpochStats:
    """One pass over the dataset in batches; Adam step per batch.

    First builds what training reads of each frame not yet built (the
    first epoch over `pairs`), one frame per worker thread: its maps, and
    with nearest matching its loss-side cloud too. Pairs without matches
    or with a non-finite pose, loss or gradient are skipped and counted in
    `pairs_skipped`.
    """
    _build(pairs, maps=True, cloud=cfg.matching == "nearest")
    if scheduler is not None:
        scheduler.set_epoch(epoch)
    model.set_training(True)
    params = list(model.parameters().values())     # one walk of the module tree per epoch
    bs = cfg.train.batch_size
    rows = []                       # (loss, point-to-plane, plane-to-plane) per trained pair
    skipped = 0
    for start in range(0, len(pairs), bs):
        for p in params:
            p.grad[...] = 0.0
        before = len(rows)
        for fp in pairs[start:start + bs]:
            try:
                loss, terms, _ = train_step(fp, model, cfg)
            except (EmptyMatchError, FloatingPointError):
                skipped += 1
                continue
            rows.append((loss, *terms))
        used = len(rows) - before
        if used == 0:
            continue
        for p in params:
            p.grad /= used
        optimizer.step()
    model.set_training(False)
    means = [float(np.mean(col)) for col in zip(*rows)] or [float("nan")] * 3
    return EpochStats(*means, pairs_used=len(rows), pairs_skipped=skipped,
                      learning_rate=optimizer.lr)


def _pool_map(fn, *iterables) -> list:
    """list(map(fn, *iterables)), on one thread per CPU this process may run
    on, with the results in input order: the calling thread, and a worker
    thread for each other CPU. With one CPU or one call, the calling thread
    makes every call.

    Threads pay off only where fn spends its time in native code that
    releases the GIL: cKDTree queries, BLAS and numpy's large array loops.
    The first exception raised by any call reaches the caller.
    """
    calls = list(zip(*iterables))
    # Platforms without CPU affinity report every CPU instead.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2 or len(calls) < 2:
        return [fn(*args) for args in calls]
    # The calling thread works rather than waits: a worker less keeps one
    # malloc arena less, whose freed blocks would count in the peak RSS.
    with ThreadPoolExecutor(max_workers=cpus - 1) as pool:
        futures = [pool.submit(fn, *args) for args in calls]
        own = {}
        # Workers start calls in input order; the caller takes the calls no
        # worker has started, last first.
        for k in reversed(range(len(calls))):
            if not futures[k].cancel():
                break
            own[k] = fn(*calls[k])
        return [own[k] if k in own else futures[k].result() for k in range(len(calls))]


def build_frame_pairs(scans, cfg: PipelineConfig, imu_windows=None,
                      clouds=None) -> list[FramePair]:
    """FramePairs over consecutive sensor-frame scans, sharing one `Frame`
    per scan.

    `scans` is a list of (N, 3) arrays (or objects with .points/.normals
    such as synthetic scenes); `clouds`, when given, holds each scan's
    precomputed loss-side cloud. Only the counts are checked here: the
    frames build their maps and clouds when a consumer reads them.
    """
    if clouds is not None and len(clouds) != len(scans):
        raise ValueError(f"{len(clouds)} clouds for {len(scans)} scans")
    if imu_windows is not None and len(imu_windows) != max(len(scans) - 1, 0):
        raise ValueError(f"{len(imu_windows)} IMU windows for {len(scans)} scans; "
                         f"need one per consecutive scan pair")
    frames = [Frame(np.asarray(getattr(scan, "points", scan), dtype=float), cfg,
                    normals=getattr(scan, "normals", None), cloud=cloud)
              for scan, cloud in zip(scans, [None] * len(scans) if clouds is None else clouds)]
    return [FramePair(last, cur, imu=None if imu_windows is None else imu_windows[k])
            for k, (last, cur) in enumerate(zip(frames, frames[1:]))]


def run_sequence(pairs, mode: str, cfg: PipelineConfig,
                 model: OdometryModel | None = None):
    """Chain per-pair estimates into the absolute (N+1, 4, 4) trajectory,
    first pose identity; also return the relative `Pose`s and their flags.

    Modes: learned (network only), classical (registration from identity),
    hybrid (registration warm-started from the learned pose). A pair is
    flagged "ok", "non-finite-pose" (an initial pose that is not finite,
    checked before registering; the pair keeps the identity) or
    "registration-failed" (register raised EmptyMatchError or
    FloatingPointError; the pair keeps its initial pose).

    First each frame builds what the mode reads, one frame per worker
    thread (`_pool_map`): its loss-side cloud in classical mode, its maps
    in learned mode, both in hybrid mode. A scan that cannot be projected
    or preprocessed raises here. The model's estimates then run one pair
    after another, as its layers cache activations, which are dropped once
    the last estimate is made; within a pair the two encoders may run on
    two threads (`OdometryModel.residual_pose`). The registrations run one
    pair per thread.
    """
    if mode not in ("learned", "classical", "hybrid"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("learned", "hybrid") and model is None:
        raise ValueError(f"mode {mode!r} needs a model")
    _build(pairs, maps=mode != "classical", cloud=mode != "learned")
    if mode == "classical":
        inits = [Pose.identity()] * len(pairs)
    else:
        inits = [estimate_pair(fp, model, cfg)[0] for fp in pairs]
        model.clear_caches()    # no backward follows these forwards

    def settle(fp, init):
        if not np.isfinite(init.as_vector()).all():
            return Pose.identity(), "non-finite-pose"
        if mode == "learned":
            return init, "ok"
        try:
            pose, _ = register(fp.cur_cloud, fp.last_cloud, init=init,
                               max_match_dist=cfg.max_match_dist, weights=cfg.weights)
            return pose, "ok"
        except (EmptyMatchError, FloatingPointError):
            return init, "registration-failed"

    results = (list(map(settle, pairs, inits)) if mode == "learned"
               else _pool_map(settle, pairs, inits))
    relatives = [pose for pose, _ in results]
    return accumulate(relatives), relatives, [flag for _, flag in results]
