"""Lidar-inertial odometry toolkit.

Spherical-projection preprocessing, unsupervised point-to-plane /
plane-to-plane registration losses and a Gauss-Newton classical
registrar built on one residual and normal-equations kernel, a small numpy
network (siamese IMU LSTMs, residual map encoders, gated attention heads)
trained without ground-truth poses, and KITTI-style evaluation.
"""

from .geometry import Pose, apply_to_normal, apply_to_point, compose, euler_to_matrix
from .range_image import NormalMap, ProjectionConfig, VertexMap, compute_normal_map, project, remap
from .preprocess import PreprocessedCloud, VoxelParams, adaptive_voxel_downsample, estimate_normals_planefit, preprocess_cloud, ransac_ground_removal
from .matching import CorrespondenceSet, EmptyMatchError, KdIndex, LossWeights, build_index, loss_at_pose, loss_gradient, loss_terms, match_nearest, residuals, transformed_cloud
from .registration import register
from .pipeline import Frame, FramePair, OdometryModel, PipelineConfig, TrainParams, build_frame_pairs, estimate_pair, run_sequence, train_epoch
from .evaluation import SegmentErrorReport, accumulate, kitti_relative_errors
from .dataset_io import FormatError, read_oxts, read_poses, read_velodyne_bin, window_imu, write_oxts, write_poses, write_velodyne_bin

__version__ = "0.1.0"
