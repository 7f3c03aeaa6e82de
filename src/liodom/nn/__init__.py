from .core import GradcheckResult, Module, Param, central_difference, gradcheck, sigmoid
from .layers import LSTM, AttentionHead, FcActivationHead, Linear
from .conv import ChannelNorm, Conv2d, MapEncoder, ResBlock
from .optim import Adam, StepLR
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Module", "Param", "GradcheckResult", "central_difference", "gradcheck", "sigmoid",
    "Linear", "AttentionHead", "FcActivationHead", "LSTM",
    "Conv2d", "ChannelNorm", "ResBlock", "MapEncoder",
    "Adam", "StepLR",
    "save_checkpoint", "load_checkpoint",
]
