"""From-scratch autograd and neural-network substrate.

A reverse-mode automatic-differentiation engine over NumPy plus the layer
zoo, losses and optimizers that the SNN, CNN and GNN pipelines all train
with.  This replaces the PyTorch dependency the original event-vision
stacks assume.
"""

from . import functional
from .functional import (
    affine,
    affine_act,
    affine_act_reference,
    affine_reference,
    avg_pool2d,
    concatenate,
    conv2d,
    dropout,
    log_softmax,
    log_softmax_reference,
    max_pool2d,
    softmax,
    stack,
    where,
)
from .init import kaiming_uniform, xavier_uniform, zeros
from .layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import accuracy, cross_entropy, cross_entropy_reference, mse_loss, nll_loss
from .optim import SGD, Adam, Optimizer, StepLR
from .serialization import load_state, read_checkpoint, save_state
from .tensor import (
    Tensor,
    custom_gradient,
    is_grad_enabled,
    is_stable_matmul,
    no_grad,
    stable_matmul,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "custom_gradient",
    "stable_matmul",
    "is_stable_matmul",
    "functional",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "affine",
    "affine_reference",
    "affine_act",
    "affine_act_reference",
    "softmax",
    "log_softmax",
    "log_softmax_reference",
    "stack",
    "concatenate",
    "where",
    "dropout",
    "Module",
    "Linear",
    "Conv2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "Sequential",
    "cross_entropy",
    "cross_entropy_reference",
    "mse_loss",
    "nll_loss",
    "accuracy",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "save_state",
    "load_state",
    "read_checkpoint",
    "kaiming_uniform",
    "xavier_uniform",
    "zeros",
]
