"""Pure-numpy fully-connected DNN framework.

This subpackage is the training/inference substrate the MATIC methodology is
built on: dense layers with master/effective weight views (so fault-masked
training is possible), standard activations and losses, SGD-family
optimizers, and a baseline trainer.
"""

from .activations import (
    Activation,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)
from .data import Dataset, iterate_minibatches, one_hot, train_test_split
from .initializers import (
    HeNormal,
    Initializer,
    NormalInitializer,
    UniformInitializer,
    XavierNormal,
    XavierUniform,
    ZerosInitializer,
    get_initializer,
)
from .layers import DenseLayer, Layer
from .losses import (
    BinaryCrossEntropyLoss,
    CrossEntropyLoss,
    Loss,
    MeanSquaredError,
    get_loss,
)
from .metrics import (
    average_error_increase,
    classification_error,
    classification_rate,
    mean_squared_error,
)
from .network import Network, Topology, parse_topology
from .optimizers import SGD, Adam, MomentumSGD, Optimizer, get_optimizer
from .trainer import Trainer, TrainingHistory

__all__ = [
    "Activation",
    "Identity",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "LeakyReLU",
    "Softmax",
    "get_activation",
    "Loss",
    "MeanSquaredError",
    "CrossEntropyLoss",
    "BinaryCrossEntropyLoss",
    "get_loss",
    "Initializer",
    "UniformInitializer",
    "NormalInitializer",
    "XavierUniform",
    "XavierNormal",
    "HeNormal",
    "ZerosInitializer",
    "get_initializer",
    "Layer",
    "DenseLayer",
    "Network",
    "Topology",
    "parse_topology",
    "Optimizer",
    "SGD",
    "MomentumSGD",
    "Adam",
    "get_optimizer",
    "Trainer",
    "TrainingHistory",
    "Dataset",
    "train_test_split",
    "iterate_minibatches",
    "one_hot",
    "classification_error",
    "classification_rate",
    "mean_squared_error",
    "average_error_increase",
]
