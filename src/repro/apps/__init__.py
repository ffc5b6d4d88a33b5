"""Application layer: the paper's evaluation workloads.

* :mod:`repro.apps.heterolr` — federated logistic regression (Fig. 7a/b);
* :mod:`repro.apps.beaver` — Beaver triple generation (Fig. 7c);
* :mod:`repro.apps.inference` — private linear-layer inference;
* :mod:`repro.apps.datasets` — synthetic data generators.
"""

from .datasets import VerticalDataset, make_digit_images, make_vertical_dataset
from .heterolr import (
    BfvBackend,
    HeteroLrTrainer,
    LrConfig,
    PaillierBackend,
    PlainBackend,
    StepCounts,
    taylor_sigmoid,
)
from .beaver import BeaverGenerator, BeaverTriple, verify_triple
from .protocol import Channel, Message, Party, wire_size
from .delphi import DelphiInference, LayerCorrelation
from .inference import PrivateInference, TinyModel

__all__ = [
    "VerticalDataset",
    "make_digit_images",
    "make_vertical_dataset",
    "BfvBackend",
    "HeteroLrTrainer",
    "LrConfig",
    "PaillierBackend",
    "PlainBackend",
    "StepCounts",
    "taylor_sigmoid",
    "BeaverGenerator",
    "Channel",
    "Message",
    "Party",
    "wire_size",
    "DelphiInference",
    "LayerCorrelation",
    "BeaverTriple",
    "verify_triple",
    "PrivateInference",
    "TinyModel",
]
