"""The paper's primary contribution: coefficient-encoded HMVP (Alg. 1),
its tiling to arbitrary shapes, the 2-D convolution packing, and the
baseline encodings + complexity models it is compared against
(Section II-E).
"""

from .hmvp import HmvpOpCount, HmvpResult
from .batch import BatchedHmvp, encrypt_tiles
from .baselines import (
    BaselineHmvp,
    BatchEncoder,
    batch_friendly_plain_modulus,
    diagonal_op_count,
    rotate_and_sum_op_count,
)
from .conv import Conv2dEncoder, conv2d_reference, homomorphic_conv2d
from .complexity import EncodingCost, batch_cost, coefficient_cost, diagonal_cost

__all__ = [
    "BatchedHmvp",
    "HmvpOpCount",
    "HmvpResult",
    "encrypt_tiles",
    "BaselineHmvp",
    "BatchEncoder",
    "batch_friendly_plain_modulus",
    "diagonal_op_count",
    "rotate_and_sum_op_count",
    "Conv2dEncoder",
    "conv2d_reference",
    "homomorphic_conv2d",
    "EncodingCost",
    "batch_cost",
    "coefficient_cost",
    "diagonal_cost",
]
