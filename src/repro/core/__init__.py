"""The paper's primary contribution: coefficient-encoded HMVP (Alg. 1),
its tiling to arbitrary shapes, convolution lowerings, and the baseline
encodings + complexity models it is compared against (Section II-E).
"""

from .hmvp import HmvpOpCount, HmvpResult
from .batch import BatchedHmvp, encrypt_tiles
from .matmul import EncryptedMatmul
from .baselines import (
    BaselineHmvp,
    BatchEncoder,
    batch_friendly_plain_modulus,
    diagonal_op_count,
    rotate_and_sum_op_count,
)
from .conv import (
    Conv2dEncoder,
    conv2d_via_hmvp,
    im2col,
    Conv3dEncoder,
    conv2d_reference,
    conv3d_reference,
    homomorphic_conv2d,
    homomorphic_conv3d,
)
from .complexity import EncodingCost, batch_cost, coefficient_cost, diagonal_cost

__all__ = [
    "BatchedHmvp",
    "EncryptedMatmul",
    "HmvpOpCount",
    "HmvpResult",
    "encrypt_tiles",
    "BaselineHmvp",
    "BatchEncoder",
    "batch_friendly_plain_modulus",
    "diagonal_op_count",
    "rotate_and_sum_op_count",
    "Conv2dEncoder",
    "conv2d_via_hmvp",
    "im2col",
    "Conv3dEncoder",
    "conv2d_reference",
    "conv3d_reference",
    "homomorphic_conv2d",
    "homomorphic_conv3d",
    "EncodingCost",
    "batch_cost",
    "coefficient_cost",
    "diagonal_cost",
]
