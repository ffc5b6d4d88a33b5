"""2-D convolution via coefficient encoding (Section II-E, [18]).

The paper notes that Alg. 1 "can be extended to other linear functions,
such as 2-D and 3-D convolutions through encoding the original tensors in
similar ways" — the Cheetah trick, used here for the 2-D layers of
private inference (Delphi and ``PrivateInference``):

* the image is laid out as polynomial coefficients in row-major order;
* the kernel is laid out *reversed*, so that the polynomial product
  places each valid-convolution output at a known coefficient;
* parasitic cross terms cannot reach valid output positions as long as
  the whole image fits in one ring element (``H*W <= N``).

One homomorphic multiplication therefore computes an entire valid
correlation ("conv" in the ML sense).  Output positions:
``O[i, j] -> coefficient (i + kh - 1) * W + (j + kw - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..he.bfv import BfvScheme
from ..he.encoder import Plaintext
from ..he.rlwe import RlweCiphertext

__all__ = ["conv2d_reference", "Conv2dEncoder", "homomorphic_conv2d"]


def conv2d_reference(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid cross-correlation, the cleartext oracle (object ints)."""
    image = np.asarray(image, dtype=object)
    kernel = np.asarray(kernel, dtype=object)
    h, w = image.shape
    kh, kw = kernel.shape
    oh, ow = h - kh + 1, w - kw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("kernel larger than image")
    out = np.zeros((oh, ow), dtype=object)
    for i in range(oh):
        for j in range(ow):
            out[i, j] = int((image[i : i + kh, j : j + kw] * kernel).sum())
    return out


@dataclass
class Conv2dEncoder:
    """Coefficient layout for one 2-D convolution instance."""

    scheme: BfvScheme
    h: int
    w: int
    kh: int
    kw: int

    def __post_init__(self) -> None:
        if self.h * self.w > self.scheme.params.n:
            raise ValueError(
                f"image {self.h}x{self.w} exceeds ring degree "
                f"{self.scheme.params.n}; tile the input"
            )
        if self.kh > self.h or self.kw > self.w:
            raise ValueError("kernel larger than image")

    @property
    def out_shape(self) -> "tuple[int, int]":
        return (self.h - self.kh + 1, self.w - self.kw + 1)

    def encode_image(self, image: np.ndarray) -> Plaintext:
        """Row-major image layout: ``X[i][j] -> X^(i*W + j)``."""
        image = np.asarray(image)
        if image.shape != (self.h, self.w):
            raise ValueError(f"image shape {image.shape} != ({self.h}, {self.w})")
        return self.scheme.encoder.encode_coeffs(image.reshape(-1))

    def encrypt_image(self, image: np.ndarray) -> RlweCiphertext:
        return self.scheme.encrypt_plaintext(self.encode_image(image), augmented=True)

    def encode_kernel(self, kernel: np.ndarray) -> Plaintext:
        """Reversed kernel layout: ``K[a][b] -> X^((kh-1-a)*W + (kw-1-b))``."""
        kernel = np.asarray(kernel)
        if kernel.shape != (self.kh, self.kw):
            raise ValueError(f"kernel shape {kernel.shape} != ({self.kh}, {self.kw})")
        coeffs = np.zeros(self.scheme.params.n, dtype=object)
        for a in range(self.kh):
            for b in range(self.kw):
                coeffs[(self.kh - 1 - a) * self.w + (self.kw - 1 - b)] = int(
                    kernel[a, b]
                )
        return self.scheme.encoder.encode_coeffs(coeffs)

    def output_positions(self) -> np.ndarray:
        oh, ow = self.out_shape
        pos = np.empty((oh, ow), dtype=np.int64)
        for i in range(oh):
            for j in range(ow):
                pos[i, j] = (i + self.kh - 1) * self.w + (j + self.kw - 1)
        return pos

    def decode_output(self, pt: Plaintext) -> np.ndarray:
        centered = pt.centered().astype(object)
        pos = self.output_positions()
        return centered[pos]


def homomorphic_conv2d(
    encoder: Conv2dEncoder, ct_image: RlweCiphertext, kernel: np.ndarray
) -> RlweCiphertext:
    """One DOTPRODUCT pipeline pass computing a full 2-D convolution."""
    pt_kernel = encoder.encode_kernel(kernel)
    prod = ct_image.multiply_plain(pt_kernel)
    return prod.rescale() if prod.is_augmented else prod
