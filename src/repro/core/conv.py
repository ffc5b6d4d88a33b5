"""2-D and 3-D convolutions via coefficient encoding (Section II-E, [18]).

The paper notes that Alg. 1 "can be extended to other linear functions,
such as 2-D and 3-D convolutions through encoding the original tensors in
similar ways" — the Cheetah trick:

* the input tensor is laid out as polynomial coefficients in row-major
  order (channel-major for 3-D);
* the kernel is laid out *reversed*, so that the polynomial product
  places each valid-convolution output at a known coefficient;
* parasitic cross terms cannot reach valid output positions as long as
  the whole tensor fits in one ring element (``C*H*W <= N``) — larger
  inputs fall back to tiling.

One homomorphic multiplication therefore computes an entire valid
correlation ("conv" in the ML sense).  Output positions for the 2-D case:
``O[i, j] -> coefficient (i + kh - 1) * W + (j + kw - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..he.bfv import BfvScheme
from ..he.encoder import Plaintext
from ..he.rlwe import RlweCiphertext
from .batch import BatchedHmvp, encrypt_tiles

__all__ = [
    "im2col",
    "conv2d_via_hmvp",
    "conv2d_reference",
    "conv3d_reference",
    "Conv2dEncoder",
    "Conv3dEncoder",
    "homomorphic_conv2d",
    "homomorphic_conv3d",
]


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


def conv3d_reference(tensor: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid correlation summed over the channel axis (single output map)."""
    tensor = np.asarray(tensor, dtype=object)
    kernel = np.asarray(kernel, dtype=object)
    if tensor.shape[0] != kernel.shape[0]:
        raise ValueError("channel mismatch")
    acc = None
    for c in range(tensor.shape[0]):
        part = conv2d_reference(tensor[c], kernel[c])
        acc = part if acc is None else acc + part
    return acc


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


@dataclass
class Conv3dEncoder:
    """Coefficient layout for channel-summed 3-D convolution."""

    scheme: BfvScheme
    c: int
    h: int
    w: int
    kh: int
    kw: int

    def __post_init__(self) -> None:
        if self.c * self.h * self.w > self.scheme.params.n:
            raise ValueError("tensor exceeds ring degree; tile the input")

    @property
    def plane(self) -> int:
        return self.h * self.w

    @property
    def out_shape(self) -> "tuple[int, int]":
        return (self.h - self.kh + 1, self.w - self.kw + 1)

    def encode_tensor(self, tensor: np.ndarray) -> Plaintext:
        """Channel-major layout: ``X[c][i][j] -> X^(c*H*W + i*W + j)``."""
        tensor = np.asarray(tensor)
        if tensor.shape != (self.c, self.h, self.w):
            raise ValueError("tensor shape mismatch")
        return self.scheme.encoder.encode_coeffs(tensor.reshape(-1))

    def encrypt_tensor(self, tensor: np.ndarray) -> RlweCiphertext:
        return self.scheme.encrypt_plaintext(
            self.encode_tensor(tensor), augmented=True
        )

    def encode_kernel(self, kernel: np.ndarray) -> Plaintext:
        """Channel- and spatially-reversed kernel so channel sums align."""
        kernel = np.asarray(kernel)
        if kernel.shape != (self.c, self.kh, self.kw):
            raise ValueError("kernel shape mismatch")
        coeffs = np.zeros(self.scheme.params.n, dtype=object)
        for ch in range(self.c):
            base = (self.c - 1 - ch) * self.plane
            for a in range(self.kh):
                for b in range(self.kw):
                    coeffs[
                        base + (self.kh - 1 - a) * self.w + (self.kw - 1 - b)
                    ] = int(kernel[ch, a, b])
        return self.scheme.encoder.encode_coeffs(coeffs)

    def output_positions(self) -> np.ndarray:
        oh, ow = self.out_shape
        base = (self.c - 1) * self.plane
        pos = np.empty((oh, ow), dtype=np.int64)
        for i in range(oh):
            for j in range(ow):
                pos[i, j] = base + (i + self.kh - 1) * self.w + (j + self.kw - 1)
        return pos

    def decode_output(self, pt: Plaintext) -> np.ndarray:
        centered = pt.centered().astype(object)
        return centered[self.output_positions()]


def homomorphic_conv3d(
    encoder: Conv3dEncoder, ct_tensor: RlweCiphertext, kernel: np.ndarray
) -> RlweCiphertext:
    """Channel-summed 3-D convolution in one homomorphic multiplication."""
    pt_kernel = encoder.encode_kernel(kernel)
    prod = ct_tensor.multiply_plain(pt_kernel)
    return prod.rescale() if prod.is_augmented else prod


def im2col(image: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Lower a valid 2-D convolution to a matrix: each row is one
    receptive field, so ``conv(image, K) == im2col(image) @ K.reshape(-1)``.

    This is the generic lowering every BLAS-backed framework uses; here
    it cross-checks the coefficient-packed convolution (one ciphertext
    multiplication) against the same result computed as an HMVP — two
    independent homomorphic evaluation strategies for the same layer.
    """
    image = np.asarray(image)
    h, w = image.shape
    oh, ow = h - kh + 1, w - kw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError("kernel larger than image")
    rows = np.empty((oh * ow, kh * kw), dtype=image.dtype)
    idx = 0
    for i in range(oh):
        for j in range(ow):
            rows[idx] = image[i : i + kh, j : j + kw].reshape(-1)
            idx += 1
    return rows


def conv2d_via_hmvp(
    scheme: BfvScheme, image: np.ndarray, kernel: np.ndarray
) -> np.ndarray:
    """Evaluate a convolution as an encrypted HMVP over the im2col matrix.

    The *kernel* is encrypted (one short ciphertext) and the im2col
    matrix of the public image plays the plaintext matrix — the dual of
    :func:`homomorphic_conv2d`, exercising Alg. 1 instead of the packed
    single-multiplication trick.  Returns the decrypted output map.
    """
    kernel = np.asarray(kernel)
    kh, kw = kernel.shape
    matrix = im2col(np.asarray(image), kh, kw)
    ct_tiles = encrypt_tiles(scheme, kernel.reshape(-1))
    flat = BatchedHmvp.once(scheme, matrix, ct_tiles).decrypt(scheme)
    oh = image.shape[0] - kh + 1
    ow = image.shape[1] - kw + 1
    return np.asarray(flat, dtype=object).reshape(oh, ow)
