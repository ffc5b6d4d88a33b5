"""Private linear-layer inference (the paper's motivating workload).

The GAZELLE/Cheetah-style hybrid protocol evaluates *linear* layers under
HE (exactly what CHAM accelerates) and non-linear layers under garbled
circuits / secret sharing.  This module implements the HE half for a tiny
two-layer network — one convolution, one fully-connected read-out — over
the coefficient encodings of :mod:`repro.core`:

* the client encrypts its image (one ciphertext);
* the server runs the convolution homomorphically
  (:func:`repro.core.conv.homomorphic_conv2d`), returns the encrypted
  feature map, and the client applies the non-linearity in the clear
  (standing in for the MPC step);
* the re-encrypted activations flow through the FC layer as an HMVP.

Integer arithmetic end-to-end, so the homomorphic prediction matches the
cleartext model exactly — asserted in tests and the example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.conv import Conv2dEncoder, conv2d_reference, homomorphic_conv2d
from ..core.batch import BatchedHmvp, encrypt_tiles
from ..he.bfv import BfvScheme

__all__ = ["TinyModel", "PrivateInference"]


@dataclass
class TinyModel:
    """A two-layer integer model: 3x3 conv -> ReLU -> dense read-out."""

    kernel: np.ndarray  # (3, 3) int
    fc: np.ndarray  # (classes, feature_count) int

    @classmethod
    def random(
        cls, image_size: int, classes: int = 2, seed: Optional[int] = 0
    ) -> "TinyModel":
        rng = np.random.default_rng(seed)
        kernel = rng.integers(-4, 5, (3, 3))
        out = image_size - 2
        fc = rng.integers(-3, 4, (classes, out * out))
        return cls(kernel=kernel, fc=fc)

    def predict_clear(self, image: np.ndarray) -> np.ndarray:
        """Cleartext forward pass (the oracle)."""
        fm = conv2d_reference(image, self.kernel)
        act = np.maximum(fm, 0).reshape(-1)
        return self.fc.astype(object) @ act.astype(object)


class PrivateInference:
    """Client/server private inference over one :class:`BfvScheme`.

    The scheme's key belongs to the client; the server methods only take
    ciphertexts (plus its own model weights).
    """

    def __init__(self, scheme: BfvScheme, model: TinyModel, image_size: int) -> None:
        self.scheme = scheme
        self.model = model
        self.image_size = image_size
        self.conv_encoder = Conv2dEncoder(
            scheme, image_size, image_size, *model.kernel.shape
        )
        self.fc_engine = BatchedHmvp(scheme, model.fc)

    # -- client -------------------------------------------------------------------

    def client_encrypt_image(self, image: np.ndarray):
        return self.conv_encoder.encrypt_image(image)

    def client_decrypt_feature_map(self, ct) -> np.ndarray:
        pt = self.scheme.decrypt_plaintext(ct)
        return self.conv_encoder.decode_output(pt)

    def client_nonlinear(self, feature_map: np.ndarray) -> np.ndarray:
        """ReLU in the clear — the stand-in for the MPC non-linearity."""
        return np.maximum(feature_map, 0)

    def client_encrypt_activations(self, act: np.ndarray):
        return encrypt_tiles(self.scheme, act.reshape(-1))

    def client_decrypt_logits(self, result) -> np.ndarray:
        return result.decrypt(self.scheme)

    # -- server -------------------------------------------------------------------

    def server_conv(self, ct_image):
        return homomorphic_conv2d(self.conv_encoder, ct_image, self.model.kernel)

    def server_fc(self, ct_act_tiles):
        return self.fc_engine.multiply_tiles(ct_act_tiles)

    # -- end-to-end ----------------------------------------------------------------

    def run(self, image: np.ndarray) -> np.ndarray:
        """Full protocol round-trip; returns the logits."""
        ct_img = self.client_encrypt_image(image)
        ct_fm = self.server_conv(ct_img)
        fm = self.client_decrypt_feature_map(ct_fm)
        act = self.client_nonlinear(fm)
        ct_act = self.client_encrypt_activations(act)
        result = self.server_fc(ct_act)
        return self.client_decrypt_logits(result)
