"""A small integer neural-network library with private evaluation.

Generalizes the two-layer Delphi demo to arbitrary sequential models —
the LeNet-style workloads the paper's introduction surveys (CryptoNets,
Gazelle, Cheetah).  Layers:

* :class:`ConvLayer` — valid 2-D convolution (one output channel per
  kernel), evaluated homomorphically in ONE ciphertext multiplication
  per kernel via the coefficient packing of :mod:`repro.core.conv`;
* :class:`LinearLayer` — dense matrix, evaluated as a CHAM HMVP;
* :class:`ReluLayer` / :class:`FlattenLayer` — structural layers run in
  the clear at the client (the MPC stand-in, as in
  :mod:`repro.apps.delphi`).

:class:`PrivateNetwork` drives a :class:`Sequential` model through the
Delphi offline/online split: every linear layer gets a correlation
``(r, L(r) - s, s)`` minted with real HE offline; the online phase
exchanges only masked cleartext shares.  Integer arithmetic end to end,
so private and clear evaluation agree exactly — the paper's "no
approximation error" argument for hybrid protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.conv import Conv2dEncoder, conv2d_reference, homomorphic_conv2d
from ..core.batch import BatchedHmvp, encrypt_tiles
from ..he.bfv import BfvScheme
from .protocol import Channel, Party

__all__ = [
    "ConvLayer",
    "LinearLayer",
    "ReluLayer",
    "FlattenLayer",
    "Sequential",
    "PrivateNetwork",
]


def _mod(x, t):
    return np.mod(np.asarray(x, dtype=object), t)


def _center(x, t):
    half = t // 2
    return np.where(x > half, x - t, x)


@dataclass
class ConvLayer:
    """Valid 2-D convolution with ``k`` kernels (output: k feature maps)."""

    kernels: np.ndarray  # (k, kh, kw) int

    is_linear = True

    def out_shape(self, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        h, w = in_shape
        _k, kh, kw = self.kernels.shape
        return (self.kernels.shape[0], h - kh + 1, w - kw + 1)

    def clear_forward(self, x: np.ndarray) -> np.ndarray:
        return np.stack(
            [conv2d_reference(x, k) for k in self.kernels]
        )

    def homomorphic(self, scheme: BfvScheme, x: np.ndarray) -> np.ndarray:
        """Evaluate on a cleartext input *homomorphically* (one encrypt,
        k ciphertext multiplications) — used to mint correlations."""
        h, w = x.shape
        _k, kh, kw = self.kernels.shape
        enc = Conv2dEncoder(scheme, h, w, kh, kw)
        ct = enc.encrypt_image(x)
        outs = []
        for kernel in self.kernels:
            res = homomorphic_conv2d(enc, ct, kernel)
            outs.append(enc.decode_output(scheme.decrypt_plaintext(res)))
        return np.stack(outs)


@dataclass
class LinearLayer:
    """Dense integer layer ``y = W x``."""

    weights: np.ndarray  # (out, in) int

    is_linear = True

    def out_shape(self, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.weights.shape[0],)

    def clear_forward(self, x: np.ndarray) -> np.ndarray:
        return self.weights.astype(object) @ np.asarray(x, dtype=object)

    def homomorphic(self, scheme: BfvScheme, x: np.ndarray) -> np.ndarray:
        ct_tiles = encrypt_tiles(scheme, np.asarray(x, dtype=np.int64))
        return BatchedHmvp.once(scheme, self.weights, ct_tiles).decrypt(scheme)


@dataclass
class ReluLayer:
    is_linear = False

    def out_shape(self, in_shape):
        return in_shape

    def clear_forward(self, x):
        return np.maximum(np.asarray(x, dtype=object), 0)


@dataclass
class FlattenLayer:
    is_linear = False

    def out_shape(self, in_shape):
        total = 1
        for d in in_shape:
            total *= d
        return (total,)

    def clear_forward(self, x):
        return np.asarray(x, dtype=object).reshape(-1)


@dataclass
class Sequential:
    """An ordered integer model."""

    layers: List
    input_shape: Tuple[int, ...]

    def predict_clear(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=object)
        for layer in self.layers:
            out = layer.clear_forward(out)
        return out

    def shapes(self) -> List[Tuple[int, ...]]:
        """Input shape of every layer (index-aligned with ``layers``)."""
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        return shapes[:-1]


@dataclass
class _Correlation:
    r: np.ndarray
    c: np.ndarray  # L(r) - s  (client share)
    s: np.ndarray  # server share


@dataclass
class PrivateNetwork:
    """Delphi-style private evaluation of a :class:`Sequential` model.

    The client holds the key; the server holds the weights.  Offline,
    one HE pass per linear layer mints the correlation; online, masked
    cleartext shares flow through the channel (structural layers run at
    the client, where activations are reconstructed — the GC stand-in).
    """

    scheme: BfvScheme
    model: Sequential
    seed: Optional[int] = None
    channel: Channel = field(default_factory=lambda: Channel("nn"))

    def __post_init__(self) -> None:
        self.client = Party("client", self.channel)
        self.server = Party("server", self.channel)
        self.rng = np.random.default_rng(self.seed)
        self.t = self.scheme.params.plain_modulus
        self._correlations: List[Optional[_Correlation]] = []

    # -- offline -------------------------------------------------------------------

    def offline(self) -> None:
        self._correlations = []
        shapes = self.model.shapes()
        for layer, in_shape in zip(self.model.layers, shapes):
            if not layer.is_linear:
                self._correlations.append(None)
                continue
            r = self.rng.integers(-(1 << 10), 1 << 10, in_shape)
            # client ships [[r]]; the server evaluates under encryption.
            # homomorphic() folds encrypt/eval/decrypt into one call, so
            # the bytes are billed with account() at true ciphertext sizes
            from ..he.serialization import rlwe_wire_bytes

            n = self.scheme.params.n
            cts_up = -(-int(np.prod(in_shape)) // n)
            self.channel.account(
                "client", "server", "offline/enc_r",
                cts_up * rlwe_wire_bytes(n, self.scheme.ctx.aug_basis.moduli),
            )
            l_of_r = layer.homomorphic(self.scheme, r)
            s = self.rng.integers(0, self.t, l_of_r.shape, dtype=np.uint64).astype(object)
            c = _mod(np.asarray(l_of_r, dtype=object) - s, self.t)
            cts_down = -(-int(np.prod(l_of_r.shape)) // n)
            self.channel.account(
                "server", "client", "offline/blinded",
                cts_down * rlwe_wire_bytes(n, self.scheme.ctx.ct_basis.moduli),
            )
            self._correlations.append(_Correlation(r=r, c=c, s=s))

    # -- online ----------------------------------------------------------------------

    def online(self, x: np.ndarray) -> np.ndarray:
        if len(self._correlations) != len(self.model.layers):
            raise RuntimeError("run offline() first")
        t = self.t
        current = np.asarray(x, dtype=object)  # client-held activation
        for layer, corr in zip(self.model.layers, self._correlations):
            if not layer.is_linear:
                current = layer.clear_forward(current)
                continue
            masked = _mod(current - corr.r.astype(object), t)
            self.client.send(self.server, "online/masked", masked)
            x_minus_r = _center(self.server.recv("online/masked"), t)
            share = _mod(
                np.asarray(layer.clear_forward(x_minus_r), dtype=object) + corr.s,
                t,
            )
            self.server.send(self.client, "online/share", share)
            received = self.client.recv("online/share")
            current = _center(_mod(received + corr.c, t), t)
        return current

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Offline-once-then-online convenience."""
        if not self._correlations:
            self.offline()
        return self.online(x)
