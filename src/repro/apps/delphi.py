"""Delphi-style secure two-party inference (§V-B4's context, [28]).

Delphi splits private inference into an input-independent *offline*
phase that burns the HE budget (exactly the Beaver-triple generation
CHAM accelerates) and a feather-weight *online* phase over additive
shares:

offline, per linear layer ``L``:
    1. the client samples a random tensor ``r``, encrypts it, sends
       ``[[r]]`` (one CHAM HMVP / conv worth of ciphertexts);
    2. the server evaluates ``[[L(r)]]`` homomorphically, blinds it with
       a random ``s`` and returns ``[[L(r) - s]]``;
    3. the client decrypts and keeps ``c = L(r) - s``; the server keeps
       ``s``.

online, per linear layer:
    4. the client sends the masked input ``x - r`` (cleartext shares!);
    5. the server computes ``L(x - r) + s`` — its share of ``L(x)``;
       the client's share is ``c``, since ``L(x-r) + s + c = L(x)``.
    6. non-linear layers (ReLU) run in an MPC stand-in: shares are
       reconstructed at the client, activated, and re-shared.

Everything is exact arithmetic over ``Z_t``; :class:`DelphiInference`
runs the full two-layer :class:`~repro.apps.inference.TinyModel`
(conv → ReLU → dense) through the real HE pipeline and the protocol
harness, so both correctness *and* communication are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.conv import Conv2dEncoder, conv2d_reference, homomorphic_conv2d
from ..core.batch import BatchedHmvp, encrypt_tiles
from ..he.bfv import BfvScheme
from .inference import TinyModel
from .protocol import Channel, Party

__all__ = ["LayerCorrelation", "DelphiInference"]


def _mod(x: np.ndarray, t: int) -> np.ndarray:
    return np.mod(np.asarray(x, dtype=object), t)


def _center(x: np.ndarray, t: int) -> np.ndarray:
    half = t // 2
    return np.where(x > half, x - t, x)


@dataclass
class LayerCorrelation:
    """One layer's offline material: client ``(r, c)``, server ``s``."""

    r: np.ndarray  # client's random input mask (cleartext at client)
    c: np.ndarray  # client's share  c = L(r) - s
    s: np.ndarray  # server's share


@dataclass
class DelphiInference:
    """Client/server secure inference over one shared scheme.

    The scheme's secret key belongs to the client; the server only ever
    sees ciphertexts and masked cleartext shares.
    """

    scheme: BfvScheme
    model: TinyModel
    image_size: int
    seed: Optional[int] = None
    channel: Channel = field(default_factory=lambda: Channel("delphi"))

    def __post_init__(self) -> None:
        self.client = Party("client", self.channel)
        self.server = Party("server", self.channel)
        self.rng = np.random.default_rng(self.seed)
        self.t = self.scheme.params.plain_modulus
        kh, kw = self.model.kernel.shape
        self.conv_encoder = Conv2dEncoder(
            self.scheme, self.image_size, self.image_size, kh, kw
        )
        self.fc_engine = BatchedHmvp(self.scheme, self.model.fc)
        self._conv_corr: Optional[LayerCorrelation] = None
        self._fc_corr: Optional[LayerCorrelation] = None

    # -- offline phase -----------------------------------------------------------

    def _offline_conv(self) -> LayerCorrelation:
        size = self.image_size
        # client: sample r, encrypt, send (values bounded so HE inner
        # products stay inside Z_t — production shares the full ring and
        # tiles; see BeaverGenerator._rand_small for the same convention)
        r = self.rng.integers(-(1 << 12), 1 << 12, (size, size))
        ct = self.conv_encoder.encrypt_image(r)
        self.client.send(self.server, "offline/conv/enc_r", ct)

        # server: homomorphic conv, blind, return
        ct_in = self.server.recv("offline/conv/enc_r")
        out = homomorphic_conv2d(self.conv_encoder, ct_in, self.model.kernel)
        oh, ow = self.conv_encoder.out_shape
        s = self.rng.integers(0, self.t, (oh, ow), dtype=np.uint64).astype(object)
        # blinding by add_plain of -s keeps the result uniformly masked
        neg_s = self.scheme.encoder.encode_coeffs(
            self._embed_conv_mask(-s % self.t)
        )
        blinded = out.add_plain(neg_s)
        self.server.send(self.client, "offline/conv/blinded", blinded)

        # client: decrypt c = Conv(r) - s
        ct_back = self.client.recv("offline/conv/blinded")
        pt = self.scheme.decrypt_plaintext(ct_back)
        c = _mod(self.conv_encoder.decode_output(pt), self.t)
        return LayerCorrelation(r=r, c=c, s=s)

    def _embed_conv_mask(self, mask: np.ndarray) -> np.ndarray:
        """Place a mask over the conv output positions of the plaintext."""
        coeffs = np.zeros(self.scheme.params.n, dtype=object)
        pos = self.conv_encoder.output_positions()
        oh, ow = mask.shape
        for i in range(oh):
            for j in range(ow):
                coeffs[pos[i, j]] = int(mask[i, j])
        return coeffs

    def _offline_fc(self) -> LayerCorrelation:
        feat = self.model.fc.shape[1]
        r = self.rng.integers(-(1 << 12), 1 << 12, feat)
        ct_tiles = encrypt_tiles(self.scheme, r)
        self.client.send(self.server, "offline/fc/enc_r", ct_tiles)

        tiles = self.server.recv("offline/fc/enc_r")
        result = self.fc_engine.multiply_tiles(tiles)
        # server blinds after the pack: one add_plain on the packed ct
        classes = self.model.fc.shape[0]
        s = self.rng.integers(0, self.t, classes, dtype=np.uint64).astype(object)
        pack = result.packs[0]
        stride = self.scheme.params.n >> pack.scale_pow2
        mask_coeffs = np.zeros(self.scheme.params.n, dtype=object)
        scale_inv = pow(1 << pack.scale_pow2, -1, self.t)
        for i in range(classes):
            # the packed slots carry 2^k * value; blind at matching scale
            mask_coeffs[i * stride] = int(-s[i] * (1 << pack.scale_pow2) % self.t)
        blinded = pack.ct.add_plain(
            self.scheme.encoder.encode_coeffs(mask_coeffs)
        )
        self.server.send(self.client, "offline/fc/blinded", blinded)
        del scale_inv

        ct_back = self.client.recv("offline/fc/blinded")
        pt = self.scheme.decrypt_plaintext(ct_back)
        c = _mod(
            self.scheme.encoder.decode_packed(pt, classes, pack.scale_pow2),
            self.t,
        )
        return LayerCorrelation(r=r, c=c, s=s)

    def offline(self) -> None:
        """Run the input-independent preprocessing for both layers."""
        self._conv_corr = self._offline_conv()
        self._fc_corr = self._offline_fc()

    # -- online phase ---------------------------------------------------------------

    def online(self, image: np.ndarray) -> np.ndarray:
        """Classify one image; returns the logits (exact integers)."""
        if self._conv_corr is None or self._fc_corr is None:
            raise RuntimeError("run offline() first")
        t = self.t
        conv = self._conv_corr
        fc = self._fc_corr

        # client -> server: masked image (cleartext shares)
        masked = _mod(image.astype(object) - conv.r.astype(object), t)
        self.client.send(self.server, "online/conv/masked", masked)

        # server: L(x - r) + s
        x_minus_r = _center(self.server.recv("online/conv/masked"), t)
        server_share = _mod(
            conv2d_reference(x_minus_r, self.model.kernel) + conv.s, t
        )
        self.server.send(self.client, "online/conv/share", server_share)

        # client: reconstruct conv output, ReLU (the MPC stand-in)
        fm = _center(_mod(self.client.recv("online/conv/share") + conv.c, t), t)
        act = np.maximum(fm, 0).reshape(-1)

        # second layer: same dance with the FC correlation
        masked2 = _mod(act - fc.r.astype(object), t)
        self.client.send(self.server, "online/fc/masked", masked2)
        x2 = _center(self.server.recv("online/fc/masked"), t)
        server_share2 = _mod(self.model.fc.astype(object) @ x2 + fc.s, t)
        self.server.send(self.client, "online/fc/share", server_share2)
        logits = _center(_mod(self.client.recv("online/fc/share") + fc.c, t), t)
        return logits

    # -- reporting --------------------------------------------------------------------

    def communication_summary(self) -> dict:
        by_label = self.channel.bytes_by_label()
        offline = sum(v for k, v in by_label.items() if k.startswith("offline"))
        online = sum(v for k, v in by_label.items() if k.startswith("online"))
        return {
            "offline_bytes": offline,
            "online_bytes": online,
            "rounds": self.channel.rounds,
            "by_label": by_label,
        }
