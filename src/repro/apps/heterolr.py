"""Heterogeneous (vertically partitioned) logistic regression — §V-B3.

Implements the Hardy et al. HeteroLR protocol the paper accelerates:
party A and party B hold disjoint feature columns of the same samples,
party B additionally holds the labels, and a semi-honest *arbiter* holds
the decryption key.  Per mini-batch:

1. each party computes its half of the logit ``z = X_A w_A + X_B w_B``;
2. A encrypts its half; B forms the encrypted Taylor residual
   ``[[e]] = [[z_A]] + z_B + (2 - 4y)`` (so that the gradient of the
   degree-1 sigmoid approximation is ``X^T e / (4m)`` — the 1/4 stays in
   the clear and no encrypted scalar multiplication is needed);
3. both parties compute their encrypted gradient block ``X_P^T [[e]]``
   — the homomorphic matrix-vector product CHAM accelerates — at the
   same time, as on their own hosts, and blind it with an additive mask
   before the arbiter decrypts, in party order.

Three interchangeable crypto backends mirror Fig. 7's systems:
:class:`PlainBackend` (cleartext oracle), :class:`PaillierBackend`
(FATE's original), and :class:`BfvBackend` (the paper's replacement,
running the real Alg. 1 pipeline).  The trainer records per-step
operation tallies so the performance benchmark can price each backend.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import obs
from ..core.batch import BatchedHmvp, encrypt_tiles
from ..he.bfv import BfvScheme
from ..he.encoder import FixedPointCodec
from ..he.paillier import Paillier
from .datasets import VerticalDataset

__all__ = [
    "LrConfig",
    "StepCounts",
    "PlainBackend",
    "PaillierBackend",
    "BfvBackend",
    "HeteroLrTrainer",
    "taylor_sigmoid",
]


def taylor_sigmoid(z: np.ndarray) -> np.ndarray:
    """The degree-1 approximation HeteroLR trains against: 0.25 z + 0.5."""
    return 0.25 * z + 0.5


@dataclass
class LrConfig:
    """Training hyper-parameters."""

    learning_rate: float = 0.15
    epochs: int = 5
    batch_size: int = 64
    frac_bits: int = 13
    l2: float = 0.0


@dataclass
class StepCounts:
    """Homomorphic operation tallies per protocol step (for perf models)."""

    encryptions: int = 0
    decryptions: int = 0
    ct_additions: int = 0
    matvec_rows: int = 0
    matvec_cols: int = 0
    matvecs: int = 0

    def merge(self, other: "StepCounts") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class PlainBackend:
    """Cleartext oracle backend (no crypto, exact floats)."""

    name = "plain"

    def __init__(self) -> None:
        self.counts = StepCounts()

    def encrypt_residual(self, e: np.ndarray) -> np.ndarray:
        return e.copy()

    def combine_residual(self, enc_e, z_own: np.ndarray, offset: np.ndarray):
        return enc_e + z_own + offset

    def gradient(self, features: np.ndarray, enc_e) -> np.ndarray:
        return features.T @ enc_e

    def decrypt_gradient(self, enc_grad, count: int) -> np.ndarray:
        return np.asarray(enc_grad[:count], dtype=np.float64)


class PaillierBackend:
    """FATE's original Paillier backend (real Paillier, fixed-point)."""

    name = "paillier"

    def __init__(
        self, key_bits: int = 512, frac_bits: int = 13, seed: Optional[int] = 0
    ) -> None:
        self.paillier = Paillier(bits=key_bits, seed=seed)
        self.codec = FixedPointCodec(self.paillier.pk.n, frac_bits)
        self.frac_bits = frac_bits
        self.counts = StepCounts()
        #: both parties' ``gradient`` calls run at once and count here
        self._counts_lock = threading.Lock()

    def encrypt_residual(self, e: np.ndarray) -> List[int]:
        enc = self.codec.encode(e)
        self.counts.encryptions += len(enc)
        return self.paillier.encrypt_vector(enc)

    def combine_residual(
        self, enc_e: List[int], z_own: np.ndarray, offset: np.ndarray
    ) -> List[int]:
        add = self.codec.encode(z_own + offset)
        self.counts.ct_additions += len(enc_e)
        return [
            self.paillier.add_plain(c, int(v)) for c, v in zip(enc_e, add)
        ]

    def gradient(self, features: np.ndarray, enc_e: List[int]) -> List[int]:
        fixed = np.rint(features.T * (1 << self.frac_bits)).astype(object)
        with self._counts_lock:
            self.counts.matvecs += 1
            self.counts.matvec_rows += fixed.shape[0]
            self.counts.matvec_cols += fixed.shape[1]
        return self.paillier.matvec(fixed, enc_e)

    def decrypt_gradient(self, enc_grad: List[int], count: int) -> np.ndarray:
        self.counts.decryptions += count
        vals = self.paillier.decrypt_vector(enc_grad[:count])
        return np.array(vals, dtype=np.float64) / float(
            1 << (2 * self.frac_bits)
        )


class BfvBackend:
    """The paper's B/FV backend running the real Alg. 1 HMVP pipeline."""

    name = "bfv"

    def __init__(
        self, scheme: BfvScheme, frac_bits: int = 13, mask_gradients: bool = True
    ) -> None:
        self.scheme = scheme
        self.codec = FixedPointCodec(scheme.params.plain_modulus, frac_bits)
        self.frac_bits = frac_bits
        #: blind gradients before the arbiter decrypts (Hardy et al.'s
        #: masking step); exact in Z_t, so results are unchanged
        self.mask_gradients = mask_gradients
        self._mask_rng = np.random.default_rng(0xA5C0)
        self.counts = StepCounts()
        #: both parties' ``gradient`` calls run at once and count here
        self._counts_lock = threading.Lock()

    def encrypt_residual(self, e: np.ndarray):
        fixed = self.codec.encode(e)
        self.counts.encryptions += 1
        return encrypt_tiles(self.scheme, fixed)

    def combine_residual(self, enc_e, z_own: np.ndarray, offset: np.ndarray):
        add = self.codec.encode(z_own + offset)
        ring_n = self.scheme.params.n
        out = []
        for i, ct in enumerate(enc_e):
            chunk = add[i * ring_n : (i + 1) * ring_n]
            pt = self.scheme.encoder.encode_vector(chunk)
            out.append(ct.add_plain(pt))
            self.counts.ct_additions += 1
        return out

    def gradient(self, features: np.ndarray, enc_e):
        fixed = np.asarray(
            np.rint(features.T * (1 << self.frac_bits)), dtype=np.int64
        )
        with self._counts_lock:
            self.counts.matvecs += 1
            self.counts.matvec_rows += fixed.shape[0]
            self.counts.matvec_cols += fixed.shape[1]
        return BatchedHmvp.once(self.scheme, fixed, enc_e)

    def decrypt_gradient(self, result, count: int) -> np.ndarray:
        t = self.scheme.params.plain_modulus
        if self.mask_gradients:
            # the party blinds each packed ciphertext before handing it
            # to the arbiter, then removes the mask from the decryption
            masks = []
            blinded_packs = []
            n = self.scheme.params.n
            for pack in result.packs:
                mask = self._mask_rng.integers(
                    0, t, pack.count, dtype=np.uint64
                ).astype(object)
                coeffs = np.zeros(n, dtype=object)
                stride = n >> pack.scale_pow2
                scale = 1 << pack.scale_pow2
                for i in range(pack.count):
                    coeffs[i * stride] = int(mask[i]) * scale % t
                pt_mask = self.scheme.encoder.encode_coeffs(coeffs)
                blinded_packs.append(
                    (pack.ct.add_plain(pt_mask), pack.count, pack.scale_pow2)
                )
                masks.append(mask)
            vals = []
            for (ct, cnt, scale_pow2), mask in zip(blinded_packs, masks):
                pt = self.scheme.decrypt_plaintext(ct)  # arbiter
                decoded = self.scheme.encoder.decode_packed(pt, cnt, scale_pow2)
                unmasked = (np.asarray(decoded, dtype=object) - mask) % t
                half = t // 2
                vals.append(np.where(unmasked > half, unmasked - t, unmasked))
            self.counts.decryptions += len(result.packs)
            flat = np.concatenate(vals)[:count]
            return flat.astype(np.float64) / float(1 << (2 * self.frac_bits))
        self.counts.decryptions += len(result.packs)
        vals = result.decrypt(self.scheme)[:count]
        return vals.astype(np.float64) / float(1 << (2 * self.frac_bits))


@dataclass
class TrainHistory:
    """Loss/accuracy per epoch plus accumulated op tallies."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    counts: StepCounts = field(default_factory=StepCounts)


class HeteroLrTrainer:
    """Two-party HeteroLR with a pluggable crypto backend.

    The backend's ``gradient`` must be safe to call from two threads at
    once: :meth:`train` runs party B's on a worker thread of its own.
    Every other backend call stays on the caller's thread, in protocol
    order.
    """

    def __init__(self, backend, config: Optional[LrConfig] = None) -> None:
        self.backend = backend
        self.config = config or LrConfig()

    # -- protocol steps ----------------------------------------------------------

    def _batch_gradients(
        self,
        party_b: ThreadPoolExecutor,
        x_a: np.ndarray,
        x_b: np.ndarray,
        y: np.ndarray,
        w_a: np.ndarray,
        w_b: np.ndarray,
    ):
        """One encrypted mini-batch: returns (grad_a, grad_b)."""
        m = x_a.shape[0]
        z_a = x_a @ w_a
        z_b = x_b @ w_b
        # Party A encrypts its half of the logit
        enc = self.backend.encrypt_residual(z_a)
        # Party B folds in its half and the label offset: e = z + 2 - 4y
        offset = 2.0 - 4.0 * y
        enc_e = self.backend.combine_residual(enc, z_b, offset)
        # both parties compute their gradient block homomorphically, at
        # once: B's on the worker thread (carrying the batch's trace
        # context across the hop), A's here
        future_b = party_b.submit(
            obs.run_with_context, obs.current_context(), self.backend.gradient, x_b, enc_e
        )
        enc_ga = self.backend.gradient(x_a, enc_e)
        enc_gb = future_b.result()
        # the arbiter decrypts in party order on this thread, since a
        # masking backend draws both parties' masks from one RNG; BFV and
        # Paillier blind the gradient first and strip the mask afterwards
        # (exact in Z_t)
        g_a = self.backend.decrypt_gradient(enc_ga, x_a.shape[1]) / (4.0 * m)
        g_b = self.backend.decrypt_gradient(enc_gb, x_b.shape[1]) / (4.0 * m)
        return g_a, g_b

    def train(self, data: VerticalDataset) -> "tuple[np.ndarray, TrainHistory]":
        """Run the federated training loop; returns (weights, history).

        Party B's gradients run on a worker thread that lives for this call.
        """
        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="heterolr-party-b"
        ) as party_b:
            return self._train(party_b, data)

    def _train(
        self, party_b: ThreadPoolExecutor, data: VerticalDataset
    ) -> "tuple[np.ndarray, TrainHistory]":
        cfg = self.config
        w_a = np.zeros(data.features_a.shape[1])
        w_b = np.zeros(data.features_b.shape[1])
        history = TrainHistory()
        for epoch in range(cfg.epochs):
            with obs.span(
                "heterolr.epoch", epoch=epoch, backend=self.backend.name
            ):
                for batch_idx, (_sl, x_a, x_b, y) in enumerate(
                    data.batches(cfg.batch_size)
                ):
                    with obs.span(
                        "heterolr.batch", epoch=epoch, batch=batch_idx
                    ):
                        g_a, g_b = self._batch_gradients(party_b, x_a, x_b, y, w_a, w_b)
                    obs.inc("apps.heterolr.batches")
                    if cfg.l2:
                        g_a = g_a + cfg.l2 * w_a
                        g_b = g_b + cfg.l2 * w_b
                    w_a = w_a - cfg.learning_rate * g_a
                    w_b = w_b - cfg.learning_rate * g_b
            w = np.concatenate([w_a, w_b])
            z = data.full_features @ w
            pred = taylor_sigmoid(z)
            eps = 1e-9
            clipped = np.clip(pred, eps, 1 - eps)
            loss = -np.mean(
                data.labels * np.log(clipped)
                + (1 - data.labels) * np.log(1 - clipped)
            )
            acc = float(np.mean((z > 0) == (data.labels == 1)))
            obs.inc("apps.heterolr.epochs")
            obs.set_gauge("apps.heterolr.loss", float(loss))
            obs.set_gauge("apps.heterolr.accuracy", acc)
            history.losses.append(float(loss))
            history.accuracies.append(acc)
        history.counts.merge(self.backend.counts)
        return np.concatenate([w_a, w_b]), history
