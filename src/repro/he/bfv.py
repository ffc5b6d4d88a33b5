"""User-facing scheme facade.

:class:`BfvScheme` bundles the parameter set, context, key material and
encoder behind the handful of calls applications actually make
(*keygen → encrypt → evaluate → decrypt*).  The lower-level modules stay
importable for anything the facade does not cover.

This is the object the application layer (:mod:`repro.apps`) and the
examples build on; the paper's Section V-B3 workload ("we replaced
Paillier with B/FV") maps to swapping :class:`repro.he.paillier.Paillier`
for this class.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .context import CheContext
from .encoder import CoefficientEncoder, Plaintext
from .keys import (
    GaloisKeyset,
    PublicKey,
    SecretKey,
    generate_galois_keyset,
    generate_public_key,
    generate_secret_key,
    pack_galois_elements,
)
from .lwe import LweCiphertext, decrypt_lwe, extract_lwe
from .noise import absolute_noise_bits, invariant_noise_budget
from .packing import PackedResult, pack_lwes
from .params import CheParams, cham_params
from .rlwe import RlweCiphertext, decrypt, encrypt, encrypt_pk

__all__ = ["BfvScheme"]


class BfvScheme:
    """The CHAM HE scheme, keys included.

    Parameters
    ----------
    params:
        Parameter set; defaults to the paper's production set.
    seed:
        Seed for reproducible key generation and encryption randomness.
    max_pack:
        Largest number of LWE ciphertexts the instance will pack; Galois
        keys are generated for exactly the required merge levels.
    """

    def __init__(
        self,
        params: Optional[CheParams] = None,
        seed: Optional[int] = None,
        max_pack: Optional[int] = None,
    ) -> None:
        self.params = params if params is not None else cham_params()
        self.ctx = CheContext(self.params, seed)
        self.encoder = CoefficientEncoder(self.params)
        self.secret_key: SecretKey = generate_secret_key(self.ctx)
        self.public_key: PublicKey = generate_public_key(self.ctx, self.secret_key)
        elements = pack_galois_elements(
            self.params.n, max_count=max_pack if max_pack else None
        )
        self.galois_keys: GaloisKeyset = generate_galois_keyset(
            self.ctx, self.secret_key, elements
        )

    # -- encryption ----------------------------------------------------------------

    def encrypt_vector(
        self, v: Sequence[int], augmented: bool = True, public: bool = False
    ) -> RlweCiphertext:
        """Encrypt an integer vector with Eq. 1's ``pt^(v)`` encoding."""
        pt = self.encoder.encode_vector(np.asarray(v))
        if public:
            return encrypt_pk(self.ctx, self.public_key, pt, augmented=augmented)
        return encrypt(self.ctx, self.secret_key, pt, augmented=augmented)

    def encrypt_plaintext(
        self, pt: Plaintext, augmented: bool = True
    ) -> RlweCiphertext:
        return encrypt(self.ctx, self.secret_key, pt, augmented=augmented)

    # -- decryption ----------------------------------------------------------------

    def decrypt_plaintext(self, ct: RlweCiphertext) -> Plaintext:
        return decrypt(self.ctx, self.secret_key, ct)

    def decrypt_coeffs(self, ct: RlweCiphertext, count: int) -> np.ndarray:
        """Decrypt and return the first ``count`` centered coefficients."""
        return self.decrypt_plaintext(ct).centered()[:count]

    def decrypt_packed(self, packed: PackedResult) -> np.ndarray:
        """Decrypt a PACKLWES result into centered slot values."""
        pt = self.decrypt_plaintext(packed.ct)
        return self.encoder.decode_packed(pt, packed.count, packed.scale_pow2)

    def decrypt_lwe(self, lwe: LweCiphertext) -> int:
        return decrypt_lwe(self.ctx, self.secret_key, lwe)

    # -- evaluation ----------------------------------------------------------------

    def dot_product(self, ct_v: RlweCiphertext, row: Sequence[int]) -> RlweCiphertext:
        """One DOTPRODUCT pipeline pass: multiply by ``pt^(row)``, rescale."""
        pt_row = self.encoder.encode_row(np.asarray(row))
        prod = ct_v.multiply_plain(pt_row)
        return prod.rescale() if prod.is_augmented else prod

    def extract(self, ct: RlweCiphertext, idx: int = 0) -> LweCiphertext:
        return extract_lwe(ct, idx)

    def pack(self, lwes: List[LweCiphertext]) -> PackedResult:
        return pack_lwes(lwes, self.galois_keys)

    # -- diagnostics -----------------------------------------------------------------

    def noise_bits(
        self, ct: RlweCiphertext, positions: Optional[Sequence[int]] = None
    ) -> float:
        return absolute_noise_bits(self.ctx, self.secret_key, ct, positions)

    def noise_budget(
        self, ct: RlweCiphertext, positions: Optional[Sequence[int]] = None
    ) -> float:
        return invariant_noise_budget(self.ctx, self.secret_key, ct, positions)
