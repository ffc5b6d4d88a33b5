"""The homomorphic-encryption layer of the CHAM reproduction.

Implements the RNS-BFV-style scheme of Section II with the paper's exact
moduli, the RLWE/LWE ciphertext types and their conversions (Eq. 3), the
PACKTWOLWES / PACKLWES algorithms (Alg. 2/3), hybrid key-switching with
the 39-bit special modulus, noise tracking, and the Paillier baseline the
HeteroLR evaluation compares against.
"""

from .params import CheParams, cham_params, toy_params, estimate_security
from .paramgen import ParamRequest, generate_params, low_hamming_prime_menu
from .context import CheContext
from .encoder import CoefficientEncoder, FixedPointCodec, Plaintext
from .keys import (
    GaloisKeyset,
    KeySwitchKey,
    PublicKey,
    SecretKey,
    generate_galois_key,
    generate_galois_keyset,
    generate_keyswitch_key,
    generate_public_key,
    generate_secret_key,
    pack_galois_elements,
)
from .rlwe import RlweCiphertext, decrypt, encrypt, encrypt_pk
from .lwe import LweCiphertext, decrypt_lwe, extract_lwe, lwe_to_rlwe
from .keyswitch import apply_keyswitch, key_switch_raw
from .automorphism import apply_automorphism, apply_automorphism_with_key
from .packing import PackedResult, pack_lwes
from .noise import (
    NoiseModel,
    absolute_noise_bits,
    invariant_noise_budget,
    packed_slot_positions,
)
from .bfv import BfvScheme
from .bgv import BgvScheme, bfv_to_bgv, bgv_to_bfv, conversion_factor
from .ckks import CkksCiphertext, CkksScheme, CkksSlotEncoder
from .conversion import bfv_to_ckks, ckks_to_bfv, max_exact_message
from .paillier import Paillier, paillier_keygen
from .serialization import (
    deserialize_lwe,
    deserialize_plaintext,
    deserialize_rlwe,
    rlwe_wire_bytes,
    serialize_lwe,
    serialize_plaintext,
    serialize_rlwe,
)

__all__ = [
    "CheParams",
    "ParamRequest",
    "generate_params",
    "low_hamming_prime_menu",
    "cham_params",
    "toy_params",
    "estimate_security",
    "CheContext",
    "CoefficientEncoder",
    "FixedPointCodec",
    "Plaintext",
    "GaloisKeyset",
    "KeySwitchKey",
    "PublicKey",
    "SecretKey",
    "generate_galois_key",
    "generate_galois_keyset",
    "generate_keyswitch_key",
    "generate_public_key",
    "generate_secret_key",
    "pack_galois_elements",
    "RlweCiphertext",
    "decrypt",
    "encrypt",
    "encrypt_pk",
    "LweCiphertext",
    "decrypt_lwe",
    "extract_lwe",
    "lwe_to_rlwe",
    "apply_keyswitch",
    "key_switch_raw",
    "apply_automorphism",
    "apply_automorphism_with_key",
    "PackedResult",
    "pack_lwes",
    "NoiseModel",
    "absolute_noise_bits",
    "invariant_noise_budget",
    "packed_slot_positions",
    "BfvScheme",
    "BgvScheme",
    "bfv_to_bgv",
    "bgv_to_bfv",
    "conversion_factor",
    "CkksCiphertext",
    "CkksScheme",
    "CkksSlotEncoder",
    "bfv_to_ckks",
    "ckks_to_bfv",
    "max_exact_message",
    "Paillier",
    "paillier_keygen",
    "deserialize_lwe",
    "deserialize_plaintext",
    "deserialize_rlwe",
    "rlwe_wire_bytes",
    "serialize_lwe",
    "serialize_plaintext",
    "serialize_rlwe",
]
