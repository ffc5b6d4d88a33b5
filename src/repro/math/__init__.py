"""Arithmetic substrate: modular/NTT/polynomial/RNS building blocks.

Everything in :mod:`repro.he` and :mod:`repro.hw` is built on top of this
package.  Every NTT runs one kernel, the constant-geometry Pease network
of the paper's Algorithm 4 over whole RNS limb stacks
(:mod:`repro.math.ntt`); :mod:`repro.math.cg_ntt` is its hardware-facing
view (twiddle ROM schedule, cycle count).  The merged Cooley-Tukey gold
model it is pinned to lives in ``tests/oracles.py``.
"""

from .modular import (
    BarrettReducer,
    LowHammingModulus,
    center_lift_vec,
    modadd_vec,
    modinv,
    modmul_vec,
    modneg_vec,
    modsub_vec,
)
from .ntt import NegacyclicNtt
from .cg_ntt import CgSchedule, cg_ntt_cycles, constant_geometry_schedule
from .polynomial import automorph, shiftneg
from .primes import (
    CHAM_P,
    CHAM_Q0,
    CHAM_Q1,
    find_low_hamming_ntt_prime,
    find_ntt_prime,
    is_ntt_friendly,
    is_prime,
    negacyclic_psi,
    primitive_root,
    root_of_unity,
)
from .rns import RnsBasis

__all__ = [
    "BarrettReducer",
    "LowHammingModulus",
    "center_lift_vec",
    "modadd_vec",
    "modinv",
    "modmul_vec",
    "modneg_vec",
    "modsub_vec",
    "NegacyclicNtt",
    "CgSchedule",
    "cg_ntt_cycles",
    "constant_geometry_schedule",
    "automorph",
    "shiftneg",
    "CHAM_P",
    "CHAM_Q0",
    "CHAM_Q1",
    "find_low_hamming_ntt_prime",
    "find_ntt_prime",
    "is_ntt_friendly",
    "is_prime",
    "negacyclic_psi",
    "primitive_root",
    "root_of_unity",
    "RnsBasis",
]
