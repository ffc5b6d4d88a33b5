"""CHAM reproduction: a customized homomorphic encryption accelerator for
fast matrix-vector product (Ren et al., DAC 2023), as a Python library.

The package is layered:

* :mod:`repro.math` — modular arithmetic, gold-model and constant-geometry
  NTTs, ring polynomials, RNS;
* :mod:`repro.he` — the RNS-BFV scheme with the paper's exact moduli,
  LWE/RLWE conversion and PACKLWES (plus the Paillier baseline);
* :mod:`repro.core` — coefficient-encoded HMVP (Alg. 1), tiling,
  convolutions, and the baseline encodings it is compared against;
* :mod:`repro.hw` — cycle-level simulation of the CHAM FPGA (NTT
  datapath, macro-pipeline, resources, roofline, DSE, heterogeneous
  system, RAS runtime) plus calibrated CPU/GPU performance models;
* :mod:`repro.apps` — HeteroLR, Beaver triple generation, private
  inference;
* :mod:`repro.obs` — unified observability: metrics registry (counters,
  gauges, histograms) and span tracer with JSONL / Chrome-trace export;
* :mod:`repro.analysis` — HE-aware static analysis: AST lint rules that
  machine-check the paper's arithmetic contracts (overflow-safe modular
  products, dtype discipline, seeded randomness, non-blocking serving).

Quickstart::

    from repro.he import BfvScheme, cham_params
    from repro.core import BatchedHmvp, encrypt_tiles

    scheme = BfvScheme(cham_params(), seed=0, max_pack=4096)
    engine = BatchedHmvp(scheme, matrix)     # encode the matrix once
    result = engine.multiply_tiles(encrypt_tiles(scheme, vector))
    values = result.decrypt(scheme)          # Alg. 1 end to end
"""

__version__ = "1.0.0"

from . import analysis, apps, core, he, hw, math, obs

__all__ = [
    "analysis",
    "apps",
    "core",
    "he",
    "hw",
    "math",
    "obs",
    "__version__",
]
