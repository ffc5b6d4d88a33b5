#!/usr/bin/env python3
"""Quickstart: an encrypted matrix-vector product with CHAM's pipeline.

Runs Algorithm 1 end-to-end at the paper's production parameters
(N = 4096, the exact low-Hamming-weight moduli of Section II-F):
encode -> encrypt -> DOTPRODUCT -> EXTRACTLWES -> PACKLWES -> decrypt,
then prints the noise at each pipeline stage and the hardware cycle
count the CHAM simulator assigns to the same job.

Usage: python examples/quickstart.py
"""

import numpy as np

from repro.core.batch import BatchedHmvp
from repro.he.bfv import BfvScheme
from repro.he.params import cham_params
from repro.hw.perf import ChamPerfModel


def main() -> None:
    rows, cols = 8, 4096
    print("CHAM reproduction quickstart")
    print("=" * 60)

    params = cham_params()
    print(f"parameters : {params.describe()}")

    # keygen (Galois keys sized for the pack we plan to run)
    scheme = BfvScheme(params, seed=0, max_pack=rows)
    print(f"secret key : ternary, hamming weight {scheme.secret_key.hamming_weight}")

    # the data: party B's matrix, party A's vector
    rng = np.random.default_rng(1)
    matrix = rng.integers(-(1 << 15), 1 << 15, (rows, cols))
    vector = rng.integers(-(1 << 15), 1 << 15, cols)

    # party A encrypts (augmented form: 6 polynomials, Section II-F)
    ct = scheme.encrypt_vector(vector)
    print(f"ciphertext : {ct.poly_count} polynomials of degree {params.n}")
    print(f"fresh noise: {scheme.noise_bits(ct):.1f} bits")

    # party B runs Algorithm 1 once on its matrix (encode included)
    result = BatchedHmvp.once(scheme, matrix, [ct])
    print(f"pipeline   : {result.ops.dot_products} dot products, "
          f"{result.ops.pack_reductions} PACKTWOLWES reductions, "
          f"{result.ops.keyswitches} key-switches")

    # arbiter decrypts the single packed ciphertext
    decrypted = result.decrypt(scheme)
    expected = matrix.astype(object) @ vector.astype(object)
    assert np.array_equal(decrypted, expected), "decryption mismatch!"
    print(f"result     : {[int(x) for x in decrypted[:4]]} ... all "
          f"{rows} inner products correct")

    # what would the FPGA do with this job?
    perf = ChamPerfModel()
    cycles = perf.hmvp_cycles(rows, cols)
    print(f"hardware   : {cycles:,} cycles @300 MHz "
          f"= {cycles / 300e6 * 1e6:.0f} us on the simulated CHAM")
    print("OK")


if __name__ == "__main__":
    main()
