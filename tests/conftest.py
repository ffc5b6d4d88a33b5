"""Shared fixtures.

Schemes and keys are expensive (Galois keysets especially), so everything
here is session-scoped; tests must not mutate fixture state.  Toy rings
reuse the paper's production moduli (they are NTT-friendly for every
power-of-two degree up to 4096), so all arithmetic paths are identical to
the full-size configuration.
"""

import numpy as np
import pytest

from repro import obs
from repro.he.bfv import BfvScheme
from repro.he.context import CheContext
from repro.he.keys import (
    generate_galois_keyset,
    generate_public_key,
    generate_secret_key,
    pack_galois_elements,
)
from repro.he.params import toy_params


@pytest.fixture(autouse=True)
def _isolate_obs_defaults():
    """Snapshot/restore the default REGISTRY and TRACER around every test.

    The observability singletons are process globals; a test that enables
    metrics or tracing and leaks state would poison any test that runs
    after it in the same worker — nondeterministically under ``-n auto``,
    where the schedule decides who runs after whom.  Restoring both the
    enabled flags and the recorded contents makes every test start from
    the same blank default, whatever worker it lands on.
    """
    reg, tr = obs.REGISTRY, obs.TRACER
    reg_enabled = reg.enabled
    reg_state = (
        dict(reg._counters), dict(reg._gauges), dict(reg._histograms)
    )
    tr_enabled = tr.enabled
    with tr._lock:
        tr_state = (
            list(tr._spans),
            dict(tr._process_names),
            dict(tr._thread_tracks),
            tr._epoch,
        )
    yield
    reg.enabled = reg_enabled
    with reg._lock:
        reg._counters.clear()
        reg._counters.update(reg_state[0])
        reg._gauges.clear()
        reg._gauges.update(reg_state[1])
        reg._histograms.clear()
        reg._histograms.update(reg_state[2])
    tr.enabled = tr_enabled
    with tr._lock:
        tr._spans[:] = tr_state[0]
        tr._process_names.clear()
        tr._process_names.update(tr_state[1])
        tr._thread_tracks.clear()
        tr._thread_tracks.update(tr_state[2])
        tr._epoch = tr_state[3]


@pytest.fixture(scope="session")
def params128():
    return toy_params(n=128, plain_bits=40)


@pytest.fixture(scope="session")
def params256():
    return toy_params(n=256, plain_bits=40)


@pytest.fixture(scope="session")
def ctx128(params128):
    return CheContext(params128, seed=1001)


@pytest.fixture(scope="session")
def sk128(ctx128):
    return generate_secret_key(ctx128)


@pytest.fixture(scope="session")
def pk128(ctx128, sk128):
    return generate_public_key(ctx128, sk128)


@pytest.fixture(scope="session")
def galois128(ctx128, sk128):
    return generate_galois_keyset(
        ctx128, sk128, pack_galois_elements(128, max_count=128)
    )


@pytest.fixture(scope="session")
def scheme128():
    """A full scheme at n=128 with pack keys for up to 128 rows."""
    return BfvScheme(toy_params(n=128, plain_bits=40), seed=7, max_pack=128)


@pytest.fixture(scope="session")
def scheme256():
    """A larger toy scheme for convolution / inference tests."""
    return BfvScheme(toy_params(n=256, plain_bits=40), seed=8, max_pack=16)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC4A)
