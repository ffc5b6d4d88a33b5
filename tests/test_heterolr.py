"""Tests for the HeteroLR protocol (Fig. 7 workload)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.apps.datasets import make_vertical_dataset
from repro.apps.heterolr import (
    BfvBackend,
    HeteroLrTrainer,
    LrConfig,
    PaillierBackend,
    PlainBackend,
    StepCounts,
    taylor_sigmoid,
)
from repro.core.batch import host_cpus
from repro.he.bfv import BfvScheme
from repro.he.params import toy_params


@pytest.fixture(scope="module")
def data():
    return make_vertical_dataset(96, 12, seed=1)


@pytest.fixture(scope="module")
def cfg():
    return LrConfig(epochs=3, batch_size=32, learning_rate=0.3)


@pytest.fixture(scope="module")
def plain_result(data, cfg):
    return HeteroLrTrainer(PlainBackend(), cfg).train(data)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_sigmoid_approximation():
    z = np.linspace(-1, 1, 11)
    assert np.allclose(taylor_sigmoid(z), 0.25 * z + 0.5)
    assert np.max(np.abs(taylor_sigmoid(z) - sigmoid(z))) < 0.02


def test_plain_training_learns(plain_result):
    _w, hist = plain_result
    assert hist.accuracies[-1] > 0.85
    assert hist.losses[-1] < hist.losses[0] + 1e-9


def test_bfv_matches_plain(data, cfg, plain_result):
    w_plain, _ = plain_result
    scheme = BfvScheme(toy_params(n=64, plain_bits=40), seed=3, max_pack=64)
    w_bfv, hist = HeteroLrTrainer(BfvBackend(scheme), cfg).train(data)
    assert np.allclose(w_bfv, w_plain, atol=1e-2)
    assert hist.accuracies[-1] > 0.85


def test_paillier_matches_plain(data, cfg, plain_result):
    w_plain, _ = plain_result
    backend = PaillierBackend(key_bits=256, seed=2)
    w_pail, hist = HeteroLrTrainer(backend, cfg).train(data)
    assert np.allclose(w_pail, w_plain, atol=1e-2)
    assert hist.accuracies[-1] > 0.85


def test_bfv_op_counts(data, cfg):
    scheme = BfvScheme(toy_params(n=64, plain_bits=40), seed=5, max_pack=64)
    backend = BfvBackend(scheme)
    HeteroLrTrainer(backend, cfg).train(data)
    batches_per_epoch = 3  # 96 / 32
    total_batches = cfg.epochs * batches_per_epoch
    counts = backend.counts
    assert counts.matvecs == 2 * total_batches  # one per party per batch
    assert counts.encryptions == total_batches  # party A encrypts e once
    # the 96-sample batch spans 32/64: one ciphertext tile per batch
    assert counts.ct_additions == total_batches


def test_l2_regularization_changes_weights(data):
    cfg_l2 = LrConfig(epochs=2, batch_size=32, learning_rate=0.3, l2=0.5)
    cfg_no = LrConfig(epochs=2, batch_size=32, learning_rate=0.3)
    w_l2, _ = HeteroLrTrainer(PlainBackend(), cfg_l2).train(data)
    w_no, _ = HeteroLrTrainer(PlainBackend(), cfg_no).train(data)
    assert np.linalg.norm(w_l2) < np.linalg.norm(w_no)


def test_fixed_point_precision_bound(data):
    """BFV gradients differ from float gradients only by quantization."""
    cfg1 = LrConfig(epochs=1, batch_size=96, learning_rate=0.5, frac_bits=13)
    scheme = BfvScheme(toy_params(n=128, plain_bits=40), seed=6, max_pack=128)
    w_b, _ = HeteroLrTrainer(BfvBackend(scheme, frac_bits=13), cfg1).train(data)
    w_p, _ = HeteroLrTrainer(PlainBackend(), cfg1).train(data)
    assert np.max(np.abs(w_b - w_p)) < 1e-3


def test_counts_merge():
    from repro.apps.heterolr import StepCounts

    a = StepCounts(encryptions=2, matvecs=1)
    b = StepCounts(encryptions=3, decryptions=4)
    a.merge(b)
    assert a.encryptions == 5 and a.decryptions == 4 and a.matvecs == 1


def test_masking_does_not_change_results(data, cfg):
    """Gradient blinding is exact in Z_t: masked and unmasked runs agree."""
    from repro.he.bfv import BfvScheme
    from repro.he.params import toy_params

    s1 = BfvScheme(toy_params(n=64, plain_bits=40), seed=9, max_pack=64)
    s2 = BfvScheme(toy_params(n=64, plain_bits=40), seed=9, max_pack=64)
    w_masked, _ = HeteroLrTrainer(
        BfvBackend(s1, mask_gradients=True), cfg
    ).train(data)
    w_plain, _ = HeteroLrTrainer(
        BfvBackend(s2, mask_gradients=False), cfg
    ).train(data)
    assert np.allclose(w_masked, w_plain, atol=1e-12)


def test_mask_blinds_arbiter_view(data):
    """What the arbiter decrypts under masking is NOT the true gradient."""
    from repro.he.bfv import BfvScheme
    from repro.he.params import toy_params

    scheme = BfvScheme(toy_params(n=64, plain_bits=40), seed=10, max_pack=64)
    backend = BfvBackend(scheme, mask_gradients=True)
    rng = np.random.default_rng(0)
    e = rng.normal(0, 1, 64)
    enc = backend.encrypt_residual(e)
    x = rng.normal(0, 1, (64, 6))
    result = backend.gradient(x, enc)
    # the raw (unmasked) decryption equals the true fixed-point gradient;
    # with masking the arbiter-visible plaintext is uniformly shifted
    raw = result.decrypt(scheme)
    masked_view_differs = False
    t = scheme.params.plain_modulus
    pack = result.packs[0]
    mask = np.ones(pack.count, dtype=object) * 12345
    coeffs = np.zeros(scheme.params.n, dtype=object)
    stride = scheme.params.n >> pack.scale_pow2
    for i in range(pack.count):
        coeffs[i * stride] = int(mask[i]) * (1 << pack.scale_pow2) % t
    blinded = pack.ct.add_plain(scheme.encoder.encode_coeffs(coeffs))
    seen = scheme.encoder.decode_packed(
        scheme.decrypt_plaintext(blinded), pack.count, pack.scale_pow2
    )
    masked_view_differs = not np.array_equal(
        np.mod(np.asarray(seen, dtype=object), t),
        np.mod(np.asarray(raw, dtype=object), t),
    )
    assert masked_view_differs


# -- the two parties' gradients run concurrently --------------------------------


class _Wrapped:
    """Pass-through backend; subclasses hook ``gradient``."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _Serialized(_Wrapped):
    """Runs one ``gradient`` at a time: the parties in sequence."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._lock = threading.Lock()

    def gradient(self, features, enc_e):
        with self._lock:
            return self.inner.gradient(features, enc_e)


#: party A holds 3 of the 12 features, party B 9, so a gradient call
#: tells its party by its feature count
_A_FEATURES = 3


@pytest.fixture(scope="module")
def split_data():
    return make_vertical_dataset(96, 12, party_a_fraction=0.25, seed=1)


_BACKENDS = {
    "plain": PlainBackend,
    "paillier": lambda: PaillierBackend(key_bits=256, seed=2),
    "bfv": lambda: BfvBackend(
        BfvScheme(toy_params(n=64, plain_bits=40), seed=3, max_pack=64)
    ),
}


@pytest.mark.parametrize("name", sorted(_BACKENDS))
def test_concurrent_parties_match_serialized_parties(name, data):
    """Each gradient is a function of its inputs alone, so running the
    parties at once changes neither the weights nor the tallies."""
    cfg = LrConfig(epochs=2, batch_size=32, learning_rate=0.3)
    w_conc, h_conc = HeteroLrTrainer(_BACKENDS[name](), cfg).train(data)
    w_ser, h_ser = HeteroLrTrainer(_Serialized(_BACKENDS[name]()), cfg).train(data)
    assert np.array_equal(w_conc, w_ser)
    assert h_conc.counts == h_ser.counts
    assert h_conc.losses == h_ser.losses


def test_party_b_gradient_runs_on_its_own_thread(split_data):
    calls = []

    class Recording(_Wrapped):
        def gradient(self, features, enc_e):
            calls.append((features.shape[1], threading.get_ident()))
            return self.inner.gradient(features, enc_e)

    cfg = LrConfig(epochs=2, batch_size=32)
    HeteroLrTrainer(Recording(PlainBackend()), cfg).train(split_data)
    party_a = {ident for feats, ident in calls if feats == _A_FEATURES}
    party_b = {ident for feats, ident in calls if feats != _A_FEATURES}
    assert len(calls) == 2 * 2 * 3  # two parties, two epochs, three batches
    assert party_a == {threading.get_ident()}
    assert len(party_b) == 1 and party_b != party_a


@pytest.mark.parametrize("failing_features", [_A_FEATURES, 12 - _A_FEATURES])
def test_party_gradient_error_propagates_and_joins_the_worker(
    split_data, failing_features
):
    class Failing(_Wrapped):
        def gradient(self, features, enc_e):
            if features.shape[1] == failing_features:
                raise RuntimeError(f"party with {failing_features} features")
            return self.inner.gradient(features, enc_e)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"party with {failing_features}"):
        HeteroLrTrainer(Failing(PlainBackend()), LrConfig(epochs=1)).train(
            split_data
        )
    deadline = time.monotonic() + 10.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == before


def test_party_b_spans_carry_the_batch_trace_id(split_data):
    obs.TRACER.reset()
    obs.enable_tracing()
    try:
        scheme = BfvScheme(toy_params(n=64, plain_bits=40), seed=3, max_pack=64)
        cfg = LrConfig(epochs=1, batch_size=48)
        with obs.use_context(obs.TRACER.new_trace()) as ctx:
            HeteroLrTrainer(BfvBackend(scheme), cfg).train(split_data)
    finally:
        obs.disable_tracing()
    spans = obs.TRACER.spans
    batches = {s.span_id: s for s in spans if s.name == "heterolr.batch"}
    assert len(batches) == 2
    main_track = next(iter(batches.values())).track
    packs = [s for s in spans if s.name == "PACK"]
    worker = [s for s in packs if s.track != main_track]
    # one pack per party per batch, and party B's on the worker's track
    assert len(packs) == 4 and len(worker) == 2
    for s in worker:
        assert s.trace_id == ctx.trace_id
        assert s.parent_id in batches


def test_step_counts_exact_under_thread_stress():
    """More threads than CPUs call one backend's ``gradient`` with a
    one-microsecond switch interval; no matvec tally may be lost."""
    scheme = BfvScheme(toy_params(n=64, plain_bits=40), seed=4, max_pack=64)
    backend = BfvBackend(scheme)
    rng = np.random.default_rng(0)
    enc_e = backend.encrypt_residual(rng.normal(0, 1, 8))
    features = rng.normal(0, 1, (8, 2))
    threads, calls = host_cpus() + 2, 16
    errors = []

    def worker():
        try:
            for _ in range(calls):
                backend.gradient(features, enc_e)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        deadline = time.monotonic() + 120.0
        for t in pool:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert not errors
    total = threads * calls
    assert backend.counts == StepCounts(
        encryptions=1, matvecs=total, matvec_rows=2 * total, matvec_cols=8 * total
    )
