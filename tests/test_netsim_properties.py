"""Property battery for the interconnect simulator (ISSUE 10).

Five families of statements about :mod:`repro.hw.netsim` that must hold
for *every* topology, load, and parameterization — not just the shapes
the cluster layer happens to generate:

* **conservation** — every injected flit is delivered exactly once
  (no drops, no duplicates), on any fabric, under any load, including
  cyclic ring traffic where bubble flow control is what prevents a
  credit deadlock;
* **FIFO links** — each link delivers flits in exactly the order it
  serialized them (credit flow control never reorders a FIFO buffer);
* **determinism** — a run is a pure function of the injected workload:
  same load, same trace digest, event for event; and the digest is
  sensitive enough to distinguish different loads;
* **replay** — a repeated drain replayed from the memo leaves every
  statistic and the trace digest exactly where simulating it would;
* **ideal-fabric equivalence** — attaching the infinite-bandwidth
  ``ideal`` topology to a cluster run changes *nothing*: zero network
  cycles, identical report, identical plan, bit-identical ciphertexts
  versus ``topology=None`` (the historical free-comm path).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterExecutor
from repro.hw.netsim import _PUMP, NetworkSimulator, SimulatorEngine
from repro.hw.topology import (
    COORDINATOR,
    TOPOLOGY_KINDS,
    TopologyError,
    build_topology,
)

REAL_KINDS = [k for k in TOPOLOGY_KINDS if k != "ideal"]


def _endpoints(nodes):
    return [COORDINATOR] + list(range(nodes))


def _run_load(kind, nodes, transfers, flit_bytes=32, buffer_flits=3,
              bandwidth=8, latency=2, record_orders=False):
    """Build a fabric, inject ``transfers`` as (src_i, dst_i, nbytes)."""
    topology = build_topology(
        kind, list(range(nodes)), bandwidth=bandwidth, latency=latency
    )
    sim = NetworkSimulator(
        topology,
        flit_bytes=flit_bytes,
        buffer_flits=buffer_flits,
        record_orders=record_orders,
    )
    eps = _endpoints(nodes)
    sim.begin_phase("load")
    for src_i, dst_i, nbytes in transfers:
        src = eps[src_i % len(eps)]
        dst = eps[dst_i % len(eps)]
        if src == dst:
            dst = eps[(dst_i + 1) % len(eps)]
        if src == dst:
            continue
        sim.inject(src, dst, nbytes)
    sim.drain()
    return sim


# -- conservation ---------------------------------------------------------


@given(
    kind=st.sampled_from(list(TOPOLOGY_KINDS)),
    nodes=st.integers(min_value=2, max_value=6),
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=700),
        ),
        min_size=1,
        max_size=24,
    ),
    flit_bytes=st.sampled_from([16, 64, 100]),
    buffer_flits=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_flit_conservation(kind, nodes, transfers, flit_bytes, buffer_flits):
    """Every injected flit arrives exactly once on every fabric.  The
    simulator keeps delivered messages' records only while it records
    orders, so this run records them."""
    sim = _run_load(
        kind, nodes, transfers,
        flit_bytes=flit_bytes, buffer_flits=buffer_flits, record_orders=True,
    )
    assert len(sim.messages) == sim.message_count
    assert sim.flits_injected >= len(sim.messages)  # >= 1 flit per message
    assert sim.flits_delivered == sim.flits_injected
    assert sim.flits_dropped == 0
    assert sim.duplicates == 0
    for msg in sim.messages.values():
        assert msg.delivered_flits == msg.flits
        assert msg.delivered_at is not None
        assert msg.delivered_at >= msg.injected_at
    # bounded buffers really are bounded (credit invariant, observed)
    assert sim.max_queue_depth <= buffer_flits


def test_ring_all_to_all_does_not_deadlock():
    """Dense cyclic traffic on the ring: bubble flow control must keep
    the cycle from filling; with plain credit flow it wedges."""
    nodes = 6
    transfers = [
        (a, b, 512)
        for a in range(nodes + 1)
        for b in range(nodes + 1)
        if a != b
    ]
    sim = _run_load("ring", nodes, transfers, buffer_flits=2, bandwidth=4)
    assert sim.flits_dropped == 0
    assert sim.duplicates == 0
    assert sim.blocked_attempts > 0  # the fabric was actually contended


# -- FIFO links -----------------------------------------------------------


@given(
    kind=st.sampled_from(REAL_KINDS),
    nodes=st.integers(min_value=2, max_value=5),
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=1, max_value=600),
        ),
        min_size=2,
        max_size=16,
    ),
)
@settings(max_examples=25, deadline=None)
def test_links_deliver_in_fifo_order(kind, nodes, transfers):
    """Per link: the arrive order equals the send order, flit for flit."""
    sim = _run_load(kind, nodes, transfers, record_orders=True)
    # a load between endpoints of one router (two nodes on one fat-tree
    # leaf) crosses no link and says nothing about FIFO order
    assume(any(sim.sent_order.values()))
    for link_id, sent in sim.sent_order.items():
        assert sim.arrive_order[link_id] == sent


# -- determinism ----------------------------------------------------------


@given(
    kind=st.sampled_from(list(TOPOLOGY_KINDS)),
    nodes=st.integers(min_value=2, max_value=5),
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=500),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=25, deadline=None)
def test_identical_loads_produce_identical_traces(kind, nodes, transfers):
    """The simulator is a pure function of the workload: two runs of the
    same load agree on the full event trace, not just the totals."""
    a = _run_load(kind, nodes, transfers)
    b = _run_load(kind, nodes, transfers)
    assert a.trace_digest() == b.trace_digest()
    assert a.stats() == b.stats()


def test_different_loads_produce_different_traces():
    sim_a = _run_load("mesh", 4, [(0, 1, 256)])
    sim_b = _run_load("mesh", 4, [(0, 2, 256)])
    assert sim_a.trace_digest() != sim_b.trace_digest()


_DRAIN_LIST = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=400),
    ),
    min_size=1,
    max_size=8,
)


@given(
    kind=st.sampled_from(list(TOPOLOGY_KINDS)),
    nodes=st.integers(min_value=2, max_value=5),
    pool=st.lists(_DRAIN_LIST, min_size=1, max_size=3),
    drains=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sampled_from(["scatter", "failover", "gather"]),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=100, deadline=None)
def test_replayed_drains_match_simulated_drains(kind, nodes, pool, drains):
    """Drains drawn from a small pool of injected lists, so lists repeat:
    the replaying simulator and one that simulates every drain (it
    records orders) agree after every drain on the cycles, every
    statistic and the trace digest.  The last drain repeats the first
    list, so every load replays at least once."""
    topology = build_topology(
        kind, list(range(nodes)), bandwidth=8, latency=2
    )
    replaying = NetworkSimulator(topology, flit_bytes=32, buffer_flits=3)
    reference = NetworkSimulator(
        topology, flit_bytes=32, buffer_flits=3, record_orders=True
    )
    eps = _endpoints(nodes)
    for choice, phase in drains + [drains[0]]:
        cycles = []
        for sim in (replaying, reference):
            sim.begin_phase(phase)
            for src_i, dst_i, nbytes in pool[choice % len(pool)]:
                src = eps[src_i % len(eps)]
                dst = eps[dst_i % len(eps)]
                if src == dst:
                    dst = eps[(dst_i + 1) % len(eps)]
                sim.inject(src, dst, nbytes)
            cycles.append(sim.drain())
        assert cycles[0] == cycles[1]
        assert replaying.stats() == reference.stats()
        assert replaying.phase_stats() == reference.phase_stats()
        assert replaying.link_utilization() == reference.link_utilization()
        assert replaying.trace_digest() == reference.trace_digest()
        # delivered messages leave no record behind
        assert replaying.messages == {}
    assert replaying.replayed_drains > 0
    assert reference.replayed_drains == 0


def test_a_drain_with_a_foreign_event_pending_is_simulated():
    """An event scheduled on the engine besides the drain's injections
    makes the drain depend on more than its injected list, so it is
    simulated even though the same list drained before, and it matches
    a simulator that never replays."""
    topology = build_topology("ring", [0, 1, 2], bandwidth=8)
    replaying = NetworkSimulator(topology)
    reference = NetworkSimulator(topology, record_orders=True)
    for sim in (replaying, reference):
        for extra_pump in (False, True):
            sim.inject(COORDINATOR, 1, 512)
            if extra_pump:
                sim.engine.schedule(sim.now + 3, (_PUMP, 0, None))
            sim.drain()
    assert replaying.replayed_drains == 0
    assert replaying.stats() == reference.stats()
    assert replaying.trace_digest() == reference.trace_digest()


def test_engine_orders_same_cycle_events_by_schedule_order():
    """Ties at the same cycle replay in scheduling order (stable seq)."""
    engine = SimulatorEngine()
    engine.schedule(5, ("b",))
    engine.schedule(5, ("c",))
    engine.schedule(2, ("a",))
    popped = [engine.pop()[2][0] for _ in range(3)]
    assert popped == ["a", "b", "c"]
    assert engine.now == 5
    with pytest.raises(ValueError, match="before now"):
        engine.schedule(4, ("late",))


def test_injection_validates_endpoints():
    topology = build_topology("mesh", [0, 1, 2, 3])
    sim = NetworkSimulator(topology)
    with pytest.raises(TopologyError, match="unknown source"):
        sim.inject(99, 0, 64)
    with pytest.raises(TopologyError, match="cannot message itself"):
        sim.inject(1, 1, 64)
    with pytest.raises(ValueError, match="buffer_flits"):
        NetworkSimulator(topology, buffer_flits=1)
    # a bad link fails when the fabric is built, not at its first drain
    with pytest.raises(TopologyError, match=r"link r0->r1 has latency -1"):
        build_topology("ring", [0, 1, 2], latency=-1)
    with pytest.raises(TopologyError, match=r"link m0_0->m1_0 has bandwidth 0"):
        build_topology("mesh", [0, 1, 2, 3], bandwidth=0)


# -- ideal-fabric equivalence --------------------------------------------


def _report_dict_sans_network(report):
    data = report.to_dict()
    data.pop("network")
    return data


def test_ideal_topology_reproduces_free_comm_exactly(scheme128):
    """``topology="ideal"`` must be a pure observer: same plan, same
    report, same ciphertext bits, zero network cycles — only the flit
    accounting (the ``network`` block) is new."""
    rng = np.random.default_rng(0x1DEA1)
    matrix = rng.integers(-100, 100, (13, 384))
    vectors = [rng.integers(-100, 100, 384) for _ in range(3)]

    free = ClusterExecutor(
        scheme128, matrix,
        config=ClusterConfig(nodes=3, replication=2, seed=5),
    )
    # one shared encryption: the scheme RNG advances per encrypt call,
    # so both executors must serve the *same* ciphertexts
    requests = [free.encrypt_vector(v) for v in vectors]
    ideal = ClusterExecutor(
        scheme128, matrix,
        config=ClusterConfig(nodes=3, replication=2, seed=5, topology="ideal"),
    )
    assert ideal.plan.to_dict() == free.plan.to_dict()

    free_results = free.execute_batch(requests)
    ideal_results = ideal.execute_batch(requests)
    for got, want in zip(ideal_results, free_results):
        for g, w in zip(got.packs, want.packs):
            np.testing.assert_array_equal(g.ct.c0, w.ct.c0)
            np.testing.assert_array_equal(g.ct.c1, w.ct.c1)

    free_report = free.report()
    ideal_report = ideal.report()
    assert ideal_report.network_cycles == 0
    assert ideal_report.makespan_cycles == free_report.makespan_cycles
    assert ideal_report.goodput_sim_rps == free_report.goodput_sim_rps
    assert _report_dict_sans_network(ideal_report) == \
        _report_dict_sans_network(free_report)
    # the observer still counted the traffic it watched teleport
    net = ideal_report.network
    assert net["flits_injected"] > 0
    assert net["flits_dropped"] == 0
    assert net["cycles"] == 0
    assert free_report.network == {}


def test_estimate_transfer_cycles_monotone_in_payload():
    """Bigger payloads never cost fewer cycles, and the ideal fabric
    prices everything at zero."""
    ring = NetworkSimulator(build_topology("ring", [0, 1, 2, 3], bandwidth=8))
    sizes = [0, 64, 1024, 65536]
    costs = [ring.idle_transfer_cycles(0, 2, s) for s in sizes]
    assert costs == sorted(costs)
    assert costs[-1] > costs[1] > 0
    ideal = NetworkSimulator(build_topology("ideal", [0, 1, 2, 3]))
    assert all(ideal.idle_transfer_cycles(0, 2, s) == 0 for s in sizes)
