"""Tests for the two-party protocol harness."""

import numpy as np
import pytest

from repro.apps.protocol import Channel, Party, wire_size
from repro.he.serialization import rlwe_wire_bytes


@pytest.fixture()
def linked():
    ch = Channel("test")
    return Party("alice", ch), Party("bob", ch), ch


def test_send_recv(linked):
    alice, bob, _ch = linked
    alice.send(bob, "hello", b"1234")
    assert bob.recv("hello") == b"1234"


def test_recv_empty_raises(linked):
    alice, _bob, _ch = linked
    with pytest.raises(RuntimeError, match="no pending"):
        alice.recv()


def test_recv_label_mismatch(linked):
    alice, bob, _ch = linked
    alice.send(bob, "a", b"x")
    with pytest.raises(RuntimeError, match="expected"):
        bob.recv("b")


def test_fifo_order(linked):
    alice, bob, _ch = linked
    alice.send(bob, "m1", b"1")
    alice.send(bob, "m2", b"22")
    assert bob.recv() == b"1"
    assert bob.recv() == b"22"


def test_byte_accounting(linked):
    alice, bob, ch = linked
    alice.send(bob, "x", b"12345")
    bob.send(alice, "y", b"123")
    assert ch.total_bytes == 8
    assert ch.bytes_by_label() == {"x": 5, "y": 3}


def test_round_counting(linked):
    alice, bob, ch = linked
    assert ch.rounds == 0
    alice.send(bob, "1", b"")
    alice.send(bob, "2", b"")  # same direction: same round
    assert ch.rounds == 1
    bob.send(alice, "3", b"")
    assert ch.rounds == 2
    alice.send(bob, "4", b"")
    assert ch.rounds == 3


def test_wire_size_rlwe(scheme128, rng):
    ct = scheme128.encrypt_vector(rng.integers(-5, 5, 128), augmented=False)
    assert wire_size(ct) == rlwe_wire_bytes(128, ct.basis.moduli)


def test_wire_size_arrays():
    assert wire_size(np.zeros(10, dtype=np.int64)) == 80
    assert wire_size(np.zeros(10, dtype=object)) == 50  # 5 B/field element
    assert wire_size([b"ab", b"c"]) == 3
    assert wire_size(7) == 8


def test_wire_size_unknown_type():
    with pytest.raises(TypeError):
        wire_size(object())
