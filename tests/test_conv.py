"""Tests for 2-D convolution via coefficient encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conv import Conv2dEncoder, conv2d_reference, homomorphic_conv2d


def test_conv2d_reference_known_value():
    img = np.arange(9).reshape(3, 3)
    ker = np.array([[1, 0], [0, -1]])
    out = conv2d_reference(img, ker)
    # out[i,j] = img[i,j] - img[i+1,j+1]
    assert out.tolist() == [[-4, -4], [-4, -4]]


def test_conv2d_reference_rejects_large_kernel():
    with pytest.raises(ValueError):
        conv2d_reference(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("h,w,kh,kw", [(8, 8, 3, 3), (6, 10, 2, 4), (16, 16, 1, 1), (5, 5, 5, 5)])
def test_homomorphic_conv2d(scheme256, rng, h, w, kh, kw):
    enc = Conv2dEncoder(scheme256, h, w, kh, kw)
    img = rng.integers(-15, 16, (h, w))
    ker = rng.integers(-4, 5, (kh, kw))
    ct = enc.encrypt_image(img)
    out = homomorphic_conv2d(enc, ct, ker)
    got = enc.decode_output(scheme256.decrypt_plaintext(out))
    assert np.array_equal(got, conv2d_reference(img, ker))


def test_conv2d_encoder_validation(scheme256):
    with pytest.raises(ValueError, match="exceeds ring"):
        Conv2dEncoder(scheme256, 32, 32, 3, 3)  # 1024 > 256
    with pytest.raises(ValueError, match="larger than image"):
        Conv2dEncoder(scheme256, 4, 4, 5, 5)


def test_conv2d_shape_checks(scheme256, rng):
    enc = Conv2dEncoder(scheme256, 8, 8, 3, 3)
    with pytest.raises(ValueError):
        enc.encode_image(rng.integers(0, 3, (4, 4)))
    with pytest.raises(ValueError):
        enc.encode_kernel(rng.integers(0, 3, (2, 2)))


def test_conv2d_output_positions(scheme256):
    enc = Conv2dEncoder(scheme256, 8, 8, 3, 3)
    pos = enc.output_positions()
    assert pos.shape == (6, 6)
    assert pos[0, 0] == 2 * 8 + 2
    assert pos[5, 5] == 7 * 8 + 7


def test_conv2d_identity_kernel(scheme256, rng):
    """A 1x1 unit kernel copies the image."""
    enc = Conv2dEncoder(scheme256, 10, 10, 1, 1)
    img = rng.integers(-20, 20, (10, 10))
    out = homomorphic_conv2d(enc, enc.encrypt_image(img), np.array([[1]]))
    got = enc.decode_output(scheme256.decrypt_plaintext(out))
    assert np.array_equal(got, img.astype(object))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_conv2d_property(scheme256, seed):
    r = np.random.default_rng(seed)
    h, w = int(r.integers(4, 12)), int(r.integers(4, 12))
    kh, kw = int(r.integers(1, 4)), int(r.integers(1, 4))
    if h * w > 256 or kh > h or kw > w:
        return
    enc = Conv2dEncoder(scheme256, h, w, kh, kw)
    img = r.integers(-10, 11, (h, w))
    ker = r.integers(-3, 4, (kh, kw))
    out = homomorphic_conv2d(enc, enc.encrypt_image(img), ker)
    got = enc.decode_output(scheme256.decrypt_plaintext(out))
    assert np.array_equal(got, conv2d_reference(img, ker))
