import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armsentinel.checkpoint import MAGIC, CheckpointError, load_tensors, save_tensors


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "gen/enc0.weight": rng.standard_normal((4, 3, 4, 4)).astype(np.float32),
        "gen/enc0.bias": np.zeros(4, dtype=np.float32),
        "meta/epoch": np.array([17.0], dtype=np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "ckpt.bin"
    tensors = sample_tensors()
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float32


def test_save_load_save_is_byte_identical(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    save_tensors(a, sample_tensors())
    save_tensors(b, load_tensors(a))
    assert a.read_bytes() == b.read_bytes()


def test_magic_prefix(tmp_path):
    path = tmp_path / "c.bin"
    save_tensors(path, sample_tensors())
    assert path.read_bytes()[:8] == MAGIC


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_tensors(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.bin"
    save_tensors(path, sample_tensors())
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "trail.bin"
    save_tensors(path, sample_tensors())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(path)


def one_tensor(name: bytes, dims, payload: bytes = b"") -> bytes:
    """A one-tensor container with arbitrary name bytes and dims."""
    return (MAGIC + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + payload)


def test_non_utf8_name(tmp_path):
    path = tmp_path / "name.bin"
    path.write_bytes(one_tensor(b"\xff", [1], bytes(4)))
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_tensors(path)


def test_duplicate_name(tmp_path):
    # Two records named "w": bytes 8-12 of a container hold its tensor count.
    first, second = (one_tensor(b"w", [1], np.float32(v).tobytes()) for v in (1.0, 2.0))
    path = tmp_path / "dup.bin"
    path.write_bytes(MAGIC + struct.pack("<I", 2) + first[12:] + second[12:])
    with pytest.raises(CheckpointError, match="twice"):
        load_tensors(path)


def test_dims_product_past_int64(tmp_path):
    # 65536**4 == 2**64, which a fixed-width product wraps to 0 bytes.
    path = tmp_path / "dims.bin"
    path.write_bytes(one_tensor(b"w", [65536] * 4))
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_empty_dims_past_array_limit(tmp_path):
    # A zero dim makes the payload empty, but the other dims pass what NumPy
    # can index, so the reshape itself fails.
    path = tmp_path / "empty.bin"
    path.write_bytes(one_tensor(b"w", [0, 3, 473839073, 1622099950]))
    with pytest.raises(CheckpointError, match="unusable dims"):
        load_tensors(path)


checkpoint_bytes = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: MAGIC + tail),
    st.builds(one_tensor, st.binary(max_size=6),
              st.lists(st.integers(0, 2**32 - 1), max_size=4), st.binary(max_size=32)))


@given(raw=checkpoint_bytes)
@settings(max_examples=200, deadline=None)
def test_fuzz_only_checkpoint_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "f.bin"
    path.write_bytes(raw)
    try:
        tensors = load_tensors(path)
    except CheckpointError:
        return
    assert all(arr.dtype == np.float32 for arr in tensors.values())
