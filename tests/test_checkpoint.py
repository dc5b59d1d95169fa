import struct

import numpy as np
import pytest

from retinapipe.checkpoint import MAGIC, ModelCheckpoint
from retinapipe.errors import DataError


@pytest.fixture
def ckpt():
    return ModelCheckpoint({
        "encoder.stage0.kernels": np.arange(24.0).reshape(2, 3, 2, 2),
        "encoder.fc.bias": np.array([0.5, -0.25]),
    })


def test_round_trip_equality(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    ckpt.save(path)
    loaded = ModelCheckpoint.load(path)
    # values here are exactly float32-representable, so the narrowing is lossless
    assert loaded == ckpt


def test_double_round_trip_is_stable(tmp_path):
    # arbitrary float64 values lose precision once, then stay fixed
    ck = ModelCheckpoint({"w": np.array([1 / 3, np.pi])})
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ck.save(p1)
    first = ModelCheckpoint.load(p1)
    first.save(p2)
    assert ModelCheckpoint.load(p2) == first


def test_magic_bytes(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    ckpt.save(path)
    with open(path, "rb") as f:
        assert f.read(4) == MAGIC


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        ModelCheckpoint.load(path)


def test_truncated_payload_rejected(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    ckpt.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        ModelCheckpoint.load(path)


def test_trailing_garbage_rejected(tmp_path, ckpt):
    path = tmp_path / "m.ckpt"
    ckpt.save(path)
    with open(path, "ab") as f:
        f.write(b"\x00\x00\x00\x00")
    with pytest.raises(DataError, match="length"):
        ModelCheckpoint.load(path)


def test_atomic_save_leaves_no_partial_file(tmp_path):
    ck = ModelCheckpoint({"bad name with spaces": np.zeros(2)})
    target = tmp_path / "out.ckpt"
    with pytest.raises(ValueError):
        ck.save(target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_empty_vector_is_refused_on_save(tmp_path):
    # v1 writes shape (0,) and shape () both as "0": "a" would load as a
    # scalar holding b's first value
    ck = ModelCheckpoint({"a": np.zeros(0), "b": np.ones(3)})
    with pytest.raises(ValueError, match="'a'"):
        ck.save(tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_entries_must_lie_back_to_back(tmp_path):
    header = b"a 2 0\nb 2 12\n"  # b should start at byte 8, where a ends
    blob = MAGIC + struct.pack("<HI", 1, len(header)) + header + b"\x00" * 20
    path = tmp_path / "gap.ckpt"
    path.write_bytes(blob)
    with pytest.raises(DataError, match="'b' starts at byte 12, not 8"):
        ModelCheckpoint.load(path)


def test_take_checks_names_and_shapes(ckpt):
    got = ckpt.take({"encoder.fc.bias": (2,), "encoder.stage0.kernels": (None, 3, None, 2)})
    assert list(got) == ["encoder.fc.bias", "encoder.stage0.kernels"]
    assert got["encoder.fc.bias"] is ckpt.params["encoder.fc.bias"]
    with pytest.raises(DataError, match="missing parameter 'encoder.fc.weight'"):
        ckpt.take({"encoder.fc.weight": (2, 2)})
    with pytest.raises(DataError, match=r"fc.bias has shape \(2,\), expected \(None, None\)"):
        ckpt.take({"encoder.fc.bias": (None, None)})


def test_save_is_deterministic(tmp_path, ckpt):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save(a)
    ckpt.save(b)
    assert a.read_bytes() == b.read_bytes()
