import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_take_names_the_first_non_finite_entry(ckpt, value):
    ckpt.params["encoder.fc.bias"][1] = value
    ckpt.params["encoder.stage0.kernels"][0, 0, 0, 0] = value
    with pytest.raises(DataError, match="parameter encoder.fc.bias holds a non-finite value"):
        ckpt.take({"encoder.fc.bias": (2,), "encoder.stage0.kernels": (2, 3, 2, 2)})


def test_save_is_deterministic(tmp_path, ckpt):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save(a)
    ckpt.save(b)
    assert a.read_bytes() == b.read_bytes()


def v1_file(header: bytes, payload: bytes = b"") -> bytes:
    return MAGIC + struct.pack("<HI", 1, len(header)) + header + payload


@pytest.mark.parametrize("header, message", [
    (b"a\xff 2 0\n", "not UTF-8"),
    (b"a 1 0\na 1 4\n", "'a' appears twice"),
])
def test_bad_header_names_the_file(tmp_path, header, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(v1_file(header, b"\x00" * 8))
    with pytest.raises(DataError, match=message) as err:
        ModelCheckpoint.load(path)
    assert str(path) in str(err.value)


# names the writer accepts (no space, no newline) and shapes other than (0,)
NAMES = st.text(alphabet=st.characters(blacklist_characters=" \n", blacklist_categories=("Cs",)),
                max_size=6)
SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple).filter(lambda s: s != (0,))
FLOAT32 = st.floats(width=32, allow_nan=False)


class TestLoadProperty:
    """Any bytes either load as float64 arrays or raise DataError, and every
    checkpoint the writer accepts loads back equal."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: MAGIC + b),
        st.tuples(st.binary(max_size=32) | st.text(max_size=32).map(str.encode),
                  st.binary(max_size=32)).map(lambda t: v1_file(*t)),
        st.tuples(st.lists(st.tuples(NAMES, st.lists(st.integers(-1, 3), max_size=3),
                                     st.integers(-4, 40)), max_size=3),
                  st.binary(max_size=40)).map(lambda t: v1_file(
                      "".join(f"{n} {','.join(map(str, d)) or '0'} {o}\n"
                              for n, d, o in t[0]).encode(), t[1])),
    ))
    def test_loads_or_raises_data_error(self, blob, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob)
        try:
            ck = ModelCheckpoint.load(path)
        except DataError:
            return
        assert all(arr.dtype == np.float64 for arr in ck.params.values())

    @settings(derandomize=True, database=None, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=st.dictionaries(NAMES, SHAPES.flatmap(
        lambda shape: arrays(np.float32, shape, elements=FLOAT32)), max_size=4))
    def test_round_trip(self, entries, tmp_path):
        ck = ModelCheckpoint(entries)
        ck.save(tmp_path / "m.ckpt")
        assert ModelCheckpoint.load(tmp_path / "m.ckpt") == ck
