import numpy as np
import pytest

from codistill.errors import DataError
from codistill.recordio import MAGIC, read_archive, write_archive


def test_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        ("weights/a", rng.standard_normal((3, 4))),
        ("weights/b", rng.standard_normal(7)),
        ("scalar", np.array([2.5])),
    ]
    path = tmp_path / "arc.bin"
    write_archive(path, records)
    back = read_archive(path)
    assert list(back.keys()) == [name for name, _ in records]
    for name, arr in records:
        np.testing.assert_array_equal(back[name], arr)
    again = tmp_path / "arc2.bin"
    write_archive(again, back.items())
    assert path.read_bytes() == again.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        read_archive(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC + (99).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    with pytest.raises(DataError, match="version"):
        read_archive(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "arc.bin"
    write_archive(path, [("x", np.zeros(2))])
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataError, match="trailing"):
        read_archive(path)


def test_every_truncation_rejected(tmp_path):
    path = tmp_path / "arc.bin"
    write_archive(path, [("w", np.arange(6.0).reshape(2, 3)), ("scalar", np.array(1.5)), ("b", np.zeros(2))])
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError):
            read_archive(cut)


def test_oversized_dims_rejected(tmp_path):
    path = tmp_path / "arc.bin"
    write_archive(path, [("x", np.zeros(2))])
    blob = bytearray(path.read_bytes())
    blob[-20:-16] = (2**32 - 1).to_bytes(4, "little")  # the single dim of "x"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="truncated"):
        read_archive(path)


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "arc.bin"
    write_archive(path, [("x", np.zeros(2))])
    before = path.read_bytes()
    # the second record's name cannot be encoded, so the write fails midway
    with pytest.raises(UnicodeEncodeError):
        write_archive(path, [("y", np.ones(3)), ("\ud800", np.ones(1))])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arc.bin"]


def test_unreadable_path_rejected(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_archive(tmp_path)


def test_duplicate_record_name_rejected(tmp_path):
    path = tmp_path / "arc.bin"
    write_archive(path, [("x", np.zeros(2)), ("x", np.ones(2))])
    with pytest.raises(DataError, match="duplicate record x"):
        read_archive(path)
