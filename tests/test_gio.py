"""mini-GenericIO format: round-trips, selective reads, corruption detection."""

import json
import zlib

import numpy as np
import pytest

from repro import faults
from repro.faults import NO_FAULTS, FaultInjector, use_faults
from repro.gio import GIO_MAGIC, GIOFile, GIOFormatError, write_gio
from repro.gio.format import ALIGNMENT, encode_gio, map_gio, read_gio_verified


@pytest.fixture()
def sample_columns():
    rng = np.random.default_rng(11)
    return {
        "id": np.arange(100, dtype=np.int64),
        "x": rng.uniform(0, 64, 100),
        "mass": rng.lognormal(29, 1, 100).astype(np.float32),
        "name": np.asarray([f"obj{i}" for i in range(100)], dtype=object),
    }


class TestWriteRead:
    def test_round_trip_all_dtypes(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        nbytes = write_gio(path, sample_columns, attrs={"run": 3, "step": 624})
        assert nbytes == path.stat().st_size
        f = GIOFile(path)
        assert f.num_rows == 100
        assert f.attrs == {"run": 3, "step": 624}
        assert np.array_equal(f.read_column("id"), sample_columns["id"])
        assert np.array_equal(f.read_column("x"), sample_columns["x"])
        assert f.read_column("mass").dtype == np.float32
        assert list(f.read_column("name")[:2]) == ["obj0", "obj1"]

    def test_selective_read_returns_only_requested(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        frame = GIOFile(path).read(["x", "id"])
        assert frame.columns == ["x", "id"]

    def test_empty_table(self, tmp_path):
        path = tmp_path / "e.gio"
        write_gio(path, {})
        f = GIOFile(path)
        assert f.num_rows == 0
        assert f.columns == []

    def test_zero_rows(self, tmp_path):
        write_gio(tmp_path / "z.gio", {"a": np.asarray([], dtype=np.float64)})
        f = GIOFile(tmp_path / "z.gio")
        assert f.num_rows == 0
        assert len(f.read_column("a")) == 0

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(GIOFormatError):
            write_gio(tmp_path / "r.gio", {"a": np.zeros(3), "b": np.zeros(4)})

    def test_2d_rejected(self, tmp_path):
        with pytest.raises(GIOFormatError):
            write_gio(tmp_path / "r.gio", {"a": np.zeros((2, 2))})


class TestMappedReads:
    def test_columns_start_aligned_and_the_file_ends_with_the_last(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        total = write_gio(path, sample_columns)
        f = GIOFile(path)
        offsets = [f._entry(n)["offset"] for n in f.columns]
        assert all(offset % ALIGNMENT == 0 for offset in offsets)
        assert total == offsets[-1] + f.column_nbytes(f.columns[-1])

    def test_map_views_only_the_requested_columns(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        views = map_gio(path, ["x", "id"])
        assert list(views) == ["x", "id"]
        assert all(isinstance(v, np.memmap) and not v.flags.writeable for v in views.values())
        assert np.array_equal(views["x"], sample_columns["x"])
        assert views["id"].dtype == np.int64

    def test_verified_read_returns_every_column_and_attrs(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns, attrs={"key": "k"})
        attrs, columns = read_gio_verified(path)
        assert attrs == {"key": "k"} and list(columns) == list(sample_columns)
        assert list(columns["name"][:2]) == ["obj0", "obj1"]
        assert np.array_equal(columns["mass"], sample_columns["mass"])

    def test_encode_reports_each_columns_crc(self, sample_columns):
        parts, crcs = encode_gio(sample_columns)
        assert b"".join(parts).startswith(GIO_MAGIC)
        assert crcs["id"] == zlib.crc32(sample_columns["id"].tobytes())

    def test_zero_rows_and_zero_columns_map(self, tmp_path):
        write_gio(tmp_path / "z.gio", {"a": np.asarray([], dtype=np.float64)})
        assert len(map_gio(tmp_path / "z.gio")["a"]) == 0
        write_gio(tmp_path / "e.gio", {}, attrs={"key": "k"})
        assert read_gio_verified(tmp_path / "e.gio") == ({"key": "k"}, {})

    def test_bit_flip_fault_point_draws_once_per_column(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        never = FaultInjector(NO_FAULTS.with_rates(storage_bit_flip=1e-12))
        with use_faults(never):
            read_gio_verified(path, fault_point=faults.STORAGE_BIT_FLIP)
        always = FaultInjector(NO_FAULTS.with_rates(storage_bit_flip=1.0))
        with use_faults(always), pytest.raises(GIOFormatError, match="CRC mismatch in column 'id'"):
            read_gio_verified(path, fault_point=faults.STORAGE_BIT_FLIP)
        assert always.schedule() == {faults.STORAGE_BIT_FLIP: 1}
        with use_faults(always):
            read_gio_verified(path)  # no fault point: no draw
        assert always.schedule() == {faults.STORAGE_BIT_FLIP: 1}


class TestAccounting:
    def test_column_nbytes(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        f = GIOFile(path)
        assert f.column_nbytes("id") == 100 * 8
        assert f.column_nbytes("mass") == 100 * 4

    def test_bytes_for_subset(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        f = GIOFile(path)
        assert f.bytes_for(["id", "x"]) == 100 * 16
        assert f.bytes_for(["id"]) < f.total_data_nbytes()

    def test_selective_read_touches_fewer_bytes_than_file(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        total = write_gio(path, sample_columns)
        f = GIOFile(path)
        assert f.bytes_for(["id"]) < total / 3


class TestErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.gio"
        p.write_bytes(b"NOTGIO" + b"\x00" * 40)
        with pytest.raises(GIOFormatError, match="magic"):
            GIOFile(p)

    def test_unknown_column(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        with pytest.raises(GIOFormatError, match="no column"):
            GIOFile(path).read_column("nope")

    def test_crc_detects_corruption(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        f = GIOFile(path)
        # flip one byte inside the 'x' column payload
        offset = f._entry("x")["offset"] + 5
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(GIOFormatError, match="CRC"):
            GIOFile(path).read_column("x")

    def test_corruption_ignored_when_verify_off(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        f = GIOFile(path)
        offset = f._entry("x")["offset"] + 5
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        GIOFile(path).read_column("x", verify=False)  # no raise

    def test_truncated_file(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        full = path.read_bytes()
        path.write_bytes(full[: len(full) - 50])
        f = GIOFile(path)  # header still intact
        with pytest.raises(GIOFormatError, match="truncated"):
            f.read_column("name")


def _write_header(path, doc) -> None:
    header = json.dumps(doc).encode()
    path.write_bytes(GIO_MAGIC + len(header).to_bytes(8, "little") + header + bytes(64))


GOOD_ENTRY = {"name": "a", "dtype": "<f8", "offset": 64, "nbytes": 8, "crc32": 0}
MALFORMED_HEADERS = {
    "empty-object": {},
    "list": [GOOD_ENTRY],
    "no-offset": {"num_rows": 1, "attrs": {},
                  "columns": [{k: v for k, v in GOOD_ENTRY.items() if k != "offset"}]},
    "string-rows": {"num_rows": "1", "attrs": {}, "columns": [GOOD_ENTRY]},
    "list-attrs": {"num_rows": 1, "attrs": [], "columns": [GOOD_ENTRY]},
    "entry-not-object": {"num_rows": 1, "attrs": {}, "columns": [7]},
    "bad-dtype": {"num_rows": 1, "attrs": {}, "columns": [{**GOOD_ENTRY, "dtype": "nope"}]},
    "object-dtype": {"num_rows": 1, "attrs": {}, "columns": [{**GOOD_ENTRY, "dtype": "|O"}]},
    "negative-offset": {"num_rows": 1, "attrs": {}, "columns": [{**GOOD_ENTRY, "offset": -8}]},
    "nbytes-not-rows": {"num_rows": 2, "attrs": {}, "columns": [GOOD_ENTRY]},
}


class TestMalformed:
    """Every failure is a right answer or a :class:`GIOFormatError`."""

    @pytest.mark.parametrize("doc", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    @pytest.mark.parametrize("read", ["open", "map", "verified"])
    def test_malformed_header_is_classified(self, tmp_path, doc, read):
        path = tmp_path / "m.gio"
        _write_header(path, doc)
        reader = {"open": GIOFile, "map": map_gio, "verified": read_gio_verified}[read]
        with pytest.raises(GIOFormatError, match=r"m\.gio: malformed header"):
            reader(path)

    @pytest.mark.parametrize("cut_in", ["name", "mass", "header"])
    @pytest.mark.parametrize("read", ["map", "verified"])
    def test_truncated_file_is_classified(self, tmp_path, sample_columns, cut_in, read):
        """A column running past the end of the file is an error, not a
        short view."""
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        keep = 100 if cut_in == "header" else GIOFile(path)._entry(cut_in)["offset"] + 1
        path.write_bytes(path.read_bytes()[:keep])
        error = "header" if cut_in == "header" else f"column '{cut_in}'"
        reader = {"map": map_gio, "verified": read_gio_verified}[read]
        with pytest.raises(GIOFormatError, match=rf"t\.gio: truncated {error}"):
            reader(path)

    def test_header_length_past_the_file(self, tmp_path):
        path = tmp_path / "h.gio"
        path.write_bytes(GIO_MAGIC + (1 << 60).to_bytes(8, "little") + b"{}")
        with pytest.raises(GIOFormatError, match=r"h\.gio: truncated header"):
            GIOFile(path)

    def test_crc_detected_by_verified_read_not_by_map(self, tmp_path, sample_columns):
        path = tmp_path / "t.gio"
        write_gio(path, sample_columns)
        offset = GIOFile(path)._entry("x")["offset"] + 5
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        assert not np.array_equal(map_gio(path, ["x"])["x"], sample_columns["x"])
        with pytest.raises(GIOFormatError, match="CRC mismatch in column 'x'"):
            read_gio_verified(path)


class TestHeaderFixpoint:
    def test_many_columns_offsets_consistent(self, tmp_path):
        # enough columns that the header length crosses digit boundaries
        columns = {f"col_{i:03d}": np.full(7, float(i)) for i in range(60)}
        path = tmp_path / "many.gio"
        write_gio(path, columns)
        f = GIOFile(path)
        for i in (0, 30, 59):
            assert np.all(f.read_column(f"col_{i:03d}") == float(i))
