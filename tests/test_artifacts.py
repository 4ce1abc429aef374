"""Artifact container tests: byte determinism, roundtrip fidelity, and
corruption handling."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vraets import artifacts, dataset
from vraets.errors import DataError


def _sample_arrays():
    return {"a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([3, -1, 7], dtype=np.int64),
            "single": np.array([2.5])}


class TestRoundtrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "x.artifact"
        meta = {"alpha": 1, "name": "thing", "nested": {"k": [1, 2]}}
        artifacts.save_artifact(path, "windows", meta, _sample_arrays())
        kind, got_meta, arrays = artifacts.load_artifact(path)
        assert kind == "windows"
        assert got_meta == meta
        for name, arr in _sample_arrays().items():
            assert np.array_equal(arrays[name], arr)
            assert arrays[name].dtype == arr.dtype

    def test_bool_and_int32_upcast_to_i8(self, tmp_path):
        path = tmp_path / "x.artifact"
        artifacts.save_artifact(path, "k", {}, {
            "flags": np.array([True, False]),
            "small": np.array([1, 2], dtype=np.int32)})
        _, _, arrays = artifacts.load_artifact(path)
        assert arrays["flags"].dtype == np.dtype("<i8")
        assert np.array_equal(arrays["flags"], [1, 0])
        assert np.array_equal(arrays["small"], [1, 2])

    def test_expect_kind_mismatch(self, tmp_path):
        path = tmp_path / "x.artifact"
        artifacts.save_artifact(path, "checkpoint", {}, {})
        with pytest.raises(DataError, match="expected"):
            artifacts.load_artifact(path, expect_kind="windows")


class TestDeterminism:
    def test_identical_content_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        meta = {"z": 1, "a": 2}   # insertion order must not matter
        artifacts.save_artifact(p1, "k", meta, _sample_arrays())
        artifacts.save_artifact(p2, "k", {"a": 2, "z": 1}, _sample_arrays())
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_single_sorted_json_line(self, tmp_path):
        path = tmp_path / "x.artifact"
        artifacts.save_artifact(path, "k", {"m": 1}, _sample_arrays())
        line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(line)
        assert header["magic"] == "vraets-artifact"
        assert header["format_version"] == artifacts.FORMAT_VERSION
        assert list(header.keys()) == sorted(header.keys())


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            artifacts.load_artifact(tmp_path / "nope")

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\x02 not json\n")
        with pytest.raises(DataError):
            artifacts.load_artifact(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text(json.dumps({"magic": "other", "format_version": 1,
                                    "kind": "k", "meta": {}, "arrays": []})
                        + "\n")
        with pytest.raises(DataError, match="magic"):
            artifacts.load_artifact(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text(json.dumps({"magic": "vraets-artifact",
                                    "format_version": 99, "kind": "k",
                                    "meta": {}, "arrays": []}) + "\n")
        with pytest.raises(DataError, match="version"):
            artifacts.load_artifact(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.artifact"
        artifacts.save_artifact(path, "k", {}, {"a": np.ones(10)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError, match="truncated"):
            artifacts.load_artifact(path)

    def test_rejects_nonfinite(self, tmp_path):
        with pytest.raises(DataError, match="non-finite"):
            artifacts.save_artifact(tmp_path / "x", "k", {},
                                    {"a": np.array([1.0, np.nan])})

    def test_rejects_object_dtype(self, tmp_path):
        with pytest.raises(DataError, match="dtype"):
            artifacts.save_artifact(tmp_path / "x", "k", {},
                                    {"a": np.array(["s"], dtype=object)})


def _write_header(path, header, payload=b""):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


def _header(arrays):
    return {"magic": "vraets-artifact", "format_version": 1, "kind": "k",
            "meta": {}, "arrays": arrays}


class TestMalformedHeader:
    @pytest.mark.parametrize("header", [[1, 2], "x", None, 3])
    def test_header_not_an_object(self, tmp_path, header):
        _write_header(tmp_path / "x", header)
        with pytest.raises(DataError, match="not a JSON object"):
            artifacts.load_artifact(tmp_path / "x")

    @pytest.mark.parametrize("key", ["arrays", "kind", "meta"])
    def test_missing_top_level_key(self, tmp_path, key):
        header = _header([])
        del header[key]
        _write_header(tmp_path / "x", header)
        with pytest.raises(DataError, match="header needs"):
            artifacts.load_artifact(tmp_path / "x")

    @pytest.mark.parametrize("key", ["name", "dtype", "shape"])
    def test_entry_missing_field(self, tmp_path, key):
        entry = {"name": "a", "dtype": "<f8", "shape": [1]}
        del entry[key]
        _write_header(tmp_path / "x", _header([entry]), b"\0" * 8)
        with pytest.raises(DataError, match="needs name, dtype and shape"):
            artifacts.load_artifact(tmp_path / "x")

    @pytest.mark.parametrize("entry", [
        {"name": 7, "dtype": "<f8", "shape": [1]},
        {"name": "a", "dtype": ["<f8"], "shape": [1]},
        {"name": "a", "dtype": "<f4", "shape": [1]},
    ])
    def test_entry_bad_name_or_dtype(self, tmp_path, entry):
        _write_header(tmp_path / "x", _header([entry]), b"\0" * 8)
        with pytest.raises(DataError, match="name|dtype"):
            artifacts.load_artifact(tmp_path / "x")

    @pytest.mark.parametrize("shape", [[-1], [2, -8], [1.0], [True], ["1"],
                                       5, None])
    def test_negative_or_non_integer_dimension(self, tmp_path, shape):
        # a negative count once made fh.read return the rest of the file
        entry = {"name": "a", "dtype": "<f8", "shape": shape}
        _write_header(tmp_path / "x", _header([entry]), b"\0" * 64)
        with pytest.raises(DataError, match="non-negative integers"):
            artifacts.load_artifact(tmp_path / "x")

    def test_duplicate_array_names(self, tmp_path):
        entry = {"name": "a", "dtype": "<f8", "shape": [1]}
        _write_header(tmp_path / "x", _header([entry, entry]), b"\0" * 16)
        with pytest.raises(DataError, match="duplicate array name 'a'"):
            artifacts.load_artifact(tmp_path / "x")

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.artifact"
        artifacts.save_artifact(path, "latents", {}, _sample_arrays())
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(DataError, match="7 trailing bytes"):
            artifacts.load_artifact(path)

    def test_huge_shape_is_truncated_not_allocated(self, tmp_path):
        entry = {"name": "a", "dtype": "<f8", "shape": [2 ** 40, 2 ** 40]}
        _write_header(tmp_path / "x", _header([entry]), b"\0" * 8)
        with pytest.raises(DataError, match="truncated"):
            artifacts.load_artifact(tmp_path / "x")

    def test_empty_and_scalar_shapes_load(self, tmp_path):
        path = tmp_path / "x"
        _write_header(path, _header([
            {"name": "e", "dtype": "<f8", "shape": [0, 3]},
            {"name": "s", "dtype": "<i8", "shape": []}]),
            np.array(5, dtype="<i8").tobytes())
        _, _, arrays = artifacts.load_artifact(path)
        assert arrays["e"].shape == (0, 3) and arrays["s"].shape == ()
        assert int(arrays["s"]) == 5


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.sampled_from(["a", "<f8", "<i8", "name", "dtype", "shape"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "dtype", "shape", "x"]), kids,
                      max_size=4),
    max_leaves=12)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "x"


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes_raise_only_data_error(self, fuzz_path, raw):
        fuzz_path.write_bytes(raw)
        try:
            artifacts.load_artifact(fuzz_path)
        except DataError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_JSON, max_size=3), st.binary(max_size=40))
    def test_arbitrary_array_entries_raise_only_data_error(
            self, fuzz_path, entries, payload):
        _write_header(fuzz_path, _header(entries), payload)
        try:
            artifacts.load_artifact(fuzz_path)
        except DataError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 400), st.integers(0, 8), st.binary(max_size=8))
    def test_spliced_artifact_raises_only_data_error(
            self, fuzz_path, at, cut, insert):
        artifacts.save_artifact(fuzz_path, "k", {"m": 1}, _sample_arrays())
        data = fuzz_path.read_bytes()
        at = min(at, len(data))
        fuzz_path.write_bytes(data[:at] + insert + data[at + cut:])
        try:
            artifacts.load_artifact(fuzz_path)
        except DataError:
            pass


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        art = tmp_path / "x.artifact"
        artifacts.save_artifact(art, "k", {}, {"a": np.ones(3)})
        inp = tmp_path / "input.bin"
        inp.write_bytes(b"hello")
        man_path = artifacts.write_manifest(art, {"key": 1, "seed": 42},
                                            {"input": str(inp)})
        with open(man_path) as fh:
            manifest = json.load(fh)
        assert manifest["artifact"] == "x.artifact"
        assert manifest["seed"] == 42
        assert manifest["config"] == {"key": 1, "seed": 42}
        assert manifest["input_hashes"]["input"] \
            == artifacts.sha256_file(str(inp))

    def test_sha256_known_value(self, tmp_path):
        f = tmp_path / "f"
        f.write_bytes(b"abc")
        # FIPS 180-2 test vector for "abc"
        assert artifacts.sha256_file(str(f)) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


class _FailingFile:
    """A file whose second write raises: the first lands, as when a
    writer is interrupted part-way."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("interrupted")
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _save_artifact(path, value):
    artifacts.save_artifact(path, "k", {}, {"a": np.full(4, value)})


def _save_csv(path, value):
    dataset.save_csv(dataset.TimeSeriesRecord(
        "sim", dataset.IceConfig(), np.full((3, 2), value), ["x", "y"]), path)


class TestInterruptedWrite:
    """A write that fails part-way leaves the previous file or none, and
    no temporary file."""

    @pytest.mark.parametrize("save", [_save_artifact, _save_csv],
                             ids=["artifact", "csv"])
    @pytest.mark.parametrize("previous", [True, False],
                             ids=["replace", "new"])
    def test_target_keeps_previous_file_or_none(self, tmp_path, monkeypatch,
                                                save, previous):
        path = tmp_path / "target"
        if previous:
            save(path, 1.0)
            before = path.read_bytes()
        monkeypatch.setattr(artifacts, "open",
                            lambda *a, **kw: _FailingFile(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="interrupted"):
            save(path, 2.0)
        if previous:
            assert path.read_bytes() == before
            assert os.listdir(tmp_path) == ["target"]
        else:
            assert os.listdir(tmp_path) == []

    def test_completed_write_follows_the_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            artifacts.write_manifest(tmp_path / "x", {"seed": 1}, {})
        finally:
            os.umask(umask)
        assert os.listdir(tmp_path) == ["x.manifest.json"]
        mode = os.stat(tmp_path / "x.manifest.json").st_mode
        assert stat.S_IMODE(mode) == 0o640
