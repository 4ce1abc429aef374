import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vraets import artifacts, dataset
from vraets.dataset import (FEATURE_NAMES, IceConfig, MinMaxScaler,
                            SynthConfig, TimeSeriesRecord)
from vraets.errors import DataError


def make_record(values, sim_id="sim", ice=None, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"f{i}" for i in range(values.shape[1])]
    return TimeSeriesRecord(sim_id, ice or IceConfig(), values, names)


class TestIceConfig:
    def test_parse_three_masses(self):
        ice = IceConfig.parse("0-0.6-0")
        assert ice.masses() == (0.0, 0.6, 0.0)

    def test_all_zero_is_normal(self):
        assert IceConfig.parse("0-0-0").label() == 0

    @pytest.mark.parametrize("text,label", [
        ("0.4-0-0", 1), ("0-0.6-0", 2), ("0-0-1.0", 3)])
    def test_single_zone_labels(self, text, label):
        assert IceConfig.parse(text).label() == label

    def test_multi_zone_label_ambiguous(self):
        # a label names one zone, so such a config is never built
        for masses in [(0.4, 0.6, 0.8), (0.4, 0.6, 0), (0, 1e-5, 2.0)]:
            with pytest.raises(DataError, match="more than one zone"):
                IceConfig(*masses)

    def test_negative_mass_rejected(self):
        with pytest.raises(DataError):
            IceConfig(-1.0, 0, 0)

    def test_roundtrip_string(self):
        assert str(IceConfig.parse("0-0.5-0")) == "0-0.5-0"

    @pytest.mark.parametrize("mass", [1e-5, 2.5e-7, 1e20])
    @pytest.mark.parametrize("zone", [0, 2])
    def test_exponent_masses_read_back(self, mass, zone):
        masses = [0.0, 0.0, 0.0]
        masses[zone] = mass
        ice = IceConfig(*masses)
        assert IceConfig.parse(str(ice)) == ice

    @pytest.mark.parametrize("masses", [
        (float("nan"), 0, 0), (0, float("inf"), 0), (0, 0, -float("inf"))])
    def test_non_finite_mass_rejected(self, masses):
        with pytest.raises(DataError, match="finite"):
            IceConfig(*masses)

    @pytest.mark.parametrize("text, why", [
        ("nan-0-0", "finite"), ("0-inf-0", "finite"),
        ("abc-0-0", "bad ice mass string"),
        ("0-0", "expected x-y-z"), ("-1-0-0", "expected x-y-z")])
    def test_metadata_mass_error_names_line(self, tmp_path, text, why):
        meta = tmp_path / "metadata.csv"
        meta.write_text(f"sim_000,0-0-0\nsim_014,{text}\n")
        with pytest.raises(DataError, match=rf"metadata\.csv:2: .*{why}"):
            dataset.read_metadata(meta)


class TestSynthesize:
    def test_noise_free_baseline_has_blade_symmetry(self):
        # 240 Hz makes a third of the 0.2 Hz period an integer sample count
        cfg = SynthConfig(noise_std=0.0, sample_rate_hz=240.0, seed=1)
        rec = dataset.synthesize(cfg, IceConfig(), n_steps=5000)
        assert rec.values.shape == (5000, 6)
        # blades are identical up to a 120-degree phase offset: a blade-2
        # sample at t equals the blade-1 signal evaluated 1/3 period later
        period = int(round(cfg.sample_rate_hz / cfg.rotation_hz))
        shift = period // 3
        flap1, flap2 = rec.values[:, 0], rec.values[:, 2]
        np.testing.assert_allclose(flap2[:-shift], flap1[shift:], atol=1e-9)

    def test_deterministic_under_seed(self):
        cfg = SynthConfig(seed=9)
        a = dataset.synthesize(cfg, IceConfig(0.5, 0, 0), 1000)
        b = dataset.synthesize(cfg, IceConfig(0.5, 0, 0), 1000)
        np.testing.assert_array_equal(a.values, b.values)

    def test_sideband_energy_grows_with_mass(self):
        # periodogram oracle: energy at the zone-1 side-band frequency
        cfg = SynthConfig(noise_std=0.0, seed=2)
        def sideband_power(mass):
            rec = dataset.synthesize(cfg, IceConfig(mass, 0, 0), 8000)
            flap = rec.values[:, 0]
            freqs = np.fft.rfftfreq(len(flap), d=1.0 / cfg.sample_rate_hz)
            power = np.abs(np.fft.rfft(flap)) ** 2
            band = np.abs(freqs - dataset.ZONE_SIDEBAND_HZ[0]) < 0.05
            return power[band].sum()
        p0, p4, p8 = (sideband_power(m) for m in (0.0, 0.4, 0.8))
        assert p0 < p4 < p8

    def test_feature_names_match_convention(self):
        rec = dataset.synthesize(SynthConfig(seed=1), IceConfig(), 100)
        assert rec.feature_names == FEATURE_NAMES


def load_beside_metadata(path):
    """load_csv with the table of the metadata.csv next to `path`."""
    return dataset.load_csv(path, dataset.read_metadata(
        path.parent / "metadata.csv"))


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        rec = make_record([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                          sim_id="sim_001", ice=IceConfig(0.4, 0, 0))
        dataset.save_csv(rec, tmp_path / "sim_001.csv")
        (tmp_path / "metadata.csv").write_text("sim_001,0.4-0-0\n")
        loaded = load_beside_metadata(tmp_path / "sim_001.csv")
        assert loaded.values.shape == (3, 2)
        assert loaded.config == IceConfig(0.4, 0, 0)
        np.testing.assert_array_equal(loaded.values, rec.values)

    def test_metadata_masses_parsed(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n1,2\n")
        (tmp_path / "metadata.csv").write_text("s,0-0-0.8\n")
        rec = load_beside_metadata(tmp_path / "s.csv")
        assert rec.config == IceConfig(0, 0, 0.8)

    def test_zero_config_is_normal(self, tmp_path):
        (tmp_path / "s.csv").write_text("a\n1\n")
        (tmp_path / "metadata.csv").write_text("s,0-0-0\n")
        assert load_beside_metadata(tmp_path / "s.csv").label() == 0

    def test_bad_cell_reports_location(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n1,2\n3,oops\n")
        (tmp_path / "metadata.csv").write_text("s,0-0-0\n")
        with pytest.raises(DataError, match=r"s\.csv:3.*'b'"):
            load_beside_metadata(tmp_path / "s.csv")

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n1,2\n3\n")
        (tmp_path / "metadata.csv").write_text("s,0-0-0\n")
        with pytest.raises(DataError, match="ragged"):
            load_beside_metadata(tmp_path / "s.csv")

    def test_missing_metadata_entry(self, tmp_path):
        (tmp_path / "s.csv").write_text("a\n1\n")
        (tmp_path / "metadata.csv").write_text("other,0-0-0\n")
        with pytest.raises(DataError, match="missing from metadata"):
            load_beside_metadata(tmp_path / "s.csv")

    def test_duplicate_sim_id_names_both_lines(self, tmp_path):
        meta = tmp_path / "metadata.csv"
        meta.write_text("a,0-0-0\n# note\nb,0-0-0\na,0.4-0-0\n")
        with pytest.raises(DataError, match=r"metadata\.csv:4: duplicate "
                                            r"sim_id 'a', first on line 1"):
            dataset.read_metadata(meta)

    @pytest.mark.parametrize("text", ["a" * 200_000 + "\n1\n",
                                      "a\n" + "1" * 200_000 + "x\n"])
    def test_cell_over_csv_field_limit_is_data_error(self, tmp_path, text):
        (tmp_path / "s.csv").write_text(text)
        with pytest.raises(DataError, match="field limit"):
            dataset.load_csv(tmp_path / "s.csv", {"s": IceConfig()})


def reference_load_csv(path, metadata):
    """The csv.reader + float() parser that load_csv's numpy path must
    match value for value and error for error."""
    sim_id = "s"
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        names = [n.strip() for n in names]
        rows = []
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise DataError(f"{path}:{rowno}: ragged row, {len(row)} cells "
                                f"but {len(names)} columns")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                bad = next(i for i, cell in enumerate(row)
                           if not dataset._is_float(cell))
                raise DataError(f"{path}:{rowno}: bad numeric cell in column "
                                f"{names[bad]!r}: {row[bad]!r}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TimeSeriesRecord(sim_id, metadata[sim_id],
                            np.array(rows, dtype=np.float64), names)


def reference_save_csv(record, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(record.feature_names)
        for row in record.values:
            writer.writerow([repr(float(v)) for v in row])


def load_outcome(load, path):
    """What a loader makes of a file: its names, shape and value bytes, or
    its DataError message."""
    try:
        rec = load(path, {"s": IceConfig()})
    except DataError as exc:
        return "error", str(exc)
    return rec.feature_names, rec.values.shape, rec.values.tobytes()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "s.csv"


# ±0, subnormals and the extremes next to any finite double
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                1e308, -1e308, 1.7976931348623157e308, 1e-300, 0.1]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


class TestCsvFastPath:
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12),
                                            st.integers(1, 8)),
                      elements=_FINITE))
    def test_roundtrip_matches_reference_bit_for_bit(self, csv_path, values):
        rec = make_record(values, sim_id="s")
        reference_save_csv(rec, csv_path)
        ref_bytes = csv_path.read_bytes()
        dataset.save_csv(rec, csv_path)
        assert csv_path.read_bytes() == ref_bytes
        got = load_outcome(dataset.load_csv, csv_path)
        assert got == load_outcome(reference_load_csv, csv_path)
        assert got[2] == values.tobytes()

    @pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"])
    def test_plain_file_skips_the_cell_loop(self, csv_path, monkeypatch,
                                            newline):
        rec = dataset.synthesize(SynthConfig(seed=3), IceConfig(), 300)
        dataset.save_csv(rec, csv_path)
        csv_path.write_bytes(csv_path.read_bytes().replace(
            b"\r\n", newline.encode()))

        def cell_loop(*args):
            raise AssertionError("the csv.reader + float() loop ran")
        monkeypatch.setattr(dataset, "_csv_rows", cell_loop)
        got = dataset.load_csv(csv_path, {"s": IceConfig()})
        assert got.values.tobytes() == rec.values.tobytes()

    @pytest.mark.parametrize("text, expect", [
        ("a,b\n1,2\n\n3,4\n", "s.csv:3: ragged row, 0 cells"),
        ("a,b\n1,2\n3,4\n\n", "s.csv:4: ragged row, 0 cells"),
        ("a,b\n1,2\n  \n", "s.csv:3: ragged row, 1 cells"),
        ("a\n1\n \t\n", "s.csv:3: bad numeric cell in column 'a': ' \\t'"),
        ("a,b\n", "s.csv: no data rows"),
        ("a,b", "s.csv: no data rows"),
        ("", "s.csv: empty file"),
        ("a,b\n1,2\x0c3,4\n", "s.csv:2: ragged row, 3 cells"),
        ("a,b\n\x0c1,2\x0c\n", [[1.0, 2.0]]),
        ("a,b\n\x1c1,2\n", "s.csv:2: bad numeric cell in column 'a': '\\x1c1'"),
        ("a,b\n1,2\x1f\n", "s.csv:2: bad numeric cell in column 'b'"),
        ('a,b\n"1",2\n', [[1.0, 2.0]]),
        ('"a,b",c\n1,"2\n3"\n', "s.csv:2: bad numeric cell in column 'c'"),
        ('"a\nb",c\n1,2\n', [[1.0, 2.0]]),
        ("a,b\n1_0,2\n", [[10.0, 2.0]]),
        ("a\n١٢\n", [[12.0]]),
        ("a,b\n1#2,3\n", "s.csv:2: bad numeric cell in column 'a': '1#2'"),
        ("a,b\n#1,2\n", "s.csv:2: bad numeric cell in column 'a': '#1'"),
        ("a,b\n1,2,\n", "s.csv:2: ragged row, 3 cells"),
        ("a,b\n1,,\n", "s.csv:2: ragged row, 3 cells"),
        ("a,b\n1, \n", "s.csv:2: bad numeric cell in column 'b': ' '"),
        ("a,b\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("a,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("a,b\n1,2\r\n3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("a,b\n1,2\n\r\n3,4\n", "s.csv:3: ragged row, 0 cells"),
        ("a,b\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
        (" a , b \n 1 ,\t2 \n", [[1.0, 2.0]]),
        ("a,b\n1,nan\n", "s: non-finite sensor values"),
        ("a,b\ninf,2\n", "s: non-finite sensor values"),
        ("a,b\n-Infinity,2\n", "s: non-finite sensor values"),
        ("a,b\n1e999,2\n", "s: non-finite sensor values"),
        ("a,b\n0x10,2\n", "s.csv:2: bad numeric cell in column 'a'"),
        ("a,b\n1\x002,3\n", "s.csv:2: bad numeric cell in column 'a'"),
        ("\n\n\n", ([], (2, 0))),
    ])
    def test_edge_cases_match_reference(self, csv_path, text, expect):
        csv_path.write_bytes(text.encode("utf-8"))
        got = load_outcome(dataset.load_csv, csv_path)
        assert got == load_outcome(reference_load_csv, csv_path)
        if isinstance(expect, str):
            assert got[0] == "error" and expect in got[1]
        elif isinstance(expect, tuple):
            assert got[:2] == expect
        else:
            assert got[2] == np.array(expect, dtype=np.float64).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3),
           st.text(alphabet="0123456789.,-+eE_ \t\r\n\x0c\x1c\x1f\"#"
                            "nafiINF\xa0١ ", max_size=40))
    def test_csv_like_text_matches_reference(self, csv_path, n_columns, body):
        header = ",".join(f"c{i}" for i in range(n_columns)) + "\n"
        csv_path.write_bytes((header + body).encode("utf-8"))
        assert load_outcome(dataset.load_csv, csv_path) \
            == load_outcome(reference_load_csv, csv_path)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=80),
                     st.binary(max_size=80).map(lambda b: b"a,b\n1,2\n" + b)))
    def test_arbitrary_bytes_raise_only_data_error(self, csv_path, raw):
        csv_path.write_bytes(raw)
        try:
            dataset.load_csv(csv_path, {"s": IceConfig()})
        except DataError:
            pass


class TestSelectFeatures:
    def test_selects_in_given_order(self):
        rec = make_record(np.arange(12.0).reshape(3, 4),
                          names=["a", "b", "c", "d"])
        out = dataset.select_features(rec, ["c", "a"])
        assert out.feature_names == ["c", "a"]
        np.testing.assert_array_equal(out.values, rec.values[:, [2, 0]])

    def test_identity_selection(self):
        rec = make_record(np.arange(6.0).reshape(2, 3))
        out = dataset.select_features(rec, rec.feature_names)
        np.testing.assert_array_equal(out.values, rec.values)

    def test_single_column(self):
        rec = make_record(np.arange(6.0).reshape(3, 2), names=["x", "y"])
        out = dataset.select_features(rec, ["y"])
        np.testing.assert_array_equal(out.values[:, 0], rec.values[:, 1])

    def test_unknown_name_lists_available(self):
        rec = make_record(np.zeros((2, 2)), names=["x", "y"])
        with pytest.raises(DataError, match=r"\['x', 'y'\]"):
            dataset.select_features(rec, ["zz"])

    def test_27_to_6(self):
        values = np.arange(27.0 * 4).reshape(4, 27)
        names = FEATURE_NAMES + [f"other{i}" for i in range(21)]
        rec = make_record(values, names=names)
        out = dataset.select_features(rec, FEATURE_NAMES)
        assert out.values.shape == (4, 6)


class TestMinMax:
    def test_endpoints(self):
        scaler = MinMaxScaler(np.array([0.0]), np.array([10.0]))
        assert scaler.transform(np.array([[10.0]]))[0, 0] == 1.0
        assert scaler.transform(np.array([[0.0]]))[0, 0] == -1.0

    def test_interior_value(self):
        scaler = MinMaxScaler(np.array([0.0]), np.array([10.0]))
        assert scaler.transform(np.array([[2.5]]))[0, 0] == pytest.approx(-0.5)

    def test_constant_feature_maps_to_zero(self):
        rec = make_record([[3.0], [3.0], [3.0]])
        scaler = dataset.fit_minmax([rec.values])
        out = scaler.transform(rec.values)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))

    def test_fit_on_train_extremes(self):
        rec = make_record([[0.0, 5.0], [10.0, 7.0], [4.0, 6.0]])
        scaler = dataset.fit_minmax([rec.values])
        out = scaler.transform(rec.values)
        assert out.min(axis=0) == pytest.approx([-1.0, -1.0])
        assert out.max(axis=0) == pytest.approx([1.0, 1.0])

    def test_scaling_commutes_with_windowing(self):
        rng = np.random.default_rng(0)
        rec = make_record(rng.normal(size=(50, 3)))
        scaler = dataset.fit_minmax([rec.values])
        scale_then_window = dataset.window(
            make_record(scaler.transform(rec.values)), 10, 7)
        window_then_scale = [scaler.transform(w)
                             for w in dataset.window(rec, 10, 7)]
        for a, b in zip(scale_then_window, window_then_scale):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestWindowing:
    def test_paper_counts(self):
        rec = make_record(np.zeros((10_000, 1)))
        assert len(dataset.window(rec, 200, 200)) == 50

    def test_exact_fit_single_window(self):
        rec = make_record(np.arange(8.0).reshape(4, 2))
        ws = dataset.window(rec, 4, 4)
        assert len(ws) == 1
        np.testing.assert_array_equal(ws[0], rec.values)

    def test_stride_starts(self):
        rec = make_record(np.arange(10.0).reshape(10, 1))
        ws = dataset.window(rec, 4, 3)
        assert len(ws) == 3
        assert [w[0, 0] for w in ws] == [0.0, 3.0, 6.0]

    def test_too_long_window_rejected(self):
        rec = make_record(np.zeros((5, 1)))
        with pytest.raises(DataError):
            dataset.window(rec, 6, 1)

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 20))
    def test_count_formula_matches_enumeration(self, t, length, stride):
        if length > t:
            return
        rec = make_record(np.zeros((t, 1)))
        ws = dataset.window(rec, length, stride)
        brute = sum(1 for start in range(t)
                    if start % stride == 0 and start + length <= t)
        assert len(ws) == brute == (t - length) // stride + 1


def two_class_windows(n0=20, n1=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(n0 + n1, 5, d))
    labels = np.array([0] * n0 + [1] * n1)
    return dataset.WindowedDataset(windows, labels, 5, 5,
                                   [f"f{i}" for i in range(d)])


class TestSplit:
    def test_paper_split_counts(self):
        ds = two_class_windows(n0=700, n1=550)
        train, test = dataset.split(ds, 0.7, seed=3)
        assert len(train) == 875 and len(test) == 375

    def test_stratified_two_points(self):
        ds = two_class_windows(n0=1, n1=1)
        train, test = dataset.split(ds, 0.5, seed=0)
        assert sorted(train.labels.tolist() + test.labels.tolist()) == [0, 1]
        assert len(train) == 1 and len(test) == 1

    def test_deterministic(self):
        ds = two_class_windows()
        a = dataset.split(ds, 0.7, seed=11)
        b = dataset.split(ds, 0.7, seed=11)
        np.testing.assert_array_equal(a[0].windows, b[0].windows)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_partition_is_disjoint_and_complete(self):
        ds = two_class_windows(n0=13, n1=7)
        train, test = dataset.split(ds, 0.6, seed=2)
        assert len(train) + len(test) == 20
        combined = np.concatenate([train.windows, test.windows]).reshape(20, -1)
        original = ds.windows.reshape(20, -1)
        matched = {tuple(row) for row in combined}
        assert matched == {tuple(row) for row in original}

    def test_class_proportions_within_one(self):
        ds = two_class_windows(n0=101, n1=51)
        train, _ = dataset.split(ds, 0.7, seed=5)
        counts = train.class_counts()
        assert abs(counts[0] - 0.7 * 101) <= 1
        assert abs(counts[1] - 0.7 * 51) <= 1

    def test_empty_dataset(self):
        ds = dataset.WindowedDataset(np.zeros((0, 5, 2)), np.zeros(0), 5, 5,
                                     ["a", "b"])
        with pytest.raises(DataError):
            dataset.split(ds, 0.7, 0)


class TestLabelsPreserved:
    def test_through_scaling_and_subset(self):
        ds = two_class_windows(n0=6, n1=4)
        scaler = dataset.fit_minmax([ds.windows])
        scaled = dataset.scale_windows(ds, scaler)
        np.testing.assert_array_equal(scaled.labels, ds.labels)
        sub = scaled.subset(np.array([1, 3, 8]))
        np.testing.assert_array_equal(sub.labels, ds.labels[[1, 3, 8]])


class TestWindowsRoundtrip:
    def test_save_load(self, tmp_path):
        ds = two_class_windows()
        scaler = dataset.fit_minmax([ds.windows])
        ds = dataset.scale_windows(ds, scaler)
        path = tmp_path / "w.windows"
        dataset.save_windows(ds, path)
        loaded = dataset.load_windows(path)
        np.testing.assert_array_equal(loaded.windows, ds.windows)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.window_length == ds.window_length
        np.testing.assert_array_equal(loaded.scaler.mins, scaler.mins)

    @pytest.mark.parametrize("drop", ["scaler_mins", "scaler_maxs",
                                      "labels"])
    def test_missing_array_is_data_error(self, tmp_path, drop):
        ds = two_class_windows()
        ds = dataset.scale_windows(ds, dataset.fit_minmax([ds.windows]))
        path = tmp_path / "w.windows"
        dataset.save_windows(ds, path)
        kind, meta, arrays = artifacts.load_artifact(path)
        del arrays[drop]
        artifacts.save_artifact(path, kind, meta, arrays)
        with pytest.raises(DataError, match=f"missing array '{drop}'"):
            dataset.load_windows(path)

    @pytest.mark.parametrize("name, value, match", [
        ("feature_names", ["f0", "f1"], "2 feature names for 3 channels"),
        ("window_length", 7, "window_length is 7 for windows of 5 steps"),
        ("scaler_mins", np.zeros(2), "2 mins and 3 maxs for 3 features"),
        ("scaler_maxs", np.ones(2), "3 mins and 2 maxs for 3 features"),
    ], ids=["feature_names", "window_length", "scaler_mins", "scaler_maxs"])
    def test_metadata_contradicting_arrays_is_data_error(self, tmp_path,
                                                        name, value, match):
        ds = two_class_windows(d=3)
        ds = dataset.scale_windows(ds, dataset.fit_minmax([ds.windows]))
        path = tmp_path / "w.windows"
        dataset.save_windows(ds, path)
        kind, meta, arrays = artifacts.load_artifact(path)
        (arrays if name.startswith("scaler") else meta)[name] = value
        artifacts.save_artifact(path, kind, meta, arrays)
        with pytest.raises(DataError, match=match):
            dataset.load_windows(path)
        if name.startswith("scaler"):
            scaler = dataset.MinMaxScaler(arrays["scaler_mins"],
                                          arrays["scaler_maxs"])
            fields = {"scaler": scaler}
        else:
            fields = {name: value}
        with pytest.raises(DataError, match=match):
            dataclasses.replace(ds, **fields)

    def test_unscaled_windows_load_without_scaler(self, tmp_path):
        path = tmp_path / "w.windows"
        dataset.save_windows(two_class_windows(), path)
        assert dataset.load_windows(path).scaler is None
