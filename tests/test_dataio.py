"""MSFR round trips, fault handling, and synthetic generator properties."""

import struct

import numpy as np
import pytest

from uavfuse.data import (
    DetectionSample,
    FusedDataset,
    FusedSample,
    Label,
    Modality,
    ModalitySet,
    Recording,
    ShapeProfile,
)
from uavfuse.errors import ConfigError, CorruptionError, FormatError, ValidationError
from uavfuse.msfr import (
    read_fused,
    read_manifest,
    read_recording,
    write_fused,
    write_manifest,
    write_recording,
)
from uavfuse.rng import Rng
from uavfuse.synth import SynthConfig, generate_synthetic_dataset

TINY = ShapeProfile("tiny", (2, 2, 2), (2, 2, 1), (3,))


def _random_recording(seed=0, n=5, shape=(2, 3, 2)):
    rng = Rng(seed)
    samples = [
        DetectionSample(
            float(i) * 0.5 + float(rng.uniform()) * 0.1,
            Label.UAV if rng.uniform() > 0.5 else Label.FALSE_ALARM,
            rng.normal(shape).astype(np.float32),
        )
        for i in range(n)
    ]
    return Recording(Modality.THERMAL, "rec000", samples, shape)


class TestRecordingRoundTrip:
    def test_empty_recording(self, tmp_path):
        rec = Recording(Modality.RADAR, "empty", [], (3,))
        path = tmp_path / "empty.msfr"
        write_recording(rec, path)
        back = read_recording(path)
        assert back.modality is Modality.RADAR
        assert back.recording_id == "empty"
        assert back.samples == []
        assert back.feature_shape == (3,)

    def test_bit_identical_content(self, tmp_path):
        rec = _random_recording()
        path = tmp_path / "r.msfr"
        write_recording(rec, path)
        back = read_recording(path)
        assert len(back.samples) == len(rec.samples)
        for a, b in zip(rec.samples, back.samples):
            assert a.timestamp == b.timestamp
            assert a.label == b.label
            assert np.array_equal(a.features, b.features)

    def test_write_twice_byte_identical(self, tmp_path):
        rec = _random_recording()
        p1, p2 = tmp_path / "a.msfr", tmp_path / "b.msfr"
        n1 = write_recording(rec, p1)
        n2 = write_recording(rec, p2)
        assert n1 == n2
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_read_write_byte_identical(self, tmp_path):
        rec = _random_recording(seed=3)
        p1, p2 = tmp_path / "a.msfr", tmp_path / "b.msfr"
        write_recording(rec, p1)
        write_recording(read_recording(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_destination_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_recording(_random_recording(), tmp_path / "missing" / "x.msfr")

    def test_invalid_recording_rejected_before_writing(self, tmp_path):
        bad = Recording(
            Modality.THERMAL,
            "bad",
            [
                DetectionSample(2.0, Label.UAV, np.zeros((2, 3, 2), np.float32)),
                DetectionSample(1.0, Label.UAV, np.zeros((2, 3, 2), np.float32)),
            ],
            (2, 3, 2),
        )
        path = tmp_path / "bad.msfr"
        with pytest.raises(ValidationError, match="sample 1"):
            write_recording(bad, path)
        assert not path.exists()


class TestRecordingFaults:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.msfr"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            read_recording(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "x.msfr"
        write_recording(_random_recording(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_recording(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.msfr"
        write_recording(_random_recording(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(CorruptionError, match="truncated"):
            read_recording(path)

    def test_declared_count_exceeds_payload(self, tmp_path):
        rec = _random_recording(n=2)
        path = tmp_path / "x.msfr"
        write_recording(rec, path)
        raw = bytearray(path.read_bytes())
        # count u32 sits after magic+version+modality+id block+shape block
        off = 4 + 2 + 1 + 2 + len(rec.recording_id) + 1 + 4 * len(rec.feature_shape)
        struct.pack_into("<I", raw, off, 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            read_recording(path)

    def test_out_of_order_timestamps_name_the_sample(self, tmp_path):
        rec = _random_recording(n=3)
        path = tmp_path / "x.msfr"
        write_recording(rec, path)
        raw = bytearray(path.read_bytes())
        # overwrite the second sample's timestamp with an earlier one
        header = 4 + 2 + 1 + 2 + len(rec.recording_id) + 1 + 4 * len(rec.feature_shape) + 4
        sample_size = 8 + 1 + 4 * int(np.prod(rec.feature_shape))
        struct.pack_into("<d", raw, header + sample_size, -0.0)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="sample 1"):
            read_recording(path)

    def test_fused_file_rejected_by_recording_reader(self, tmp_path):
        ds = FusedDataset(ModalitySet.THERMAL, [], [], (2, 2, 2), 0)
        path = tmp_path / "f.msfr"
        write_fused(ds, path)
        with pytest.raises(FormatError, match="fused"):
            read_recording(path)


def _random_fused(modality_set, radar_len):
    rng = Rng(9)
    samples = []
    for i in range(4):
        samples.append(
            FusedSample(
                stacked=rng.normal((2, 2, 3)).astype(np.float32),
                radar=rng.normal(radar_len).astype(np.float32) if radar_len else None,
                label=Label.UAV if i % 2 else Label.FALSE_ALARM,
                timestamps={"thermal": 0.5 * i},
            )
        )
    return FusedDataset(modality_set, samples, ["rec000", "rec001"], (2, 2, 3), radar_len)


class TestFusedRoundTrip:

    @pytest.mark.parametrize(
        "modality_set,radar_len",
        [
            (ModalitySet.THERMAL, 0),
            (ModalitySet.THERMAL_OPTRONIC, 0),
            (ModalitySet.THERMAL_OPTRONIC_RADAR, 5),
        ],
    )
    def test_write_read_write(self, tmp_path, modality_set, radar_len):
        ds = _random_fused(modality_set, radar_len)
        p1, p2 = tmp_path / "a.msfr", tmp_path / "b.msfr"
        write_fused(ds, p1)
        back = read_fused(p1)
        assert back.modality_set is modality_set
        assert back.provenance == ds.provenance
        assert back.radar_len == radar_len
        write_fused(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset(self, tmp_path):
        ds = FusedDataset(ModalitySet.THERMAL_OPTRONIC_RADAR, [], [], (2, 2, 3), 5)
        path = tmp_path / "e.msfr"
        write_fused(ds, path)
        back = read_fused(path)
        assert back.samples == [] and back.radar_len == 5

    def test_truncated_fused(self, tmp_path):
        ds = _random_fused(ModalitySet.THERMAL_OPTRONIC_RADAR, 5)
        path = tmp_path / "f.msfr"
        write_fused(ds, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CorruptionError):
            read_fused(path)


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFinitePayloads:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_recording_names_file_and_sample(self, tmp_path, bad):
        rec = _random_recording()
        rec.samples[3].features[1, 2, 0] = bad
        path = tmp_path / "r.msfr"
        write_recording(rec, path)
        with pytest.raises(CorruptionError, match=rf"r\.msfr: sample 3 .*non-finite"):
            read_recording(path)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("payload", ["stacked", "radar"])
    def test_fused_names_file_and_sample(self, tmp_path, bad, payload):
        ds = _random_fused(ModalitySet.THERMAL_OPTRONIC_RADAR, 5)
        getattr(ds.samples[2], payload).flat[-1] = bad
        path = tmp_path / "f.msfr"
        write_fused(ds, path)
        with pytest.raises(CorruptionError, match=rf"f\.msfr: sample 2 {payload} .*non-finite"):
            read_fused(path)


def test_shape_overflowing_int64_is_corruption(tmp_path):
    # 2**31 cubed wraps to 0 as an int64 element count
    ds = _random_fused(ModalitySet.THERMAL_OPTRONIC_RADAR, 5)
    path = tmp_path / "f.msfr"
    write_fused(ds, path)
    raw = bytearray(path.read_bytes())
    shape_at = raw.index(struct.pack("<B3I", 3, 2, 2, 3))
    struct.pack_into("<3I", raw, shape_at + 1, 2**31, 2**31, 2**31)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError, match="truncated"):
        read_fused(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [("a.msfr", "thermal", 12), ("b.msfr", "fused", 0)]
        write_manifest(tmp_path, entries)
        assert read_manifest(tmp_path) == entries

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            read_manifest(tmp_path)


class TestGenerator:
    def _config(self, **kw):
        base = dict(
            recordings_per_modality=2,
            samples_per_recording=40,
            shape_profile=TINY,
            seed=7,
        )
        base.update(kw)
        return SynthConfig(**base)

    def test_recordings_satisfy_invariants(self):
        data = generate_synthetic_dataset(self._config())
        for modality, recs in data.items():
            assert len(recs) == 2
            for rec in recs:
                rec.validate()
                assert rec.modality is modality

    def test_same_seed_byte_identical(self, tmp_path):
        a = generate_synthetic_dataset(self._config())
        b = generate_synthetic_dataset(self._config())
        pa, pb = tmp_path / "a.msfr", tmp_path / "b.msfr"
        write_recording(a[Modality.THERMAL][0], pa)
        write_recording(b[Modality.THERMAL][0], pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = generate_synthetic_dataset(self._config(seed=1))
        b = generate_synthetic_dataset(self._config(seed=2))
        assert not np.array_equal(
            a[Modality.THERMAL][0].samples[0].features,
            b[Modality.THERMAL][0].samples[0].features,
        )

    def test_noiseless_case_is_perfectly_separable(self):
        cfg = self._config(noise_sigma=0.0, thermal_dropout=0, optronic_dropout=0, radar_dropout=0)
        data = generate_synthetic_dataset(cfg)
        root = Rng(cfg.seed)
        for modality, recs in data.items():
            u = root.spawn(f"pattern/{modality.name.lower()}").normal(
                TINY.shape_for(modality)
            )
            u = u / np.linalg.norm(u)
            for rec in recs:
                for s in rec.samples:
                    proj = float(np.sum(s.features.astype(np.float64) * u))
                    want = 1.0 if s.label is Label.UAV else -1.0
                    assert abs(proj - want) < 1e-5

    def test_uav_fraction_within_binomial_bounds(self):
        cfg = self._config(
            recordings_per_modality=1, samples_per_recording=3209, uav_fraction=0.326
        )
        data = generate_synthetic_dataset(cfg)
        rec = data[Modality.THERMAL][0]
        kept = [s for s in rec.samples if s.label is Label.UAV]
        expected = 3209 * 0.326
        sigma3 = 3 * (3209 * 0.326 * 0.674) ** 0.5
        # dropout removes ~10% uniformly; scale the expectation accordingly
        n_kept = len(rec.samples)
        assert abs(len(kept) - expected * n_kept / 3209) <= sigma3

    def test_full_radar_dropout_gives_empty_radar_recordings(self):
        data = generate_synthetic_dataset(self._config(radar_dropout=1.0))
        for rec in data[Modality.RADAR]:
            assert rec.samples == []
        for rec in data[Modality.THERMAL]:
            assert rec.samples

    def test_frame_locked_thermal_optronic_timestamps(self):
        cfg = self._config(thermal_dropout=0, optronic_dropout=0, radar_dropout=0)
        data = generate_synthetic_dataset(cfg)
        for rt, ro in zip(data[Modality.THERMAL], data[Modality.OPTRONIC]):
            assert len(rt.samples) == len(ro.samples)
            for st, so in zip(rt.samples, ro.samples):
                assert st.timestamp == so.timestamp
                assert st.label == so.label

    def test_radar_timestamps_on_grid_within_jitter(self):
        cfg = self._config(radar_dropout=0, timestamp_jitter=0.02)
        data = generate_synthetic_dataset(cfg)
        for rec in data[Modality.RADAR]:
            for s in rec.samples:
                off = abs(s.timestamp * cfg.radar_rate - round(s.timestamp * cfg.radar_rate))
                assert off / cfg.radar_rate <= cfg.timestamp_jitter + 1e-12

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(self._config(uav_fraction=1.5))
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(self._config(frame_rate=0))
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(self._config(noise_sigma=-1))
