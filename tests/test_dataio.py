"""MSFR and MSFW round trips, fault handling, and synthetic generator properties."""

import hashlib
import os
import re
import struct
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uavfuse.data import (
    FusedDataset,
    Label,
    Modality,
    ModalitySet,
    Recording,
    ShapeProfile,
    fused_dtype,
    recording_dtype,
)
from uavfuse.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    UavFuseError,
    ValidationError,
)
from uavfuse.model import ModelSpec, build_model, load_weights, save_weights, weights_digest
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


def _records(dtype, timestamps, labels, *payloads):
    """Records of ``dtype`` from one column per field."""
    columns = [np.asarray(timestamps, np.float64), np.asarray(labels, np.uint8), *payloads]
    return np.rec.fromarrays(columns, dtype=dtype)


def _random_recording(seed=0, n=5, shape=(2, 3, 2)):
    rng = Rng(seed)
    samples = np.recarray(n, recording_dtype(shape))
    for i in range(n):  # one sample's draws at a time
        samples[i] = (
            float(i) * 0.5 + float(rng.uniform()) * 0.1,
            Label.UAV if rng.uniform() > 0.5 else Label.FALSE_ALARM,
            rng.normal(shape),
        )
    return Recording(Modality.THERMAL, "rec000", samples)


def _with_body(path, samples):
    """Replace the record body of the file at ``path`` with ``samples``' bytes, unchecked."""
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - samples.nbytes] + samples.tobytes())


class TestRecordingRoundTrip:
    def test_empty_recording(self, tmp_path):
        rec = Recording(Modality.RADAR, "empty", np.recarray(0, recording_dtype((3,))))
        path = tmp_path / "empty.msfr"
        write_recording(rec, path)
        back = read_recording(path)
        assert back.modality is Modality.RADAR
        assert back.recording_id == "empty"
        assert len(back.samples) == 0
        assert back.feature_shape == (3,)

    def test_bit_identical_content(self, tmp_path):
        rec = _random_recording()
        path = tmp_path / "r.msfr"
        write_recording(rec, path)
        back = read_recording(path)
        assert len(back.samples) == len(rec.samples)
        assert np.array_equal(rec.samples.timestamp, back.samples.timestamp)
        assert np.array_equal(rec.samples.label, back.samples.label)
        assert np.array_equal(rec.samples.features, back.samples.features)

    def test_body_is_the_records_bytes(self, tmp_path):
        # the in-memory layout is the file's record layout
        rec = _random_recording(seed=4)
        path = tmp_path / "r.msfr"
        write_recording(rec, path)
        assert path.read_bytes().endswith(rec.samples.tobytes())
        assert read_recording(path).samples.dtype == recording_dtype((2, 3, 2))

    @pytest.mark.parametrize("step", [1, 2])
    def test_write_returns_the_file_size_and_streams_the_body(self, tmp_path, step):
        # a strided view streams its records in order, as tobytes() lays them out
        rec = _random_recording(seed=5, n=7)
        rec = Recording(rec.modality, rec.recording_id, rec.samples[::step])
        path = tmp_path / "r.msfr"
        size = write_recording(rec, path)
        raw = path.read_bytes()
        assert size == len(raw) == path.stat().st_size
        assert raw[len(raw) - rec.samples.nbytes :] == rec.samples.tobytes()

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
            _records(recording_dtype((2, 3, 2)), [2.0, 1.0], [Label.UAV] * 2, np.zeros((2, 2, 3, 2))),
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
        with pytest.raises(CorruptionError, match="truncated") as info:
            read_recording(path)
        assert str(info.value).startswith(f"{path}: file truncated: ")

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
        ds = FusedDataset(ModalitySet.THERMAL, np.recarray(0, fused_dtype((2, 2, 2), 0)), [])
        path = tmp_path / "f.msfr"
        write_fused(ds, path)
        with pytest.raises(FormatError, match="fused"):
            read_recording(path)


def _random_fused(modality_set, radar_len):
    rng = Rng(9)
    samples = np.recarray(4, fused_dtype((2, 2, 3), radar_len))
    for i in range(4):  # one sample's draws at a time
        samples.stacked[i] = rng.normal((2, 2, 3))
        if radar_len:
            samples.radar[i] = rng.normal(radar_len)
        samples.label[i] = Label.UAV if i % 2 else Label.FALSE_ALARM
        samples.timestamp[i] = 0.5 * i
    return FusedDataset(modality_set, samples, ["rec000", "rec001"])


@pytest.mark.parametrize("modality_set", list(ModalitySet))
def test_the_count_names_the_set(modality_set):
    # the count is the modality byte of fused and weights files
    assert ModalitySet.from_count(modality_set.count) is modality_set
    assert len(modality_set.modalities) == modality_set.count
    assert modality_set.modalities == tuple(Modality)[: modality_set.count]


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

    def test_write_returns_the_file_size_and_streams_the_body(self, tmp_path):
        ds = _random_fused(ModalitySet.THERMAL_OPTRONIC_RADAR, 5)
        path = tmp_path / "f.msfr"
        size = write_fused(ds, path)
        raw = path.read_bytes()
        assert size == len(raw) == path.stat().st_size
        assert raw[len(raw) - ds.samples.nbytes :] == ds.samples.tobytes()

    def test_empty_dataset(self, tmp_path):
        ds = FusedDataset(ModalitySet.THERMAL_OPTRONIC_RADAR, np.recarray(0, fused_dtype((2, 2, 3), 5)), [])
        path = tmp_path / "e.msfr"
        write_fused(ds, path)
        back = read_fused(path)
        assert len(back.samples) == 0 and back.radar_len == 5

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
        path = tmp_path / "r.msfr"
        write_recording(rec, path)
        rec.samples[3].features[1, 2, 0] = bad
        _with_body(path, rec.samples)
        with pytest.raises(CorruptionError, match=rf"r\.msfr: sample 3 .*non-finite"):
            read_recording(path)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("payload", ["stacked", "radar"])
    def test_fused_names_file_and_sample(self, tmp_path, bad, payload):
        ds = _random_fused(ModalitySet.THERMAL_OPTRONIC_RADAR, 5)
        path = tmp_path / "f.msfr"
        write_fused(ds, path)
        getattr(ds.samples[2], payload).flat[-1] = bad
        _with_body(path, ds.samples)
        with pytest.raises(CorruptionError, match=rf"f\.msfr: sample 2 {payload} .*non-finite"):
            read_fused(path)


    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_writers_reject_non_finite_payloads(self, tmp_path, bad):
        rec = _random_recording()
        rec.samples.features[3, 0, 0, 0] = bad
        with pytest.raises(ValidationError, match="sample 3 features payload holds non-finite"):
            write_recording(rec, tmp_path / "r.msfr")
        ds = _random_fused(ModalitySet.THERMAL_OPTRONIC_RADAR, 5)
        ds.samples.radar[1, 4] = bad
        with pytest.raises(ValidationError, match="sample 1 radar payload holds non-finite"):
            write_fused(ds, tmp_path / "f.msfr")
        assert not any(tmp_path.iterdir())


def test_label_byte_outside_0_1_is_corruption(tmp_path):
    ds = _random_fused(ModalitySet.THERMAL_OPTRONIC, 0)
    path = tmp_path / "f.msfr"
    write_fused(ds, path)
    ds.samples.label[2] = 7
    with pytest.raises(ValidationError, match="sample 2 label byte must be 0 or 1, got 7"):
        write_fused(ds, tmp_path / "g.msfr")
    _with_body(path, ds.samples)
    with pytest.raises(CorruptionError, match=r"f\.msfr: sample 2 label byte"):
        read_fused(path)


def test_records_of_another_dtype_are_not_written(tmp_path):
    rec = _random_recording()
    rec.samples = rec.samples.astype(rec.samples.dtype.newbyteorder(">")).view(np.recarray)
    with pytest.raises(ValidationError, match="not the file layout"):
        write_recording(rec, tmp_path / "r.msfr")


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


@pytest.mark.parametrize("dims", [(2**31,), (0, 2**31), (2**32 - 1, 0, 1)])
def test_empty_file_with_an_unrepresentable_shape_is_corruption(tmp_path, dims):
    # no payload bytes to run short of, but numpy cannot form the record
    rec = Recording(Modality.RADAR, "r", np.recarray(0, recording_dtype((3,))))
    path = tmp_path / "r.msfr"
    write_recording(rec, path)
    raw = path.read_bytes()
    shape_at = raw.index(struct.pack("<B1I", 1, 3))
    path.write_bytes(raw[:shape_at] + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
                     + raw[shape_at + 5 :])
    with pytest.raises(CorruptionError, match="form no record"):
        read_recording(path)


# ---- property tests over generated files ------------------------------------------

_FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_SMALL_SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


def _payloads(shape, n):
    return hnp.arrays(np.float32, (n,) + shape, elements=_FINITE_F32)


@st.composite
def _recordings(draw):
    shape = draw(_SMALL_SHAPES)
    n = draw(st.integers(0, 3))
    gaps = draw(st.lists(st.floats(0, 10), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(Label), min_size=n, max_size=n))
    samples = _records(recording_dtype(shape), np.cumsum(gaps), labels, draw(_payloads(shape, n)))
    return Recording(draw(st.sampled_from(Modality)), draw(st.text(max_size=8)), samples)


_IDS = st.text("abcxyz019_-", min_size=1, max_size=6)


@st.composite
def _fused_datasets(draw, ids=_IDS):
    modality_set = draw(st.sampled_from(ModalitySet))
    radar_len = draw(st.integers(1, 4)) if modality_set.has_radar else 0
    stacked_shape = tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=3)))
    n = draw(st.integers(0, 3))
    payloads = [draw(_payloads(stacked_shape, n))]
    if radar_len:
        payloads.append(draw(_payloads((radar_len,), n)))
    samples = _records(
        fused_dtype(stacked_shape, radar_len),
        draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(Label), min_size=n, max_size=n)),
        *payloads,
    )
    provenance = draw(st.lists(ids, max_size=3))
    return FusedDataset(modality_set, samples, provenance)


def _fused_with(provenance):
    """A one-sample single-modality dataset with the given provenance."""
    samples = _records(fused_dtype((1, 1, 1), 0), [0.0], [1], np.zeros((1, 1, 1, 1), np.float32))
    return FusedDataset(ModalitySet.THERMAL, samples, provenance)


@st.composite
def _models(draw):
    modality_set = draw(st.sampled_from(ModalitySet))
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    spec = ModelSpec(
        modality_set,
        (kernel[0] + draw(st.integers(0, 2)), kernel[1] + draw(st.integers(0, 2)),
         draw(st.integers(1, 3))),
        draw(st.integers(1, 4)) if modality_set.has_radar else 0,
        conv_filters=draw(st.integers(1, 3)),
        kernel=kernel,
        dense_units=draw(st.integers(1, 3)),
        dropout_rate=draw(st.floats(0, 1, exclude_max=True)),
    )
    return build_model(spec, Rng(draw(st.integers(0, 2**64 - 1))))


def _bits(a):
    return np.ascontiguousarray(a, dtype="<f4").view("<u4")


def _every_prefix_rejected(path: Path, read) -> None:
    """Cut the file one byte at a time; every prefix must fail to parse."""
    for size in range(path.stat().st_size - 1, -1, -1):
        os.truncate(path, size)
        with pytest.raises((CorruptionError, FormatError)):
            read(path)


class TestFileProperties:
    @given(_recordings())
    def test_recording_round_trip(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.msfr"
            write_recording(rec, path)
            back = read_recording(path)
            assert (back.modality, back.recording_id) == (rec.modality, rec.recording_id)
            assert back.feature_shape == rec.feature_shape
            assert len(back.samples) == len(rec.samples)
            assert np.array_equal(back.samples.timestamp, rec.samples.timestamp)
            assert np.array_equal(back.samples.label, rec.samples.label)
            assert np.array_equal(_bits(back.samples.features), _bits(rec.samples.features))
            blob = path.read_bytes()
            write_recording(back, path)
            assert path.read_bytes() == blob
            _every_prefix_rejected(path, read_recording)

    # ids may also be empty or hold a comma, which write_fused must refuse
    @given(_fused_datasets(st.text("abcxyz019_-,", max_size=6)))
    @example(_fused_with(["a,b", "c"]))
    @example(_fused_with([""]))
    def test_fused_round_trip(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.msfr"
            bad = [rec_id for rec_id in ds.provenance if not rec_id or "," in rec_id]
            if bad:
                # joined by commas, such ids would read back as other ids
                with pytest.raises(ValidationError, match=re.escape(f"provenance id {bad[0]!r}")):
                    write_fused(ds, path)
                assert not path.exists()
                return
            write_fused(ds, path)
            back = read_fused(path)
            assert back.modality_set is ds.modality_set
            assert (back.provenance, back.radar_len) == (ds.provenance, ds.radar_len)
            assert back.stacked_shape == ds.stacked_shape
            assert len(back.samples) == len(ds.samples)
            assert np.array_equal(back.samples.label, ds.samples.label)
            assert np.array_equal(back.samples.timestamp, ds.samples.timestamp)
            assert np.array_equal(_bits(back.samples.stacked), _bits(ds.samples.stacked))
            if ds.radar_len:
                assert np.array_equal(_bits(back.samples.radar), _bits(ds.samples.radar))
            else:
                assert "radar" not in back.samples.dtype.names
            blob = path.read_bytes()
            write_fused(back, path)
            assert path.read_bytes() == blob
            _every_prefix_rejected(path, read_fused)

    @given(_models())
    def test_weights_round_trip(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.msfw"
            save_weights(model, path)
            back = load_weights(path)
            assert back.spec == model.spec
            for name, value in model.params().items():
                assert np.array_equal(_bits(back.params()[name]), _bits(value)), name
            assert weights_digest(back) == hashlib.sha256(path.read_bytes()).hexdigest()
            _every_prefix_rejected(path, load_weights)


# Edits to a valid file: flip bits of, insert or delete one byte. Positions
# lean toward the start of the file, where the framing fields are.
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete"]),
        st.floats(0, 1, exclude_max=True).map(lambda f: f**3),
        st.integers(1, 255),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(blob: bytes, edits) -> bytes:
    raw = bytearray(blob)
    for kind, where, byte in edits:
        at = int(where * len(raw))
        if kind == "insert":
            raw.insert(at, byte)
        elif raw and kind == "flip":
            raw[at] ^= byte
        elif raw:
            del raw[at]
    return bytes(raw)


def _parses_or_names_its_error(path: Path, blob: bytes, edits, read, check) -> None:
    """A mutated file parses to a valid object or raises a UavFuseError, nothing else."""
    path.write_bytes(_mutate(blob, edits))
    try:
        back = read(path)
    except UavFuseError:
        return
    check(back)


class TestMutatedFiles:
    @given(_recordings(), _EDITS)
    def test_recording(self, rec, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.msfr"
            write_recording(rec, path)
            _parses_or_names_its_error(
                path, path.read_bytes(), edits, read_recording, Recording.validate
            )

    @given(_fused_datasets(), _EDITS)
    def test_fused(self, ds, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.msfr"
            write_fused(ds, path)
            _parses_or_names_its_error(
                path, path.read_bytes(), edits, read_fused, FusedDataset.validate
            )

    @given(_models(), _EDITS)
    def test_weights(self, model, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.msfw"
            save_weights(model, path)
            _parses_or_names_its_error(
                path, path.read_bytes(), edits, load_weights, lambda m: m.spec.validate()
            )


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [("a.msfr", "thermal", 12), ("b.msfr", "fused", 0)]
        write_manifest(tmp_path, entries)
        assert read_manifest(tmp_path) == entries

    @pytest.mark.parametrize(
        "name", ["/data/a.msfr", "../a.msfr", "sub/a.msfr", "a.msfr/", "./a.msfr", ".", "..", ""]
    )
    def test_a_name_that_leaves_the_directory_rejected(self, tmp_path, name):
        write_manifest(tmp_path, [("a.msfr", "thermal", 1), (name, "thermal", 1)])
        with pytest.raises(FormatError, match="line 2: .* is not a plain file name"):
            read_manifest(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            read_manifest(tmp_path)

    def test_non_integer_count(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("a.msfr\tthermal\tmany\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1: count 'many' is not an integer"):
            read_manifest(tmp_path)

    def test_non_utf8_manifest(self, tmp_path):
        (tmp_path / "manifest.tsv").write_bytes(b"a\xff.msfr\tthermal\t1\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            read_manifest(tmp_path)


def test_non_utf8_recording_id_is_corruption(tmp_path):
    path = tmp_path / "r.msfr"
    write_recording(Recording(Modality.THERMAL, "abc", np.recarray(0, recording_dtype((1,)))), path)
    path.write_bytes(path.read_bytes().replace(b"abc", b"a\xffc"))
    with pytest.raises(CorruptionError, match="not UTF-8"):
        read_recording(path)


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
                feats = rec.samples.features.astype(np.float64)
                proj = np.sum(feats * u, axis=tuple(range(1, feats.ndim)))
                want = np.where(rec.samples.label == Label.UAV, 1.0, -1.0)
                assert np.all(np.abs(proj - want) < 1e-5)

    def test_uav_fraction_within_binomial_bounds(self):
        cfg = self._config(
            recordings_per_modality=1, samples_per_recording=3209, uav_fraction=0.326
        )
        data = generate_synthetic_dataset(cfg)
        rec = data[Modality.THERMAL][0]
        kept = np.flatnonzero(rec.samples.label == Label.UAV)
        expected = 3209 * 0.326
        sigma3 = 3 * (3209 * 0.326 * 0.674) ** 0.5
        # dropout removes ~10% uniformly; scale the expectation accordingly
        n_kept = len(rec.samples)
        assert abs(len(kept) - expected * n_kept / 3209) <= sigma3

    def test_full_radar_dropout_gives_empty_radar_recordings(self):
        data = generate_synthetic_dataset(self._config(radar_dropout=1.0))
        for rec in data[Modality.RADAR]:
            assert len(rec.samples) == 0
        for rec in data[Modality.THERMAL]:
            assert len(rec.samples) > 0

    def test_frame_locked_thermal_optronic_timestamps(self):
        cfg = self._config(thermal_dropout=0, optronic_dropout=0, radar_dropout=0)
        data = generate_synthetic_dataset(cfg)
        for rt, ro in zip(data[Modality.THERMAL], data[Modality.OPTRONIC]):
            assert len(rt.samples) == len(ro.samples)
            assert np.array_equal(rt.samples.timestamp, ro.samples.timestamp)
            assert np.array_equal(rt.samples.label, ro.samples.label)

    def test_radar_timestamps_on_grid_within_jitter(self):
        cfg = self._config(radar_dropout=0, timestamp_jitter=0.02)
        data = generate_synthetic_dataset(cfg)
        for rec in data[Modality.RADAR]:
            t = rec.samples.timestamp
            off = np.abs(t * cfg.radar_rate - np.round(t * cfg.radar_rate))
            assert np.all(off / cfg.radar_rate <= cfg.timestamp_jitter + 1e-12)

    @pytest.mark.parametrize(
        "config,digest",
        [
            (
                SynthConfig(recordings_per_modality=1, samples_per_recording=4, seed=7),
                "e7ff44ca5921e261751d4eb27947e64116adde042a4d1ae778df9222c92ab555",
            ),
            (
                SynthConfig(3, 40, seed=3, shape_profile=ShapeProfile.reduced()),
                "015feed42992352e6d2612eecd79788678bd7481bd1d47fe8650e269f6d4a22a",
            ),
        ],
        ids=["paper", "reduced"],
    )
    def test_golden_record_digest(self, config, digest):
        # Pinned bytes of every record, in modality order, then index order.
        # Both configs draw noise over several Box-Muller blocks.
        h = hashlib.sha256()
        for recordings in generate_synthetic_dataset(config).values():
            for recording in recordings:
                h.update(recording.samples.tobytes())
        assert h.hexdigest() == digest

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(self._config(uav_fraction=1.5))
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(self._config(frame_rate=0))
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(self._config(noise_sigma=-1))
