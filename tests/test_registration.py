"""Stream matching against a brute-force oracle, stacking, and dataset fusion."""

import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavfuse.data import (
    Label,
    Modality,
    ModalitySet,
    Recording,
    ShapeProfile,
    recording_dtype,
)
from uavfuse.errors import ConfigError, ShapeError, ValidationError
from uavfuse.msfr import read_fused, write_fused
from uavfuse.registration import (
    MatchConfig,
    audit_fused_dataset,
    fuse_dataset,
    match_streams,
    stack_features,
)
from uavfuse.rng import Rng
from uavfuse.synth import SynthConfig, generate_synthetic_dataset

TINY = ShapeProfile("tiny", (2, 2, 2), (2, 2, 1), (3,))

UAV = Label.UAV
FA = Label.FALSE_ALARM


def stream(times, labels=None, features=None):
    """Recording records of the given columns; labels default to UAV, features to zeros."""
    n = len(times)
    labels = [UAV] * n if labels is None else labels
    features = np.zeros((n, 1)) if features is None else features
    columns = [np.asarray(times, np.float64), np.asarray(labels, np.uint8), features]
    return np.rec.fromarrays(columns, dtype=recording_dtype(np.shape(features)[1:]))


def pairs(matched):
    """match_streams' (k, 2) index array as a list of (i, j) tuples."""
    return [tuple(p) for p in matched.tolist()]


def brute_force_match(a, b, tolerance, label_constrained=True, one_to_one=True):
    """Full-enumeration reference for the greedy nearest-first matching rule."""
    cands = []
    for i in range(len(a)):
        for j in range(len(b)):
            dt = abs(a.timestamp[i] - b.timestamp[j])
            if dt > tolerance:
                continue
            if label_constrained and a.label[i] != b.label[j]:
                continue
            cands.append((dt, a.timestamp[i], j, i))
    cands.sort()
    if not one_to_one:
        best = {}
        for dt, _, j, i in cands:
            if i not in best or (dt, j) < best[i]:
                best[i] = (dt, j)
        return sorted((i, v[1]) for i, v in best.items())
    taken_a, taken_b, out = set(), set(), []
    for _, _, j, i in cands:
        if i not in taken_a and j not in taken_b:
            taken_a.add(i)
            taken_b.add(j)
            out.append((i, j))
    return sorted(out)


class TestMatchStreams:
    def test_identical_streams_pair_exactly(self):
        a = stream([0.0, 1.0, 2.5], [UAV, FA, UAV])
        assert pairs(match_streams(a, a.copy(), tolerance=0.5)) == [(0, 0), (1, 1), (2, 2)]

    def test_empty_side_gives_no_pairs(self):
        a = stream([0.0])
        assert pairs(match_streams(a, stream([]), 1.0)) == []
        assert pairs(match_streams(stream([]), a, 1.0)) == []

    def test_label_constraint_hand_case(self):
        a = stream([0.5, 1.0], [UAV, UAV])
        b = stream([0.3, 0.6], [UAV, FA])
        assert pairs(match_streams(a, b, tolerance=0.5, label_constrained=True)) == [(0, 0)]

    def test_the_tolerance_bounds_the_rounded_dt(self):
        # 0.30000000000000004 lies inside the float window 0.1 + 0.2, but
        # |dt| = 0.20000000000000004 exceeds 0.2, which the audit would flag
        a, b = stream([0.1]), stream([0.30000000000000004])
        assert pairs(match_streams(a, b, 0.2)) == brute_force_match(a, b, 0.2) == []
        assert pairs(match_streams(b, a, 0.2)) == []
        # and here |dt| rounds to the tolerance although t_b lies below the
        # float window t_a - tolerance
        a, b, tol = stream([1.5811093383823338]), stream([0.504286180248341]), 1.0768231581339927
        assert b.timestamp[0] < a.timestamp[0] - tol
        assert pairs(match_streams(a, b, tol)) == brute_force_match(a, b, tol) == [(0, 0)]

    @pytest.mark.parametrize("tolerance", [np.inf, np.nan, -0.5])
    def test_a_tolerance_outside_zero_to_infinity_raises(self, tolerance):
        # an infinite tolerance once made a NaN search window and no pairs
        a = stream([0.0, 1.0])
        with pytest.raises(ConfigError, match="tolerance"):
            match_streams(a, a.copy(), tolerance)

    @pytest.mark.parametrize("tolerance", [0.0, -0.0])
    def test_a_zero_tolerance_pairs_equal_timestamps(self, tolerance):
        a = stream([0.0, 1.0])
        assert pairs(match_streams(a, a.copy(), tolerance)) == [(0, 0), (1, 1)]

    def test_unsorted_input_names_first_offender(self):
        a = stream([1.0, 0.5])
        with pytest.raises(ValidationError, match="sample 1"):
            match_streams(a, stream([]), 1.0)
        with pytest.raises(ValidationError, match="stream b"):
            match_streams(stream([]), a, 1.0)

    @pytest.mark.parametrize("label_constrained", [True, False])
    @pytest.mark.parametrize("one_to_one", [True, False])
    def test_matches_brute_force_on_200_random_instances(
        self, label_constrained, one_to_one
    ):
        rng = Rng(2024)
        for trial in range(200):
            na = int(rng.uniform() * 12)
            nb = int(rng.uniform() * 12)
            # coarse grid timestamps force plenty of exact ties
            a = sorted((
                (round(float(rng.uniform()) * 12) * 0.25, UAV if rng.uniform() < 0.5 else FA)
                for _ in range(na)
            ), key=lambda s: s[0])
            b = sorted((
                (round(float(rng.uniform()) * 12) * 0.25, UAV if rng.uniform() < 0.5 else FA)
                for _ in range(nb)
            ), key=lambda s: s[0])
            a, b = (stream([t for t, _ in s], [label for _, label in s]) for s in (a, b))
            got = pairs(match_streams(a, b, 0.5, label_constrained, one_to_one))
            want = brute_force_match(a, b, 0.5, label_constrained, one_to_one)
            assert got == want, f"trial {trial}"

    def test_one_to_one_never_reuses_indices(self):
        rng = Rng(4)
        a = stream(sorted(float(rng.uniform()) * 3 for _ in range(30)))
        b = stream(sorted(float(rng.uniform()) * 3 for _ in range(10)))
        matched = pairs(match_streams(a, b, 1.0))
        assert len({i for i, _ in matched}) == len(matched)
        assert len({j for _, j in matched}) == len(matched)


# Small streams: timestamps on a coarse grid (duplicates and exact |dt| ties)
# or anywhere in a short span, where |dt| can miss the tolerance by one ulp.
_GRID_TIMES = st.integers(0, 12).map(lambda k: k * 0.25)
_ANY_TIMES = st.floats(0, 5, allow_nan=False)
_TIMES = st.one_of(_GRID_TIMES, _ANY_TIMES)
_TOLERANCES = st.one_of(st.sampled_from([0.0, 0.2, 0.25, 0.5, 1.0]), st.floats(0, 2))


@st.composite
def _streams(draw, times):
    n = draw(st.integers(0, 8))
    t = sorted(draw(st.lists(times, min_size=n, max_size=n)))
    return stream(t, draw(st.lists(st.sampled_from(Label), min_size=n, max_size=n)))


def _eligible(a, b, i, j, tolerance, label_constrained):
    """The candidate rule: |dt| within tolerance, labels equal when constrained."""
    within = abs(a.timestamp[i] - b.timestamp[j]) <= tolerance
    return within and (not label_constrained or a.label[i] == b.label[j])


class TestMatchStreamsProperties:
    @given(_streams(_TIMES), _streams(_TIMES), _TOLERANCES, st.booleans(), st.booleans())
    def test_equals_brute_force_with_ties(self, a, b, tolerance, label_constrained, one_to_one):
        got = pairs(match_streams(a, b, tolerance, label_constrained, one_to_one))
        assert got == brute_force_match(a, b, tolerance, label_constrained, one_to_one)

    @given(_streams(_TIMES), _streams(_TIMES), _TOLERANCES, st.booleans())
    def test_one_to_one_within_tolerance_and_label_constrained(
        self, a, b, tolerance, label_constrained
    ):
        got = pairs(match_streams(a, b, tolerance, label_constrained))
        assert [i for i, _ in got] == sorted({i for i, _ in got})
        assert len({j for _, j in got}) == len(got)
        for i, j in got:
            assert _eligible(a, b, i, j, tolerance, label_constrained)
        # greedy acceptance leaves no eligible pair with both ends free
        free_a = set(range(len(a))) - {i for i, _ in got}
        free_b = set(range(len(b))) - {j for _, j in got}
        assert not any(
            _eligible(a, b, i, j, tolerance, label_constrained) for i in free_a for j in free_b
        )

    @given(_streams(_TIMES), _streams(_TIMES), _TOLERANCES, st.booleans())
    def test_reuse_takes_the_nearest_eligible_sample(self, a, b, tolerance, label_constrained):
        got = dict(pairs(match_streams(a, b, tolerance, label_constrained, one_to_one=False)))
        for i in range(len(a)):
            eligible = [
                (abs(a.timestamp[i] - b.timestamp[j]), j)
                for j in range(len(b))
                if _eligible(a, b, i, j, tolerance, label_constrained)
            ]
            if eligible:
                assert got[i] == min(eligible)[1]  # nearest; ties go to the smaller j
            else:
                assert i not in got


class TestStackFeatures:
    def test_paper_shapes(self):
        out = stack_features(
            np.zeros((7, 7, 1024), np.float32), np.zeros((7, 7, 512), np.float32)
        )
        assert out.shape == (7, 7, 1536)

    def test_zero_channel_second_tensor_is_identity(self):
        t = Rng(5).normal((3, 3, 4))
        out = stack_features(t, np.zeros((3, 3, 0)))
        assert np.array_equal(out, t)

    def test_hand_index_placement(self):
        t = np.arange(4, dtype=np.float32).reshape(2, 2, 1)
        o = (10 + np.arange(4, dtype=np.float32)).reshape(2, 2, 1)
        out = stack_features(t, o)
        for i in range(2):
            for j in range(2):
                assert out[i, j, 0] == t[i, j, 0]
                assert out[i, j, 1] == o[i, j, 0]

    def test_blocks_stack_per_map(self):
        t = Rng(6).normal((5, 3, 3, 2))
        o = Rng(7).normal((5, 3, 3, 1))
        out = stack_features(t, o)
        assert out.shape == (5, 3, 3, 3)
        for k in range(5):
            assert np.array_equal(out[k], stack_features(t[k], o[k]))
        with pytest.raises(ShapeError, match="block size"):
            stack_features(t, o[:4])

    def test_writes_into_a_strided_output(self):
        t, o = Rng(8).normal((4, 3, 3, 2)), Rng(9).normal((4, 3, 3, 1))
        records = np.zeros(4, [("label", "u1"), ("stacked", "<f8", (3, 3, 3))])
        out = records["stacked"]
        assert stack_features(t, o, out) is out
        assert np.array_equal(records["stacked"], np.concatenate([t, o], axis=-1))
        assert not records["label"].any()
        with pytest.raises(ShapeError, match="output shape"):
            stack_features(t, o, np.zeros((4, 3, 3, 2)))

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="height"):
            stack_features(np.zeros((3, 2, 1)), np.zeros((2, 2, 1)))
        with pytest.raises(ShapeError, match="width"):
            stack_features(np.zeros((2, 3, 1)), np.zeros((2, 2, 1)))


def _hand_recordings(radar_superset=True):
    """Three perfectly aligned streams; radar optionally has extra samples."""
    times = [0.0, 1.0, 2.0, 3.0]
    labels = [UAV, FA, UAV, FA]
    column = np.reshape(times, (-1, 1, 1, 1))
    thermal = Recording(
        Modality.THERMAL, "rec000", stream(times, labels, np.broadcast_to(column, (4, 2, 2, 2)))
    )
    optronic = Recording(
        Modality.OPTRONIC, "rec000", stream(times, labels, np.broadcast_to(-column, (4, 2, 2, 1)))
    )
    rtimes = times + ([0.4, 1.6] if radar_superset else [])
    rlabels = labels + ([UAV, FA] if radar_superset else [])
    order = np.argsort(rtimes, kind="stable")
    rt = np.asarray(rtimes)[order]
    radar = Recording(
        Modality.RADAR,
        "rec000",
        stream(rt, np.asarray(rlabels)[order], np.broadcast_to(rt[:, None], (len(rt), 3))),
    )
    return thermal, optronic, radar


class TestFuseDataset:
    def test_lossless_registration_when_everything_aligns(self):
        t, o, r = _hand_recordings(radar_superset=True)
        one = fuse_dataset([t], [o], [r], ModalitySet.THERMAL)
        two = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC)
        three = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC_RADAR)
        assert len(one.samples) == len(two.samples) == len(three.samples) == 4
        # exact-time matches carry zero deltas and the right payloads
        assert np.all(three.audit["optronic_dt"] == 0.0)
        assert np.all(three.audit["radar_dt"] == 0.0)
        assert three.samples.stacked.shape[1:] == (2, 2, 3)
        assert three.samples.radar.shape[1:] == (3,)
        radar_t = r.samples.timestamp[three.audit["radar"]]
        assert np.array_equal(three.samples.radar[:, 0], radar_t)

    def test_stacking_order_thermal_first(self):
        t, o, r = _hand_recordings()
        two = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC)
        s = two.samples[1]
        optronic_t = o.samples.timestamp[two.audit["optronic"][1]]
        assert np.all(s.stacked[:, :, :2] == s.timestamp)
        assert np.all(s.stacked[:, :, 2] == -optronic_t)

    def test_empty_radar_recording_empties_only_three(self):
        t, o, _ = _hand_recordings()
        empty_radar = Recording(Modality.RADAR, "rec000", stream([], [], np.zeros((0, 3))))
        two = fuse_dataset([t], [o], [empty_radar], ModalitySet.THERMAL_OPTRONIC)
        three = fuse_dataset([t], [o], [empty_radar], ModalitySet.THERMAL_OPTRONIC_RADAR)
        assert len(two.samples) == 4
        assert len(three.samples) == 0

    @pytest.mark.parametrize("modality", list(Modality))
    def test_two_recordings_with_one_id_rejected(self, modality):
        streams = [[rec] for rec in _hand_recordings()]
        streams[modality] *= 2
        name = modality.name.lower()
        for modality_set in ModalitySet:
            with pytest.raises(ValidationError, match=f"two {name} recordings have the id 'rec000'"):
                fuse_dataset(*streams, modality_set)

    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_fused_shapes_are_the_network_input(self, modality_set):
        data = generate_synthetic_dataset(
            SynthConfig(recordings_per_modality=1, samples_per_recording=5, shape_profile=TINY)
        )
        fused = fuse_dataset(*(data[m] for m in Modality), modality_set)
        assert (fused.stacked_shape, fused.radar_len) == TINY.network_input(modality_set)

    def test_maps_that_cannot_stack_rejected(self):
        profile = ShapeProfile("odd", (2, 2, 2), (3, 2, 1), (3,))
        assert profile.network_input(ModalitySet.THERMAL) == ((2, 2, 2), 0)
        for modality_set in (ModalitySet.THERMAL_OPTRONIC, ModalitySet.THERMAL_OPTRONIC_RADAR):
            with pytest.raises(ShapeError, match="cannot stack"):
                profile.network_input(modality_set)

    def test_recordings_whose_maps_cannot_stack_are_invalid_data(self):
        # shapes read from recordings are data, not a programming fault
        t, o, r = _hand_recordings()
        tall = Recording(Modality.OPTRONIC, "rec000", stream(
            o.samples.timestamp, o.samples.label, np.zeros((4, 3, 2, 1))))
        assert len(fuse_dataset([t], [tall], [r], ModalitySet.THERMAL).samples) == 4
        for modality_set in (ModalitySet.THERMAL_OPTRONIC, ModalitySet.THERMAL_OPTRONIC_RADAR):
            with pytest.raises(ValidationError, match=r"cannot stack thermal \(2, 2, 2\)"):
                fuse_dataset([t], [tall], [r], modality_set)

    def test_empty_radar_features_are_invalid_data_for_three(self):
        # write_fused would refuse the set: a three-modality file needs radar features
        t, o, _ = _hand_recordings()
        flat = Recording(Modality.RADAR, "rec000", stream(t.samples.timestamp, None, np.zeros((4, 0))))
        assert len(fuse_dataset([t], [o], [flat], ModalitySet.THERMAL_OPTRONIC).samples) == 4
        with pytest.raises(ValidationError, match=r"radar features \(0,\) are empty"):
            fuse_dataset([t], [o], [flat], ModalitySet.THERMAL_OPTRONIC_RADAR)

    def test_a_missing_modality_lists_the_unmatched_thermal_ids(self):
        t, o, _ = _hand_recordings()
        other = Recording(Modality.THERMAL, "rec007", t.samples.copy())
        with pytest.raises(ValidationError) as err:
            fuse_dataset([other, t], [o], [], ModalitySet.THERMAL_OPTRONIC_RADAR)
        assert str(err.value) == "no radar recordings to fuse; unmatched recording ids: rec000, rec007"
        with pytest.raises(ValidationError) as err:
            fuse_dataset([], [o], [], ModalitySet.THERMAL)
        assert str(err.value) == "no thermal recordings to fuse"

    def test_no_recordings_of_a_needed_modality_rejected(self):
        t, o, _ = _hand_recordings()
        with pytest.raises(ValidationError, match="no optronic recordings to fuse"):
            fuse_dataset([t], [], [], ModalitySet.THERMAL_OPTRONIC)
        with pytest.raises(ValidationError, match="no radar recordings to fuse"):
            fuse_dataset([t], [o], [], ModalitySet.THERMAL_OPTRONIC_RADAR)
        assert len(fuse_dataset([t], [o], [], ModalitySet.THERMAL_OPTRONIC).samples) == 4

    def test_missing_counterpart_recording_skipped_with_warning(self, caplog):
        t, o, r = _hand_recordings()
        lone = Recording(Modality.THERMAL, "rec999", t.samples.copy())
        with caplog.at_level(logging.WARNING):
            two = fuse_dataset([t, lone], [o], [r], ModalitySet.THERMAL_OPTRONIC)
        assert "rec999" in caplog.text
        assert two.provenance == ["rec000"]
        assert len(two.samples) == 4

    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    @pytest.mark.parametrize("missing", [Modality.OPTRONIC, Modality.RADAR], ids=["optronic", "radar"])
    def test_each_stage_narrows_the_rows_and_a_missing_counterpart_skips(
        self, caplog, missing, modality_set
    ):
        # rec000 has every counterpart: optronic matches thermal rows 0-2 and radar
        # only row 3, which stage 2 has dropped; rec001 lacks ``missing``
        times = {
            ("rec000", Modality.THERMAL): [0.0, 1.0, 2.0, 3.0],
            ("rec000", Modality.OPTRONIC): [0.0, 1.0, 2.0],
            ("rec000", Modality.RADAR): [3.0],
            ("rec001", Modality.THERMAL): [0.5, 1.5],
            ("rec001", Modality.OPTRONIC): [0.5, 1.5],
            ("rec001", Modality.RADAR): [0.5, 1.5],
        }
        del times[("rec001", missing)]
        recordings = [[] for _ in Modality]
        for (rec_id, m), ts in times.items():
            features = np.zeros((len(ts),) + TINY.shape_for(m))
            recordings[m].append(Recording(m, rec_id, stream(ts, None, features)))
        with caplog.at_level(logging.WARNING):
            fused = fuse_dataset(*recordings, modality_set)

        needed = missing in modality_set.modalities
        warning = f"recording rec001: no {missing.name.lower()} counterpart, skipped"
        assert caplog.messages == ([warning] if needed else [])
        assert fused.provenance == ["rec000"] + ([] if needed else ["rec001"])
        one, two, three = ModalitySet
        assert fused.set_counts == {one: 6, two: 3 + 2 * (missing is Modality.RADAR), three: 0}
        assert len(fused.samples) == len(fused.audit) == fused.set_counts[modality_set]
        for m in set(Modality) - set(modality_set.modalities):
            name = m.name.lower()
            assert np.all(fused.audit[name] == -1) and np.all(fused.audit[f"{name}_dt"] == 0)

    @pytest.mark.parametrize("modality_set", list(ModalitySet))
    def test_stacked_maps_are_the_audited_rows_concatenated(self, modality_set):
        cfg = SynthConfig(
            recordings_per_modality=3, samples_per_recording=60, shape_profile=TINY, seed=5
        )
        data = generate_synthetic_dataset(cfg)
        fused = fuse_dataset(*(data[m] for m in Modality), modality_set)
        thermal = {rec.recording_id: rec for rec in data[Modality.THERMAL]}
        optronic = {rec.recording_id: rec for rec in data[Modality.OPTRONIC]}
        assert len(fused.samples) and fused.provenance
        for k, rec_id in enumerate(fused.provenance):
            rows = fused.audit["recording"] == k
            want = thermal[rec_id].samples.features[fused.audit["thermal"][rows]]
            if modality_set.has_optronic:
                o = optronic[rec_id].samples.features[fused.audit["optronic"][rows]]
                want = np.concatenate([want, o], axis=-1)
            assert np.array_equal(fused.samples.stacked[rows], want)

    def test_single_modality_passthrough(self):
        t, _, _ = _hand_recordings()
        one = fuse_dataset([t], None, None, ModalitySet.THERMAL)
        assert len(one.samples) == len(t.samples)
        assert np.array_equal(one.samples.stacked, t.samples.features)
        assert "radar" not in one.samples.dtype.names

    def test_generated_data_counts_decrease_across_modality_sets(self):
        cfg = SynthConfig(
            recordings_per_modality=3,
            samples_per_recording=150,
            shape_profile=TINY,
            seed=11,
        )
        data = generate_synthetic_dataset(cfg)
        t, o, r = data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR]
        n1 = len(fuse_dataset(t, o, r, ModalitySet.THERMAL).samples)
        n2 = len(fuse_dataset(t, o, r, ModalitySet.THERMAL_OPTRONIC).samples)
        n3 = len(fuse_dataset(t, o, r, ModalitySet.THERMAL_OPTRONIC_RADAR).samples)
        assert n3 < n2 < n1

    def test_fusion_is_deterministic(self, tmp_path):
        cfg = SynthConfig(
            recordings_per_modality=2,
            samples_per_recording=60,
            shape_profile=TINY,
            seed=3,
        )
        data = generate_synthetic_dataset(cfg)
        args = (data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR])
        p1, p2 = tmp_path / "a.msfr", tmp_path / "b.msfr"
        write_fused(fuse_dataset(*args, ModalitySet.THERMAL_OPTRONIC_RADAR), p1)
        write_fused(fuse_dataset(*args, ModalitySet.THERMAL_OPTRONIC_RADAR), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_audit_accepts_generated_fusion(self):
        cfg = SynthConfig(
            recordings_per_modality=2,
            samples_per_recording=80,
            shape_profile=TINY,
            seed=21,
        )
        data = generate_synthetic_dataset(cfg)
        t, o, r = data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR]
        match_cfg = MatchConfig()
        for mset in ModalitySet:
            fused = fuse_dataset(t, o, r, mset, match_cfg)
            audit_fused_dataset(fused, match_cfg, thermal=t, optronic=o, radar=r)

    def test_audit_catches_injected_tolerance_breach(self):
        t, o, r = _hand_recordings()
        match_cfg = MatchConfig()
        fused = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC_RADAR, match_cfg)
        fused.audit["radar_dt"][0] = 9.0
        with pytest.raises(ValidationError, match="radar delta"):
            audit_fused_dataset(fused, match_cfg)

    @pytest.mark.parametrize("field", ["label", "timestamp"])
    def test_audit_catches_a_disagreeing_contributor(self, field):
        t, o, r = _hand_recordings()
        match_cfg = MatchConfig()
        fused = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC_RADAR, match_cfg)
        audit_fused_dataset(fused, match_cfg, [t], [o], [r])
        if field == "label":
            r.samples.label[fused.audit["radar"][2]] ^= 1
        else:
            o.samples.timestamp[fused.audit["optronic"][2]] += 0.01
        contributor = "radar" if field == "label" else "optronic"
        with pytest.raises(ValidationError, match=f"sample 2: {contributor} contributor {field}"):
            audit_fused_dataset(fused, match_cfg, [t], [o], [r])

    def test_audit_passes_a_read_dataset(self, tmp_path):
        t, o, r = _hand_recordings()
        fused = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC_RADAR)
        write_fused(fused, tmp_path / "f.msfr")
        back = read_fused(tmp_path / "f.msfr")
        assert back.audit is None
        audit_fused_dataset(back, MatchConfig(), [t], [o], [r])

    def test_disagreeing_feature_shapes_rejected(self):
        t, o, r = _hand_recordings()
        other = Recording(Modality.OPTRONIC, "rec001", stream([0.0], [UAV], np.zeros((1, 2, 2, 2))))
        with pytest.raises(ValidationError, match="optronic recordings disagree on feature shape"):
            fuse_dataset([t], [o, other], [r], ModalitySet.THERMAL_OPTRONIC)

    def test_audit_catches_reused_source_index(self):
        t, o, r = _hand_recordings()
        match_cfg = MatchConfig()
        fused = fuse_dataset([t], [o], [r], ModalitySet.THERMAL_OPTRONIC, match_cfg)
        fused.audit["thermal"][1] = 0
        with pytest.raises(ValidationError, match="used twice"):
            audit_fused_dataset(fused, match_cfg)
