"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import builtins
import hashlib
import io
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import environment
from uavfuse import registration
from uavfuse.cli import main
from uavfuse.config import load_run_config
from uavfuse import cli
from uavfuse.data import (
    FusedDataset,
    ModalitySet,
    Recording,
    ShapeProfile,
    fused_dtype,
    recording_dtype,
)
from uavfuse.errors import ConfigError, TrainingError
from uavfuse.model import ModelSpec, build_model, save_weights
from uavfuse.msfr import (
    read_fused,
    read_manifest,
    read_recording,
    shape_block,
    write_fused,
    write_manifest,
    write_recording,
)
from uavfuse.registration import fuse_dataset
from uavfuse.rng import Rng

FAST_TRAIN = """
profile = reduced
recordings_per_modality = 2
samples_per_recording = 40
lr0 = 0.001
max_epochs = 15
patience = 15
"""


def write_config(tmp_path, text="profile = reduced\nrecordings_per_modality = 2\nsamples_per_recording = 40\n"):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_generate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(b)]) == 0
    assert tree_bytes(a) == tree_bytes(b)
    names = [n for n, _, _ in read_manifest(a)]
    assert "rec000_thermal.msfr" in names and "rec001_radar.msfr" in names


def test_generate_zero_recordings_gives_empty_manifest(tmp_path):
    cfg = write_config(tmp_path, "profile = reduced\nrecordings_per_modality = 0\n")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_manifest(out) == []


def test_zero_samples_per_recording_exits_2_at_once_without_output(tmp_path):
    # a hundred million empty recordings per modality: before the check, this
    # generated until it was killed; in a process of its own so that it cannot hang the suite
    cfg = write_config(
        tmp_path, "profile = reduced\nrecordings_per_modality = 100000000\nsamples_per_recording = 0\n"
    )
    out = tmp_path / "out"
    timed_main = (
        "import sys, time; from uavfuse.cli import main; t = time.perf_counter(); "
        "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", timed_main, "generate", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "samples_per_recording must be positive, got 0" in proc.stderr
    assert float(proc.stdout) < 1.0
    assert not out.exists()


def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "no_such_knob = 5\n")
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no_such_knob" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "seed = banana\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_an_unknown_profile_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^profile must be paper or reduced, got 'huge'$"):
        load_run_config(overrides={"profile": "huge"})


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"profile = reduced\n# caf\xe9\n")
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["nope.cfg", "a_directory"])
def test_unreadable_config_path_exits_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / "o"
    assert main(["generate", "--config", str(tmp_path / name), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "noise_sigma = inf",
        "noise_sigma = nan",
        "thermal_separation = inf",
        "radar_separation = -inf",
        "frame_rate = inf",
        "radar_rate = nan",
        "timestamp_jitter = inf",
    ],
)
def test_non_finite_generator_value_exits_2(tmp_path, capsys, line):
    cfg = write_config(tmp_path, f"profile = reduced\nrecordings_per_modality = 1\n{line}\n")
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


# a warning is an error here: the one-line report is all that stderr may hold
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "line,what",
    [
        ("frame_rate = 1e-310", "thermal recording rec000: sample 1 timestamp inf"),
        ("radar_rate = 1e308", "radar recording rec000: sample 3 timestamp inf"),
        ("noise_sigma = 1e300", "thermal recording rec000: sample 0 features payload"),
    ],
)
def test_a_config_that_makes_data_that_cannot_be_stored_exits_2(tmp_path, capsys, line, what):
    # finite values whose recordings overflow: a config fault, found before any output
    cfg = write_config(tmp_path, f"profile = reduced\nrecordings_per_modality = 2\n{line}\n")
    out = tmp_path / "o"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    [report] = capsys.readouterr().err.splitlines()
    assert report.startswith(f"config error: the config makes an invalid {what}")
    assert not out.exists()


_COMMAND_ARGS = {
    "generate": [],
    "register": ["--data", "missing"],
    "train": ["--data", "missing"],
    "evaluate": ["--model", "missing", "--data", "missing"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@pytest.mark.parametrize(
    "line",
    [
        "uav_fraction = 1.5",  # generator
        "frame_tolerance = nan",  # registration
        "lr0 = nan",  # training
        "patience = 0",
        "conv_filters = 0",  # model
        "dense_units = -2",
        "kernel_size = 0",
        "kernel_size = 8",  # larger than the 7x7 input
        "dropout_rate = 1.0",
    ],
)
def test_every_command_rejects_a_bad_key_before_any_output(tmp_path, capsys, command, line):
    cfg = write_config(tmp_path, f"profile = reduced\n{line}\n")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg), "--out", str(out), *_COMMAND_ARGS[command]]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_1_with_one_line_and_no_output(tmp_path, capsys, monkeypatch):
    def cmd_train(cfg, data, out_dir):
        raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2**60,)")

    monkeypatch.setattr(cli, "cmd_train", cmd_train)
    out = tmp_path / "o"
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--data", "missing", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: out of memory: Unable to allocate 8.00 EiB for an array "
                                "with shape (2**60,)"]
    assert "Traceback" not in err
    assert not out.exists()


def test_resolved_config_echoed(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["generate", "--config", str(cfg), "--out", str(out), "--seed", "9"])
    text = (out / "resolved_config.txt").read_text()
    assert "seed = 9" in text  # flag beat the file default
    assert "profile = reduced" in text
    assert "conv_filters = 16" in text  # reduced-profile default resolved


def test_golden_resolved_config_default_paper_profile(tmp_path):
    load_run_config().write_resolved(tmp_path)
    digest = hashlib.sha256((tmp_path / "resolved_config.txt").read_bytes()).hexdigest()
    assert digest == "3cd2b5fd3883cf083fd959fe1eecf81e6c93ab3a6567cf7f499c78c35857703a"


def test_golden_resolved_config_file_and_flag_overrides(tmp_path):
    # Every value type goes through the file (int, float, bool, str) and the
    # flags beat the file's seed.
    cfg = write_config(
        tmp_path,
        "profile = reduced\nrecordings_per_modality = 1\nsamples_per_recording = 5\n"
        "noise_sigma = 0.25\nlabel_constrained = false\nmax_epochs = 7\nseed = 4\n",
    )
    out = tmp_path / "out"
    assert main(
        ["generate", "--config", str(cfg), "--out", str(out), "--seed", "11",
         "--modalities", "two", "--repeats", "3"]
    ) == 0
    digest = hashlib.sha256((out / "resolved_config.txt").read_bytes()).hexdigest()
    assert digest == "04f41d859e953a89232ec42b427717e7f04ab8fdf459e902f2ae43b530c18638"


def test_sub_config_field_left_out_of_the_keys_exits_2(tmp_path, capsys):
    # SynthConfig.shape_profile is set from ``profile``, never directly.
    cfg = write_config(tmp_path, "shape_profile = paper\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "shape_profile" in capsys.readouterr().err


@pytest.fixture()
def generated(tmp_path):
    cfg = write_config(tmp_path)
    data = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    return cfg, data


class TestRegister:
    def test_single_modality_counts_are_thermal_passthrough(self, generated, capsys):
        cfg, data = generated
        out = data.parent / "fused1"
        code = main(
            ["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
             "--modalities", "one"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        thermal_total = sum(
            c for _, kind, c in read_manifest(data) if kind == "thermal"
        )
        assert f"one={thermal_total}" in stdout

    def test_counts_monotone_across_modality_sets(self, generated, capsys):
        cfg, data = generated
        out = data.parent / "fused3"
        assert main(
            ["register", "--config", str(cfg), "--data", str(data), "--out", str(out)]
        ) == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("counts[")
        )
        counts = dict(part.split("=") for part in line.split(": ")[1].split())
        assert int(counts["three"]) <= int(counts["two"]) <= int(counts["one"])

    def test_missing_radar_exits_3_and_lists_ids(self, generated, capsys):
        cfg, data = generated
        # drop every radar file from the manifest
        entries = [e for e in read_manifest(data) if e[1] != "radar"]
        write_manifest(data, entries)
        code = main(
            ["register", "--config", str(cfg), "--data", str(data),
             "--out", str(data.parent / "f"), "--modalities", "three"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "radar" in err and "rec000" in err and "rec001" in err

    def test_non_utf8_recording_id_exits_3(self, generated, capsys):
        cfg, data = generated
        path = data / "rec001_optronic.msfr"
        path.write_bytes(path.read_bytes().replace(b"rec001", b"rec\xff01", 1))
        code = main(["register", "--config", str(cfg), "--data", str(data),
                     "--out", str(data.parent / "f")])
        assert code == 3
        assert "text field is not UTF-8" in capsys.readouterr().err

    def test_non_integer_manifest_count_exits_3(self, generated, capsys):
        cfg, data = generated
        entries = read_manifest(data)
        lines = [f"{n}\t{k}\t{'twelve' if i == 2 else c}\n" for i, (n, k, c) in enumerate(entries)]
        (data / "manifest.tsv").write_text("".join(lines), encoding="utf-8")
        code = main(["register", "--config", str(cfg), "--data", str(data),
                     "--out", str(data.parent / "f")])
        assert code == 3
        assert "manifest line 3: count 'twelve' is not an integer" in capsys.readouterr().err

    def test_manifest_count_disagreeing_with_the_file_exits_3(self, generated, capsys):
        cfg, data = generated
        entries = read_manifest(data)
        name, kind, count = entries[0]
        write_manifest(data, [(name, kind, 999)] + entries[1:])
        code = main(["register", "--config", str(cfg), "--data", str(data),
                     "--out", str(data.parent / "f")])
        assert code == 3
        assert f"{name}: {count} samples, but the manifest lists 999" in capsys.readouterr().err

    def test_swapped_kinds_exit_3(self, generated, capsys):
        # fused as listed, the two-modality maps would stack optronic first
        cfg, data = generated
        swap = {"thermal": "optronic", "optronic": "thermal"}
        write_manifest(data, [(n, swap.get(k, k), c) for n, k, c in read_manifest(data)])
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
                     "--modalities", "two"])
        assert code == 3
        err = capsys.readouterr().err
        want = "rec000_optronic.msfr: the manifest lists kind 'thermal', but the file is optronic"
        assert want in err
        assert not out.exists()

    def test_unknown_kind_exits_3(self, generated, capsys):
        # a mistyped kind would drop the file and, with it, the recording's fused samples
        cfg, data = generated
        typo = "rec001_radar.msfr"
        entries = [(n, "Radar" if n == typo else k, c) for n, k, c in read_manifest(data)]
        write_manifest(data, entries)
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{typo}: the manifest lists kind 'Radar', but the file is radar" in err
        assert not out.exists()

    def test_manifest_name_outside_the_directory_exits_3(self, generated, tmp_path, capsys):
        # a recording moved to another directory and listed by its absolute path
        cfg, data = generated
        moved = tmp_path / "elsewhere" / "rec001_thermal.msfr"
        moved.parent.mkdir()
        (data / moved.name).rename(moved)
        entries = [(str(moved) if n == moved.name else n, k, c) for n, k, c in read_manifest(data)]
        write_manifest(data, entries)
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 3
        assert f"{str(moved)!r} is not a plain file name" in capsys.readouterr().err
        assert not out.exists()

    def test_two_recordings_with_one_id_exit_3(self, generated, capsys):
        cfg, data = generated
        # a second thermal file that holds rec000 again
        copy = data / "rec000b_thermal.msfr"
        copy.write_bytes((data / "rec000_thermal.msfr").read_bytes())
        count = len(read_recording(copy).samples)
        write_manifest(data, read_manifest(data) + [(copy.name, "thermal", count)])
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 3
        assert "two thermal recordings have the id 'rec000'" in capsys.readouterr().err
        assert not out.exists()

    def test_held_out_recording_without_radar_exits_3(self, generated, capsys):
        # the train split fuses; the test split (rec001) has no radar
        cfg, data = generated
        write_manifest(data, [e for e in read_manifest(data) if e[0] != "rec001_radar.msfr"])
        out = data.parent / "split"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
                     "--holdout", "1"])
        assert code == 3
        assert "no radar recordings to fuse; unmatched recording ids: rec001" in capsys.readouterr().err
        assert not out.exists()

    def test_a_provenance_past_the_u16_limit_exits_3_before_any_output(self, generated, capsys):
        # each id fits its recording's u16 id block; the two joined by a comma do not
        cfg, data = generated
        for name, _, _ in read_manifest(data):
            rec = read_recording(data / name)
            long_id = rec.recording_id.ljust(40_000, "x")
            write_recording(Recording(rec.modality, long_id, rec.samples), data / name)
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
                     "--modalities", "three"])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error: split 'all': provenance of 80001 bytes exceeds the u16 limit" in err
        assert not out.exists()

    def test_a_recording_id_with_a_comma_exits_3_before_any_output(self, generated, capsys):
        # the fused file joins its ids with commas: 'rec,000' would read back as 'rec' and '000'
        cfg, data = generated
        for name, _, _ in read_manifest(data):
            rec = read_recording(data / name)
            if rec.recording_id == "rec000":
                write_recording(Recording(rec.modality, "rec,000", rec.samples), data / name)
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "split 'all': provenance id 'rec,000' is empty or holds a comma" in err
        assert not out.exists()

    @pytest.mark.parametrize("modalities", ["two", "three"])
    def test_maps_that_cannot_stack_exit_3(self, generated, capsys, modalities):
        cfg, data = generated
        for name, kind, count in read_manifest(data):
            if kind == "optronic":
                rec = read_recording(data / name)
                samples = np.recarray(count, recording_dtype((6, 6, 16)))
                samples.timestamp, samples.label = rec.samples.timestamp, rec.samples.label
                samples.features = 0
                write_recording(Recording(rec.modality, rec.recording_id, samples), data / name)
        out = data.parent / "fused"
        code = main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
                     "--modalities", modalities])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error: cannot stack thermal (7, 7, 32) and optronic (6, 6, 16) maps" in err
        assert not out.exists()

    def test_holdout_writes_train_and_test_splits(self, generated):
        cfg, data = generated
        out = data.parent / "split"
        assert main(
            ["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
             "--holdout", "1"]
        ) == 0
        assert (out / "train" / "fused_three.msfr").is_file()
        assert (out / "test" / "fused_three.msfr").is_file()

    @pytest.mark.parametrize("modalities", ["one", "two", "three"])
    def test_counts_equal_each_sets_fused_dataset(self, tmp_path, capsys, monkeypatch, modalities):
        # rec001 has no radar counterpart. Every counts[...] entry must equal
        # the sample count fuse_dataset gives that set on its own, and one
        # pass matches each recording once: thermal-optronic, then radar.
        cfg = write_config(
            tmp_path, "profile = reduced\nrecordings_per_modality = 3\nsamples_per_recording = 40\n"
        )
        data = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
        entries = [e for e in read_manifest(data) if e[0] != "rec001_radar.msfr"]
        write_manifest(data, entries)
        streams = {kind: [read_recording(data / n) for n, k, _ in entries if k == kind]
                   for kind in ("thermal", "optronic", "radar")}
        want = {
            s.value: len(fuse_dataset(*streams.values(), s).samples) for s in ModalitySet
        }
        calls = []
        real_match = registration.match_streams

        def counting_match(*args, **kwargs):
            calls.append(args)
            return real_match(*args, **kwargs)

        monkeypatch.setattr(registration, "match_streams", counting_match)
        capsys.readouterr()
        out = tmp_path / "fused"
        assert main(
            ["register", "--config", str(cfg), "--data", str(data), "--out", str(out),
             "--modalities", modalities]
        ) == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("counts[all]: ")
        )
        counts = {k: int(v) for k, v in (part.split("=") for part in line.split(": ")[1].split())}
        assert counts == want
        assert read_manifest(out)[0][2] == want[modalities]
        assert len(calls) == 2 * 3 - 1  # rec001 has no radar match

    @pytest.mark.parametrize(
        "line", ["frame_tolerance = nan", "radar_tolerance = inf", "frame_tolerance = -inf"]
    )
    def test_non_finite_tolerance_exits_2(self, generated, tmp_path, capsys, line):
        cfg, data = generated
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        code = main(["register", "--config", str(bad), "--data", str(data), "--out", str(tmp_path / "f")])
        assert code == 2
        key = line.split(" = ")[0]
        assert f"config error: {key} must be finite" in capsys.readouterr().err

    def test_negative_tolerance_exits_2(self, generated, tmp_path, capsys):
        cfg, data = generated
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text(encoding="utf-8") + "radar_tolerance = -0.5\n", encoding="utf-8")
        code = main(["register", "--config", str(bad), "--data", str(data), "--out", str(tmp_path / "f")])
        assert code == 2
        assert "tolerances must be non-negative" in capsys.readouterr().err

    def test_register_is_deterministic(self, generated):
        cfg, data = generated
        a, b = data.parent / "ra", data.parent / "rb"
        main(["register", "--config", str(cfg), "--data", str(data), "--out", str(a)])
        main(["register", "--config", str(cfg), "--data", str(data), "--out", str(b)])
        assert tree_bytes(a) == tree_bytes(b)


@pytest.fixture()
def fused(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_TRAIN, encoding="utf-8")
    data = tmp_path / "data"
    out = tmp_path / "fused"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
    return cfg, out / "fused_three.msfr"


class TestTrain:
    def test_fixed_seed_gives_identical_weights(self, fused, tmp_path):
        cfg, data = fused
        a, b = tmp_path / "ma", tmp_path / "mb"
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_repeats_write_reports_and_mean(self, fused, tmp_path, capsys):
        cfg, data = fused
        out = tmp_path / "models"
        assert main(
            ["train", "--config", str(cfg), "--data", str(data), "--out", str(out),
             "--repeats", "5"]
        ) == 0
        assert sorted(p.name for p in out.glob("model_*.msfw")) == [
            f"model_{i:03d}.msfw" for i in range(5)
        ]
        assert len(list(out.glob("report_*.txt"))) == 5
        assert "mean validation weighted F1 over 5 run(s)" in capsys.readouterr().out
        text = (out / "report_000.txt").read_text()
        assert "stopped_epoch = " in text and "weights_digest = " in text

    def test_single_class_dataset_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            FAST_TRAIN + "uav_fraction = 0.0\n", encoding="utf-8"
        )
        data, fused_dir = tmp_path / "d", tmp_path / "f"
        main(["generate", "--config", str(cfg), "--out", str(data)])
        main(["register", "--config", str(cfg), "--data", str(data), "--out", str(fused_dir)])
        code = main(
            ["train", "--config", str(cfg), "--data", str(fused_dir), "--out", str(tmp_path / "m")]
        )
        assert code == 4
        assert "single class" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_a_later_repeat_failing_keeps_the_earlier_repeats(self, fused, tmp_path, monkeypatch):
        cfg, data = fused
        real_train, calls = cli.train, []

        def train_once(*args):
            calls.append(args)
            if len(calls) == 2:
                raise TrainingError("training split contains a single class")
            return real_train(*args)

        monkeypatch.setattr(cli, "train", train_once)
        out = tmp_path / "m"
        argv = ["train", "--config", str(cfg), "--data", str(data), "--out", str(out), "--repeats", "3"]
        assert main(argv) == 4
        assert sorted(p.name for p in out.iterdir()) == [
            "model_000.msfw", "report_000.txt", "resolved_config.txt"
        ]

    def test_maps_smaller_than_the_kernel_exit_2(self, fused, tmp_path, capsys):
        # the profile's 7x7 maps pass the config check; the dataset's 2x2 maps do not
        cfg, data = fused
        small = read_fused(data)
        samples = np.recarray(len(small.samples), fused_dtype((2, 2, 48), small.radar_len))
        samples.timestamp, samples.label, samples.radar = (
            small.samples.timestamp, small.samples.label, small.samples.radar
        )
        samples.stacked = 0
        path = tmp_path / "small.msfr"
        write_fused(FusedDataset(small.modality_set, samples, small.provenance), path)
        out = tmp_path / "m"
        assert main(["train", "--config", str(cfg), "--data", str(path), "--out", str(out)]) == 2
        assert "config error: input (2, 2, 48) smaller than kernel (3, 3)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["lr0 = nan", "decay = inf", "val_fraction = nan"])
    def test_non_finite_training_value_exits_2(self, fused, tmp_path, capsys, line):
        cfg, data = fused
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_TRAIN.replace("lr0 = 0.001\n", "") + line + "\n", encoding="utf-8")
        out = tmp_path / "m"
        assert main(["train", "--config", str(bad), "--data", str(data), "--out", str(out)]) == 2
        key = line.split(" = ")[0]
        assert f"config error: {key} must be finite" in capsys.readouterr().err
        assert not list(out.glob("model_*.msfw"))

    def test_missing_fused_file_exits_3(self, fused, tmp_path):
        cfg, _ = fused
        code = main(
            ["train", "--config", str(cfg), "--data", str(tmp_path / "nowhere"),
             "--out", str(tmp_path / "m")]
        )
        assert code == 3


class TestEvaluate:
    @pytest.fixture()
    def separable_pipeline(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "profile = reduced\nrecordings_per_modality = 2\nsamples_per_recording = 40\n"
            "noise_sigma = 0.0\ndropout_rate = 0.0\nlr0 = 0.001\n"
            "max_epochs = 40\npatience = 40\n",
            encoding="utf-8",
        )
        data, fused_dir, models = tmp_path / "d", tmp_path / "f", tmp_path / "m"
        assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
        assert main(["register", "--config", str(cfg), "--data", str(data), "--out", str(fused_dir)]) == 0
        assert main(["train", "--config", str(cfg), "--data", str(fused_dir), "--out", str(models)]) == 0
        return cfg, fused_dir / "fused_three.msfr", models

    def test_converged_model_scores_perfectly_on_training_data(
        self, separable_pipeline, tmp_path
    ):
        cfg, data, models = separable_pipeline
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--config", str(cfg), "--model", str(models / "model_000.msfw"),
             "--data", str(data), "--out", str(out)]
        ) == 0
        doc = (out / "evaluation.txt").read_text()
        assert "weighted_f1 = 1\n" in doc
        assert "fp = 0" in doc and "fn = 0" in doc
        assert "auc = 1\n" in doc
        assert (out / "roc_model_000.csv").read_text().startswith("fpr,tpr")

    def test_evaluate_twice_byte_identical(self, separable_pipeline, tmp_path):
        cfg, data, models = separable_pipeline
        a, b = tmp_path / "ea", tmp_path / "eb"
        for out in (a, b):
            assert main(
                ["evaluate", "--config", str(cfg), "--model", str(models),
                 "--data", str(data), "--out", str(out)]
            ) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_evaluating_a_directory_lists_per_seed_f1(self, fused, tmp_path):
        cfg, data = fused
        models, out = tmp_path / "mm", tmp_path / "ee"
        assert main(
            ["train", "--config", str(cfg), "--data", str(data), "--out", str(models),
             "--repeats", "3"]
        ) == 0
        assert main(
            ["evaluate", "--config", str(cfg), "--model", str(models),
             "--data", str(data), "--out", str(out)]
        ) == 0
        doc = (out / "evaluation.txt").read_text()
        per_seed = next(l for l in doc.splitlines() if l.startswith("per_seed_f1"))
        assert len(per_seed.split("=")[1].split(",")) == 3
        assert "mean_f1 = " in doc
        assert len(list(out.glob("roc_model_*.csv"))) == 3

    def test_each_input_is_read_once_and_its_digest_is_the_files(
        self, fused, tmp_path, monkeypatch
    ):
        cfg, data = fused
        models, out = tmp_path / "mm", tmp_path / "ee"
        assert main(
            ["train", "--config", str(cfg), "--data", str(data), "--out", str(models),
             "--repeats", "2"]
        ) == 0
        inputs = [data, *sorted(models.glob("*.msfw"))]
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        # Path opens through io.open, numpy's fromfile through the builtin
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(
            ["evaluate", "--config", str(cfg), "--model", str(models),
             "--data", str(data), "--out", str(out)]
        ) == 0
        monkeypatch.undo()
        assert [opened.count(path) for path in inputs] == [1] * len(inputs)
        doc = (out / "evaluation.txt").read_text()
        digests = [line.split(" = ")[1] for line in doc.splitlines() if "_digest = " in line]
        assert digests == [hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs]

    def test_shape_mismatch_exits_5(self, separable_pipeline, tmp_path, capsys):
        cfg, _, models = separable_pipeline
        paper_cfg = tmp_path / "paper.cfg"
        paper_cfg.write_text(
            "profile = paper\nrecordings_per_modality = 1\nsamples_per_recording = 3\n"
            "thermal_dropout = 0\noptronic_dropout = 0\nradar_dropout = 0\n",
            encoding="utf-8",
        )
        pdata, pfused = tmp_path / "pd", tmp_path / "pf"
        assert main(["generate", "--config", str(paper_cfg), "--out", str(pdata)]) == 0
        assert main(
            ["register", "--config", str(paper_cfg), "--data", str(pdata), "--out", str(pfused)]
        ) == 0
        code = main(
            ["evaluate", "--config", str(paper_cfg), "--model", str(models / "model_000.msfw"),
             "--data", str(pfused), "--out", str(tmp_path / "e")]
        )
        assert code == 5
        assert "model input" in capsys.readouterr().err


def test_golden_evaluation_digest(tmp_path):
    # Pinned bytes of a tiny generate -> register -> train -> evaluate run.
    cfg = write_config(
        tmp_path,
        "profile = reduced\nrecordings_per_modality = 2\nsamples_per_recording = 40\n"
        "seed = 3\nlr0 = 0.001\nmax_epochs = 3\npatience = 3\n",
    )
    data, fused_dir, models, out = (tmp_path / n for n in ("d", "f", "m", "e"))
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--data", str(data), "--out", str(fused_dir)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(fused_dir), "--out", str(models)]) == 0
    assert main(
        ["evaluate", "--config", str(cfg), "--model", str(models),
         "--data", str(fused_dir), "--out", str(out)]
    ) == 0
    digest = hashlib.sha256((out / "evaluation.txt").read_bytes()).hexdigest()
    assert digest == "fabe4151837e9c199818ab7041065b034fa2332d92a9b3f2996cd562c3ad6c0e", environment()


def test_golden_roc_csv_digest(tmp_path):
    # Pinned bytes of roc_model_000.csv from the golden evaluation run.
    cfg = write_config(
        tmp_path,
        "profile = reduced\nrecordings_per_modality = 2\nsamples_per_recording = 40\n"
        "seed = 3\nlr0 = 0.001\nmax_epochs = 3\npatience = 3\n",
    )
    data, fused_dir, models, out = (tmp_path / n for n in ("d", "f", "m", "e"))
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--data", str(data), "--out", str(fused_dir)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(fused_dir), "--out", str(models)]) == 0
    assert main(
        ["evaluate", "--config", str(cfg), "--model", str(models),
         "--data", str(fused_dir), "--out", str(out)]
    ) == 0
    digest = hashlib.sha256((out / "roc_model_000.csv").read_bytes()).hexdigest()
    assert digest == "15d56540d4e4c02f165058998399bd0b68ec053b757275b12d42fe4c967a8fe4"


def test_golden_training_report_digest(tmp_path):
    # Pinned bytes of report_000.txt from the golden evaluation run's train
    # stage: per-epoch series, best and stopped epochs and validation F1.
    cfg = write_config(
        tmp_path,
        "profile = reduced\nrecordings_per_modality = 2\nsamples_per_recording = 40\n"
        "seed = 3\nlr0 = 0.001\nmax_epochs = 3\npatience = 3\n",
    )
    data, fused_dir, models = (tmp_path / n for n in ("d", "f", "m"))
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--data", str(data), "--out", str(fused_dir)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(fused_dir), "--out", str(models)]) == 0
    digest = hashlib.sha256((models / "report_000.txt").read_bytes()).hexdigest()
    assert digest == "85888efd1e667a884f147a94cf98da69c5246ce5c9e8d0a2074a0306df380755", environment()


def test_evaluate_nan_weights_exits_3(fused, tmp_path):
    # Runs in a child process with a timeout: NaN scores once sent the ROC
    # sweep into an endless loop that kept appending points.
    cfg, data = fused
    spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(), conv_filters=16, dense_units=32
    )
    model = build_model(spec, Rng(0))
    model.output.bias[0] = np.nan
    weights = tmp_path / "nan.msfw"
    save_weights(model, weights)
    proc = subprocess.run(
        [sys.executable, "-m", "uavfuse.cli", "evaluate", "--config", str(cfg),
         "--model", str(weights), "--data", str(data), "--out", str(tmp_path / "e")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert "non-finite" in proc.stderr
    assert not (tmp_path / "e").exists()


def _reduced_weights(path, modality_set=ModalitySet.THERMAL_OPTRONIC_RADAR):
    """Save an untrained reduced-profile model of the set to ``path``; return the model."""
    spec = ModelSpec.for_profile(modality_set, ShapeProfile.reduced(), conv_filters=16, dense_units=32)
    model = build_model(spec, Rng(0))
    path.parent.mkdir(exist_ok=True)
    save_weights(model, path)
    return model


@pytest.mark.parametrize("with_good_model", [False, True])
@pytest.mark.parametrize("field,value", [("dropout_rate", np.nan), ("conv_filters", 0)])
def test_evaluate_out_of_range_weights_spec_exits_3(
    fused, tmp_path, capsys, field, value, with_good_model
):
    # with a good model first in the directory, nothing is written for it either
    cfg, data = fused
    models = tmp_path / "models"
    spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(), conv_filters=16, dense_units=32
    )
    model = build_model(spec, Rng(0))
    setattr(model.spec, field, value)
    weights = models / "bad.msfw"
    models.mkdir()
    save_weights(model, weights)
    if with_good_model:
        _reduced_weights(models / "a_good.msfw")
    code = main(
        ["evaluate", "--config", str(cfg), "--model", str(models if with_good_model else weights),
         "--data", str(data), "--out", str(tmp_path / "e")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"bad.msfw: stored spec is out of range: {field}" in err
    assert not (tmp_path / "e").exists()


def test_evaluate_a_two_modality_model_beside_a_good_one_exits_5(fused, tmp_path, capsys):
    cfg, data = fused
    models, out = tmp_path / "models", tmp_path / "e"
    _reduced_weights(models / "a_good.msfw")
    _reduced_weights(models / "b_two.msfw", ModalitySet.THERMAL_OPTRONIC)
    code = main(["evaluate", "--config", str(cfg), "--model", str(models), "--data", str(data),
                 "--out", str(out)])
    assert code == 5
    assert "model takes no radar input but the batch has one" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_a_single_class_test_split_exits_3(fused, tmp_path, capsys):
    # the confusion and the report exist for one class; the ROC curve does not
    cfg, data = fused
    dataset = read_fused(data)
    uav_only = tmp_path / "uav.msfr"
    samples = dataset.samples[dataset.samples.label == 1]
    write_fused(FusedDataset(dataset.modality_set, samples, dataset.provenance), uav_only)
    weights, out = tmp_path / "m.msfw", tmp_path / "e"
    _reduced_weights(weights)
    code = main(["evaluate", "--config", str(cfg), "--model", str(weights), "--data", str(uav_only),
                 "--out", str(out)])
    assert code == 3
    assert "data error: roc_curve needs both classes present" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_nan_feature_exits_3(fused, tmp_path, capsys):
    cfg, data = fused
    spec = ModelSpec.for_profile(
        ModalitySet.THERMAL_OPTRONIC_RADAR, ShapeProfile.reduced(), conv_filters=16, dense_units=32
    )
    weights = tmp_path / "m.msfw"
    save_weights(build_model(spec, Rng(0)), weights)
    dataset = read_fused(data)
    dataset.samples[5].stacked[0, 0, 0] = np.nan
    bad = tmp_path / "nan.msfr"
    # the writer rejects the NaN, so put the records' bytes behind the file's header
    raw = data.read_bytes()
    bad.write_bytes(raw[: len(raw) - dataset.samples.nbytes] + dataset.samples.tobytes())
    code = main(
        ["evaluate", "--config", str(cfg), "--model", str(weights), "--data", str(bad),
         "--out", str(tmp_path / "e")]
    )
    assert code == 3
    assert "nan.msfr: sample 5 stacked payload holds non-finite" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_non_utf8_provenance_exits_3(fused, tmp_path, capsys):
    cfg, data = fused
    bad = tmp_path / "bad.msfr"
    bad.write_bytes(data.read_bytes().replace(b"rec000", b"rec\xff00", 1))
    code = main(["train", "--config", str(cfg), "--data", str(bad), "--out", str(tmp_path / "m")])
    assert code == 3
    assert "text field is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "count,stacked,radar,error",
    [
        (3, (7, 7, 48), (0,), "radar length 0 does not fit the three-modality set"),
        (1, (7, 7, 48), (64,), "radar length 64 does not fit the one-modality set"),
        (3, (5,), (64,), "stacked shape (5,) is not (H, W, C)"),
        (3, (7, 7, 48), (8, 8), "radar block (8, 8) is not one dimension"),
    ],
)
def test_a_header_whose_count_does_not_fit_its_shapes_exits_3(
    fused, tmp_path, capsys, count, stacked, radar, error
):
    # a hand-built file, valid but for its modality count or shape blocks
    cfg, data = fused
    good = read_fused(data)
    samples = np.zeros(len(good.samples), fused_dtype(stacked, math.prod(radar)))
    samples["timestamp"], samples["label"] = good.samples.timestamp, good.samples.label
    ids = ",".join(good.provenance).encode()
    bad = tmp_path / "bad.msfr"
    bad.write_bytes(b"".join([
        b"MSFR", struct.pack("<HBBH", 1, 3, count, len(ids)), ids, shape_block(stacked),
        shape_block(radar), struct.pack("<I", len(samples)), samples.tobytes(),
    ]))
    code = main(["train", "--config", str(cfg), "--data", str(bad), "--out", str(tmp_path / "m")])
    assert code == 3
    assert f"bad.msfr: {error}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, "profile = reduced\nrecordings_per_modality = 1\nsamples_per_recording = 5\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "uavfuse.cli", "generate", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.tsv").is_file()
