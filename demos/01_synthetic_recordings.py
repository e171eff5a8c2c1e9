"""Generate synthetic per-modality recordings and round-trip them through MSFR.

The generator emulates three upstream detectors that emit timestamped,
labeled feature maps: a thermal camera stream, an optronic (visible) camera
stream frame-locked to it, and a radar stream on its own clock. Class
separation is a fixed unit-norm pattern per modality; noise is independent
across modalities, which is exactly why fusing them helps.
"""

import tempfile
from pathlib import Path

import numpy as np

from uavfuse import (
    Label,
    Modality,
    ShapeProfile,
    SynthConfig,
    generate_synthetic_dataset,
    read_recording,
    write_recording,
)

out = Path(tempfile.mkdtemp(prefix="uavfuse-demo-"))

config = SynthConfig(
    recordings_per_modality=2,
    samples_per_recording=12,
    shape_profile=ShapeProfile.reduced(),
    thermal_dropout=0.0,  # keep all three streams complete so rows line up below
    optronic_dropout=0.0,
    radar_dropout=0.0,
    seed=2024,
)
data = generate_synthetic_dataset(config)

print("one recording per modality per index:")
for modality in Modality:
    rec = data[modality][0]
    print(f"  {modality.kind:8s} {rec.recording_id}: "
          f"{len(rec.samples)} samples of shape {rec.feature_shape}")

# a recording's samples are packed records, the MSFR file's layout, with
# one column per field: timestamp, label and features
rec = data[Modality.THERMAL][0]
print(f"\nrecord layout: {rec.samples.dtype}")
print("first thermal samples (timestamp, label):")
for t, label in zip(rec.samples.timestamp[:5], rec.samples.label[:5]):
    print(f"  t={t:6.3f}  {Label(label).name}")

print("\nthermal and optronic are frame-locked (same capture times):")
optronic_t = data[Modality.OPTRONIC][0].samples.timestamp
for tt, to in zip(rec.samples.timestamp[:3], optronic_t[:3]):
    print(f"  thermal t={tt:.3f}  optronic t={to:.3f}")

path = out / "rec000_thermal.msfr"
n = write_recording(rec, path)
back = read_recording(path)
same = (np.array_equal(rec.samples.timestamp, back.samples.timestamp)
        and np.array_equal(rec.samples.features, back.samples.features))
print(f"\nwrote {n} bytes to {path.name}; bit-exact round trip: {same}")

# same seed, same bytes: generation is a pure function of the config
again = generate_synthetic_dataset(config)
p2 = out / "again.msfr"
write_recording(again[Modality.THERMAL][0], p2)
print(f"regenerating with the same seed gives identical files: "
      f"{path.read_bytes() == p2.read_bytes()}")
