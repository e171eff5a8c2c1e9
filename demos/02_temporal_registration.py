"""Temporal registration: nearest-first matching and channel stacking.

Fusing modalities needs one training row per physical event, so detections
from different sensors are paired by timestamp proximity (one-to-one,
closest pair first, same label) and the thermal/optronic maps are stacked
along the channel axis. Whatever fails to match is dropped, which is why
sample counts shrink as modalities are added.
"""

import numpy as np

from uavfuse import (
    Label,
    Modality,
    ModalitySet,
    ShapeProfile,
    SynthConfig,
    fuse_dataset,
    generate_synthetic_dataset,
    match_streams,
    recording_dtype,
    stack_features,
)

# a hand-sized example: two streams of records (timestamp, label, features),
# matched on their timestamp and label columns with half a second of tolerance
dtype = recording_dtype((1,))
a = np.rec.fromarrays([[0.5, 1.0], [Label.UAV, Label.UAV], np.zeros((2, 1))], dtype=dtype)
b = np.rec.fromarrays([[0.3, 0.6], [Label.UAV, Label.FALSE_ALARM], np.zeros((2, 1))], dtype=dtype)
pairs = match_streams(a, b, tolerance=0.5, label_constrained=True)
print(f"matched pairs (a index, b index): {pairs.tolist()}")
print("  a[0]@0.5s pairs with b[0]@0.3s; a[1]@1.0s finds no same-label partner\n")

# stacking puts thermal channels first, then optronic; registration stacks
# every matched pair of a recording in one call, on (n, H, W, C) blocks
stacked = stack_features(np.ones((7, 7, 1024), np.float32),
                         np.zeros((7, 7, 512), np.float32))
print(f"stacked (7,7,1024) + (7,7,512) -> {stacked.shape}")
block = stack_features(np.ones((5, 7, 7, 1024), np.float32),
                       np.zeros((5, 7, 7, 512), np.float32))
print(f"stacked (5,7,7,1024) + (5,7,7,512) -> {block.shape}\n")

# end to end on generated recordings: counts shrink with each added modality
config = SynthConfig(
    recordings_per_modality=3,
    samples_per_recording=200,
    shape_profile=ShapeProfile.reduced(),
    seed=7,
)
data = generate_synthetic_dataset(config)
t, o, r = data[Modality.THERMAL], data[Modality.OPTRONIC], data[Modality.RADAR]
for mset in ModalitySet:
    fused = fuse_dataset(t, o, r, mset)
    print(f"{mset.value:>5s}-modality dataset: {len(fused.samples)} samples")
# the audit columns keep each sample's source indices and |dt| values
print(f"three-modality audit: max |dt| thermal-optronic {fused.audit['optronic_dt'].max():.3f} s, "
      f"thermal-radar {fused.audit['radar_dt'].max():.3f} s")
print("\n(each modality independently drops ~10% of events, so every added "
      "modality loses a few more rows to registration)")
