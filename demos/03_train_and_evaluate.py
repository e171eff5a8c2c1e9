"""Train the three-modality fusion network at the reduced profile and score it.

Recordings are split by id into train and held-out test sets (the same way
field recordings would be), registered per modality set, and the fusion
network is trained with RMSprop, batch 12, early stopping on validation
loss. Runs in about a minute.
"""

import numpy as np

from uavfuse import (
    Modality,
    ModalitySet,
    ModelSpec,
    Rng,
    ShapeProfile,
    SynthConfig,
    TrainConfig,
    build_model,
    classification_report,
    confusion_at_threshold,
    evaluate_probabilities,
    fuse_dataset,
    generate_synthetic_dataset,
    render_confusion,
    render_report,
    roc_curve,
    train,
)
from uavfuse.model import record_maps

profile = ShapeProfile.reduced()
config = SynthConfig(
    recordings_per_modality=5,
    samples_per_recording=300,
    shape_profile=profile,
    seed=11,
)
data = generate_synthetic_dataset(config)

# recordings 0-3 train the model, recording 4 is the held-out test set
train_recs = {m: data[m][:4] for m in Modality}
test_recs = {m: data[m][4:] for m in Modality}

mset = ModalitySet.THERMAL_OPTRONIC_RADAR
train_ds = fuse_dataset(train_recs[Modality.THERMAL], train_recs[Modality.OPTRONIC],
                        train_recs[Modality.RADAR], mset)
test_ds = fuse_dataset(test_recs[Modality.THERMAL], test_recs[Modality.OPTRONIC],
                       test_recs[Modality.RADAR], mset)
print(f"train: {len(train_ds.samples)} fused samples, "
      f"test: {len(test_ds.samples)} fused samples")
print(f"fused record layout: {train_ds.samples.dtype}")

spec = ModelSpec.for_profile(mset, profile, conv_filters=16, dense_units=32)
model = build_model(spec, Rng(0).spawn("init"))
print(f"model: stacked input {spec.stacked_shape}, radar {spec.radar_len}, "
      f"{spec.param_count} trainable parameters")

trained, report = train(model, train_ds, TrainConfig(seed=0))
print(f"stopped at epoch {report.stopped_epoch} "
      f"(best validation loss at epoch {report.best_epoch})")
print("val loss per epoch:",
      " ".join(f"{v:.3f}" for v in report.val_loss[:10]),
      "..." if len(report.val_loss) > 10 else "")

# the maps are read from the records in place; the labels are the one copy
x, r = record_maps(test_ds.samples)
y = np.array(test_ds.samples["label"], np.float32)
p = evaluate_probabilities(trained, x, r)
cm = confusion_at_threshold(y, p)
rep = classification_report(cm)
print()
print(render_confusion(cm))
print()
print(render_report(rep))
print(f"\nAUC: {roc_curve(y, p).auc:.4f}")
