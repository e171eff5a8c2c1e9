"""Late-fusion UAV vs. false-alarm classification over per-sensor feature maps.

The pipeline: synthesize (or load) per-modality recordings of labeled
feature maps, temporally register them into fused datasets, train the
one-, two- or three-modality fusion network, and evaluate with the full
binary-classification toolkit. Everything is seed-deterministic.
"""

from .data import (
    FusedDataset,
    Label,
    Modality,
    ModalitySet,
    Recording,
    ShapeProfile,
    fused_dtype,
    recording_dtype,
)
from .metrics import (
    ClassificationReport,
    ConfusionMatrix,
    RocCurve,
    classification_report,
    confusion_at_threshold,
    render_confusion,
    render_report,
    roc_csv,
    roc_curve,
)
from .model import (
    Model,
    ModelSpec,
    build_model,
    classify_probability,
    load_weights,
    save_weights,
    weights_digest,
)
from .msfr import (
    read_fused,
    read_manifest,
    read_recording,
    write_fused,
    write_manifest,
    write_recording,
)
from .registration import (
    MatchConfig,
    audit_fused_dataset,
    fuse_dataset,
    match_streams,
    stack_features,
)
from .rng import Rng, derive_seed
from .synth import SynthConfig, generate_synthetic_dataset
from .training import TrainConfig, TrainReport, evaluate_probabilities, train

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ConfusionMatrix",
    "FusedDataset",
    "Label",
    "MatchConfig",
    "Modality",
    "ModalitySet",
    "Model",
    "ModelSpec",
    "Recording",
    "Rng",
    "RocCurve",
    "ShapeProfile",
    "SynthConfig",
    "TrainConfig",
    "TrainReport",
    "audit_fused_dataset",
    "build_model",
    "classification_report",
    "classify_probability",
    "confusion_at_threshold",
    "derive_seed",
    "evaluate_probabilities",
    "fuse_dataset",
    "fused_dtype",
    "generate_synthetic_dataset",
    "load_weights",
    "match_streams",
    "read_fused",
    "read_manifest",
    "read_recording",
    "recording_dtype",
    "render_confusion",
    "render_report",
    "roc_csv",
    "roc_curve",
    "save_weights",
    "stack_features",
    "train",
    "weights_digest",
    "write_fused",
    "write_manifest",
    "write_recording",
]
