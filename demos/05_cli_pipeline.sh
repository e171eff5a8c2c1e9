#!/bin/sh
# The whole pipeline through the command line: synthesize recordings,
# register them into fused datasets with a held-out test recording,
# train two seeds, and evaluate both on the test split.
set -e

ROOT="$(mktemp -d "${TMPDIR:-/tmp}/uavfuse-demo-XXXXXX")"
CFG="$ROOT/run.cfg"

cat > "$CFG" <<'EOF'
# fast demo settings: reduced shapes, a small dataset, quicker optimizer
profile = reduced
recordings_per_modality = 4
samples_per_recording = 150
lr0 = 0.001
max_epochs = 20
patience = 20
EOF

uavfuse generate --config "$CFG" --out "$ROOT/recordings"
uavfuse register --config "$CFG" --data "$ROOT/recordings" --out "$ROOT/fused" --holdout 1
uavfuse train    --config "$CFG" --data "$ROOT/fused/train" --out "$ROOT/models" --repeats 2
uavfuse evaluate --config "$CFG" --model "$ROOT/models" --data "$ROOT/fused/test" --out "$ROOT/eval"

echo
echo "artifacts under $ROOT:"
find "$ROOT" -type f | sort | sed "s|$ROOT/|  |"
