"""Per-layer spans recorded from outside the package.

The package's layers call each other through module-level names (the
model calls ``conv2d_forward``, training calls ``rmsprop_step``, the CLI
calls ``fuse_dataset``) and through ``Rng`` methods. ``Tracer.install``
replaces every reference to each target function in the loaded
``uavfuse`` modules with a wrapper that records a span; ``uninstall`` puts
the originals back, so an untraced run executes the package unchanged.

A span's self time is its duration minus the durations of the spans it
directly contains. Everything runs in one thread and every call blocks, so
spans nest strictly.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = ("ops", "rng", "model", "training", "synth", "msfr", "registration", "metrics", "cli")


# ---- computed work, filled in after a call returns -----------------------------
# A hook may return a call-shape key; the span then also keeps per-call times
# by that key, for comparison with single-call measurements such as the
# ROADMAP baseline table.


def _conv_flops(extra, args, result):
    # 2 * outputs * (kh * kw * c_in): the forward product; conv2d_backward is
    # credited with the kernel-gradient product of the same size, the only
    # one of its three results the model uses.
    x, kernels = args[0], args[1].kernels
    kh, kw, c_in, c_out = kernels.shape
    batch = x.shape[0] if x.ndim == 4 else 1
    h, w = x.shape[-3] - kh + 1, x.shape[-2] - kw + 1
    extra["conv_flop"] += 2.0 * batch * h * w * c_out * kh * kw * c_in
    return f"b{batch}"


def _dense_shape(extra, args, result):
    x, weights = args[0], args[1].weights
    batch = x.shape[0] if x.ndim == 2 else 1
    return f"b{batch}/in{weights.shape[0]}"


def _rmsprop_bytes(extra, args, result):
    # computed minimum traffic: read param, grad, mean square; write param, mean square
    extra["rmsprop_bytes"] += 5 * 4 * args[0].size
    return f"n{args[0].size}"


def _train_counts(extra, args, result):
    extra["epochs"] += result[1].stopped_epoch


def _synth_bytes(extra, args, result):
    extra["synth.generate_synthetic_dataset.bytes"] += sum(
        s.features.nbytes for recs in result.values() for rec in recs for s in rec.samples
    )


def _written(name):
    def hook(extra, args, result):
        extra[f"{name}.bytes"] += result

    return hook


def _read(name):
    def hook(extra, args, result):
        extra[f"{name}.bytes"] += os.path.getsize(args[0])

    return hook


def _match_counts(extra, args, result):
    extra["matched"] += len(result)
    extra["offered"] += len(args[0])


# span name, defining module, attribute ("Class.method" for methods), post-call hook
TARGETS = (
    ("ops.conv2d_forward", "ops", "conv2d_forward", _conv_flops),
    ("ops.conv2d_backward", "ops", "conv2d_backward", _conv_flops),
    ("ops.dense_forward", "ops", "dense_forward", _dense_shape),
    ("ops.dense_backward", "ops", "dense_backward", _dense_shape),
    ("ops.rmsprop_step", "ops", "rmsprop_step", _rmsprop_bytes),
    ("ops.dropout_apply", "ops", "dropout_apply", None),
    ("ops.elementwise", "ops", "relu", None),
    ("ops.elementwise", "ops", "relu_backward", None),
    ("ops.elementwise", "ops", "sigmoid", None),
    ("ops.elementwise", "ops", "sigmoid_backward", None),
    ("ops.elementwise", "ops", "dropout_backward", None),
    ("ops.elementwise", "ops", "bce_loss", None),
    ("rng.uniform", "rng", "Rng.uniform", None),
    ("rng.normal", "rng", "Rng.normal", None),
    ("rng.permutation", "rng", "Rng.permutation", None),
    ("model.forward", "model", "_forward", None),
    ("model.backward", "model", "backward_pass", None),
    ("model.weights_digest", "model", "weights_digest", None),
    ("model.batch_arrays", "model", "batch_arrays", None),
    ("model.save_weights", "model", "save_weights", None),
    ("model.load_weights", "model", "load_weights", None),
    ("training.train", "training", "train", _train_counts),
    ("training.evaluate_probabilities", "training", "evaluate_probabilities", None),
    ("synth.generate_synthetic_dataset", "synth", "generate_synthetic_dataset", _synth_bytes),
    ("msfr.write_recording", "msfr", "write_recording", _written("msfr.write_recording")),
    ("msfr.read_recording", "msfr", "read_recording", _read("msfr.read_recording")),
    ("msfr.write_fused", "msfr", "write_fused", _written("msfr.write_fused")),
    ("msfr.read_fused", "msfr", "read_fused", _read("msfr.read_fused")),
    ("registration.fuse_dataset", "registration", "fuse_dataset", None),
    ("registration.match_streams", "registration", "match_streams", _match_counts),
    ("registration.stack_features", "registration", "stack_features", None),
    ("metrics.roc_curve", "metrics", "roc_curve", None),
    ("cli.generate", "cli", "cmd_generate", None),
    ("cli.register", "cli", "cmd_register", None),
    ("cli.train", "cli", "cmd_train", None),
    ("cli.evaluate", "cli", "cmd_evaluate", None),
)


def _ms(name):
    return (name + ".ms", "ms", "lower")


def _calls(name):
    return (name + ".calls", "count", "lower")


def _mb(name):
    return (name + ".mb", "MB", "lower")


# (metric name, unit, better) in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    _calls("ops.conv2d_forward"), _ms("ops.conv2d_forward"),
    _calls("ops.conv2d_backward"), _ms("ops.conv2d_backward"),
    _ms("ops.dense_forward"), _ms("ops.dense_backward"),
    _calls("ops.rmsprop_step"), _ms("ops.rmsprop_step"),
    _ms("ops.dropout_apply"), _ms("ops.elementwise"),
    ("ops.conv2d.gflop_per_s", "GFLOP/s", "higher"),
    ("ops.rmsprop_step.gb_per_s", "GB/s", "higher"),
    _calls("rng.uniform"), _ms("rng.uniform"), _ms("rng.permutation"), _ms("rng.normal"),
    _calls("model.forward"), _ms("model.forward"), _ms("model.backward"),
    _ms("model.weights_digest"), _ms("model.batch_arrays"),
    _ms("model.save_weights"), _ms("model.load_weights"),
    _ms("training.train"), _ms("training.evaluate_probabilities"),
    ("training.epochs", "count", "lower"), ("training.steps", "count", "lower"),
    _ms("synth.generate_synthetic_dataset"), _mb("synth.generate_synthetic_dataset"),
    _ms("msfr.write_recording"), _mb("msfr.write_recording"),
    _ms("msfr.read_recording"), _mb("msfr.read_recording"),
    _ms("msfr.write_fused"), _mb("msfr.write_fused"),
    _ms("msfr.read_fused"), _mb("msfr.read_fused"),
    _calls("registration.fuse_dataset"), _ms("registration.fuse_dataset"),
    _calls("registration.match_streams"), _ms("registration.match_streams"),
    ("registration.match_ratio", "ratio", "higher"),
    _ms("registration.stack_features"),
    _ms("metrics.roc_curve"),
    _ms("cli.generate"), _ms("cli.register"), _ms("cli.train"), _ms("cli.evaluate"),
) + tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS)


class Span:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.errors = 0


class Tracer:
    """Wraps the targets of one package while installed; aggregates spans per name."""

    def __init__(self, targets=TARGETS, package: str = "uavfuse"):
        self.targets = targets
        self.package = package
        self.spans: dict[str, Span] = defaultdict(Span)
        self.extra: dict[str, float] = defaultdict(float)
        self.per_call: dict[tuple[str, str], list[int]] = {}
        self.missing: dict[str, str] = {}
        self._open = [0]  # child-duration accumulator of each open span; [0] is the root
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        span, open_spans, clock = self.spans[name], self._open, time.perf_counter_ns
        extra, per_call = self.extra, self.per_call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                dur = clock() - start
                inner = open_spans.pop()
                open_spans[-1] += dur
                span.calls += 1
                span.total_ns += dur
                span.self_ns += dur - inner
            if hook is not None:
                hook_start = clock()
                key = hook(extra, args, result)
                if key is not None:
                    slot = per_call.setdefault((name, key), [0, 0])
                    slot[0] += 1
                    slot[1] += dur
                # the hook is tracing overhead: keep it out of the caller's self time
                open_spans[-1] += clock() - hook_start
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the rest as missing layers."""
        found = []
        for target in self.targets:
            try:
                found.append((target, importlib.import_module(f"{self.package}.{target[1]}")))
            except ImportError as exc:
                self.missing[target[0]] = f"module {target[1]} not importable: {exc}"
        # every package module, taken after the imports above
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for (name, module_name, attr, hook), module in found:
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
                original = None if owner is None else vars(owner).get(meth)
                if original is None:
                    self.missing[name] = f"{module_name}.{attr} not found"
                    continue
                self._patch(owner, meth, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing[name] = f"{module_name}.{attr} not found"
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- derived per-layer metrics ------------------------------------------------

    def _span(self, name: str) -> Span:
        return self.spans.get(name) or Span()

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value; spans never entered (or missing) read 0."""
        out: dict[str, float] = {}
        for metric, _unit, _better in LAYER_METRICS:
            stem, _, kind = metric.rpartition(".")
            if kind == "ms":
                out[metric] = self._span(stem).self_ns / 1e6
            elif kind == "calls":
                out[metric] = self._span(stem).calls
            elif kind == "mb":
                out[metric] = self.extra.get(stem + ".bytes", 0.0) / 1e6
            elif kind == "errors":
                out[metric] = sum(s.errors for n, s in self.spans.items() if n.split(".")[0] == stem)
        conv_s = (self._span("ops.conv2d_forward").self_ns
                  + self._span("ops.conv2d_backward").self_ns) / 1e9
        out["ops.conv2d.gflop_per_s"] = _ratio(self.extra.get("conv_flop", 0.0) / 1e9, conv_s)
        out["ops.rmsprop_step.gb_per_s"] = _ratio(
            self.extra.get("rmsprop_bytes", 0.0) / 1e9, self._span("ops.rmsprop_step").self_ns / 1e9
        )
        out["training.epochs"] = self.extra.get("epochs", 0.0)
        out["training.steps"] = self._span("model.backward").calls
        out["registration.match_ratio"] = _ratio(
            self.extra.get("matched", 0.0), self.extra.get("offered", 0.0)
        )
        return out

    def table(self) -> dict:
        """Raw spans and per-call-shape means, for the run record."""
        return {
            "spans": {
                n: {"calls": s.calls, "total_ms": s.total_ns / 1e6, "self_ms": s.self_ns / 1e6,
                    "errors": s.errors}
                for n, s in sorted(self.spans.items()) if s.calls
            },
            "per_call_ms": {
                f"{n}[{k}]": {"calls": c, "mean_ms": ns / c / 1e6}
                for (n, k), (c, ns) in sorted(self.per_call.items())
            },
            "missing": dict(self.missing),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
