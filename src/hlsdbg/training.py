"""Joint training of the localization heads and the correction decoder.

Per step, the encoder loss combines the type head's cross entropy and the
token head's weighted binary cross entropy; the decoder adds teacher-forced
next-token cross entropy over the correct snippet. The three parts are
scaled and summed into one objective. Batches group records of similar
input length. Training order, the given-location coin flips, the batches,
and therefore the loss curve are a pure function of the seed.
A run advances one `TrainState` and a checkpoint holds one, optimizer and
RNG state included, so a resumed run reproduces the uninterrupted curve bit
for bit.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward, check_finite
from .errors import DataError
from .lexer import lex
from .model import BUG_TYPE_INDEX, DebuggerModel, ModelConfig, Vocab, dataclass_from_meta, label_span
from .mutate import BugRecord
from .optim import AdamState, adam_step, clip_global_norm
from .tensorstore import load_tensors

CURVE_HEADER = ("step", "L_type", "L_bug", "L_decoder", "L_all")


@dataclass
class LossWeights:
    alpha_type: float = 0.2
    alpha_bug: float = 2.0
    alpha_decoder: float = 10.0
    alpha_true: float = 0.05
    alpha_false: float = 1.0

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.alpha_true + self.alpha_false == 0:
            raise ValueError("alpha_true and alpha_false cannot both be zero")


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    lr: float = 3e-4
    lr_final: float = 0.0
    lr_decay_epochs: int = 0  # cosine-decay horizon; 0 keeps lr constant
    seed: int = 0
    checkpoint_every: int = 0  # epochs between checkpoints; 0 disables
    clip_norm: float = 1.0  # 0 disables clipping
    given_location_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.given_location_fraction <= 1.0:
            raise ValueError("given_location_fraction must be within [0, 1]")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if min(self.lr_final, self.lr_decay_epochs, self.checkpoint_every, self.clip_norm) < 0:
            raise ValueError("lr_final, lr_decay_epochs, checkpoint_every and clip_norm must be non-negative")
        if self.lr_decay_epochs > 0 and self.lr_final > self.lr:
            raise ValueError("lr_final cannot exceed lr")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for `epoch` under cosine decay to `lr_final`.

    The horizon is `lr_decay_epochs`, not `epochs`, so truncating or
    extending a run never changes the rate used at a given epoch.
    """
    if cfg.lr_decay_epochs <= 0:
        return cfg.lr
    frac = min(epoch, cfg.lr_decay_epochs) / cfg.lr_decay_epochs
    return cfg.lr_final + (cfg.lr - cfg.lr_final) * 0.5 * (1.0 + math.cos(math.pi * frac))


# --- losses -----------------------------------------------------------------


def loss_type(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy of the type head; `labels` are class indices."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.size == 0:
        raise ValueError("empty type batch")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"type label out of range [0, {k})")
    return ad.cross_entropy(ad.reshape(logits, (n, 1, k)), labels.reshape(n, 1), np.ones((n, 1)))


def loss_bug(logits: Tensor, labels: np.ndarray, mask: np.ndarray, weights: LossWeights) -> Tensor:
    """Weighted binary cross entropy over real token positions.

    Positive positions weigh `alpha_true`, negatives `alpha_false`; the sum
    is pooled across the whole batch by total weight. A batch in which no
    position weighs anything (`alpha_false = 0` and no flagged token, or
    `alpha_true = 0` and only flagged ones) has a zero term.
    """
    y = np.asarray(labels, dtype=logits.dtype)
    m = np.asarray(mask, dtype=logits.dtype)
    if m.sum() == 0:
        raise ValueError("bug loss over an all-padding batch")
    w = (y * weights.alpha_true + (1.0 - y) * weights.alpha_false) * m
    return ad.binary_cross_entropy(logits, y, w)


def loss_decoder(logits: Tensor, targets: np.ndarray, keep: np.ndarray) -> Tensor:
    """Teacher-forced next-token cross entropy, averaged per sample then batch."""
    return ad.cross_entropy(logits, np.asarray(targets, dtype=np.int64), keep)


def loss_all(l_type: Tensor, l_bug: Tensor, l_decoder: Tensor, weights: LossWeights) -> Tensor:
    """The scaled three-term objective `alpha_type L_type + alpha_bug L_bug + alpha_decoder L_decoder`."""
    l_encoder = ad.add(ad.scale(l_type, weights.alpha_type), ad.scale(l_bug, weights.alpha_bug))
    return ad.add(l_encoder, ad.scale(l_decoder, weights.alpha_decoder))


# --- batching ------------------------------------------------------------------

# Each epoch sorts windows of this many batches by encoder input length, so a
# batch pads its rows to a near-equal length, as Vaswani et al. (2017) batched.
BUCKET_BATCHES = 8


@dataclass
class _Example:
    """What one record contributes to any batch, prepared once per run."""

    ids: list[int]  # plain encoder input ids
    token_labels: list[int]
    span: tuple[int, int]  # the label span that given-location rows mark
    type_label: int
    target: list[int]  # decoder target ids, END last


def _example(model: DebuggerModel, rec: BugRecord) -> _Example:
    return _Example(model.vocab.encode(lex(rec.buggy_code).texts()), rec.token_labels, label_span(rec),
                    BUG_TYPE_INDEX[rec.bug_type], model.target_ids(rec))


def _epoch_batches(
    lengths: Sequence[int], batch_size: int, given_fraction: float, rng: random.Random
) -> list[list[tuple[int, bool]]]:
    """One epoch's batches of (record index, given-location coin flip).

    The records are shuffled and each draws its coin flip; then each window
    of `BUCKET_BATCHES * batch_size` positions is sorted by encoder input
    length (`lengths[i]`, plus the two sentinels of a given-location row),
    cut into batches, and the epoch's batches are shuffled. Every draw comes
    from `rng`, so the batches are a pure function of its state.
    """
    order = list(range(len(lengths)))
    rng.shuffle(order)
    drawn = [(i, rng.random() < given_fraction) for i in order]
    window = BUCKET_BATCHES * batch_size
    batches = []
    for at in range(0, len(drawn), window):
        part = sorted(drawn[at : at + window], key=lambda d: lengths[d[0]] + 2 * d[1])
        batches += [part[i : i + batch_size] for i in range(0, len(part), batch_size)]
    rng.shuffle(batches)
    return batches


@dataclass
class _Batch:
    ids: list[list[int]]
    spans: list[tuple[int, int] | None]  # the label span of a given-location row
    bug_rows: list[list[int]]
    type_labels: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tgt_keep: np.ndarray


def _build_batch(model: DebuggerModel, examples: Sequence[_Example], givens: Sequence[bool]) -> _Batch:
    t = max(len(ex.target) for ex in examples)
    b = len(examples)
    tgt_in = np.full((b, t), Vocab.PAD, dtype=np.int64)
    tgt_out = np.full((b, t), Vocab.PAD, dtype=np.int64)
    keep = np.zeros((b, t), dtype=model.config.np_dtype)
    for i, ex in enumerate(examples):
        row = ex.target
        tgt_in[i, : len(row)] = [Vocab.START] + row[:-1]
        tgt_out[i, : len(row)] = row
        keep[i, : len(row)] = 1.0
    return _Batch(
        ids=[ex.ids for ex in examples],
        spans=[ex.span if given else None for ex, given in zip(examples, givens)],
        bug_rows=[ex.token_labels for ex in examples],
        type_labels=np.asarray([ex.type_label for ex in examples], dtype=np.int64),
        tgt_in=tgt_in,
        tgt_out=tgt_out,
        tgt_keep=keep,
    )


def batch_losses(
    model: DebuggerModel, batch: _Batch, weights: LossWeights
) -> tuple[list[bool], Tensor, Tensor, Tensor, Tensor]:
    """(rows the encoder truncated, L_type, L_bug, L_decoder, L_all) of one batch.

    The one training objective: the trainer steps on it and the gradient
    checks differentiate it. The bug loss covers the positions the encoder
    kept, as its padding mask says; sentinels count with label 0.
    """
    enc = model.encode_ids(batch.ids, batch.spans)
    mask = enc.pad_mask[:, 1:]  # without the pooled slot
    labels = np.zeros_like(mask)
    labels[enc.is_token] = [y for row, n in zip(batch.bug_rows, enc.is_token.sum(axis=1)) for y in row[:n]]
    l_t = loss_type(model.type_logits(enc), batch.type_labels)
    l_b = loss_bug(model.bug_logits(enc), labels, mask, weights)
    l_d = loss_decoder(model.decoder_logits(enc, batch.tgt_in, batch.tgt_keep), batch.tgt_out, batch.tgt_keep)
    return enc.truncated, l_t, l_b, l_d, loss_all(l_t, l_b, l_d, weights)


# --- curve + checkpoints -----------------------------------------------------------


@dataclass
class CurveRow:
    step: int
    l_type: float
    l_bug: float
    l_decoder: float
    l_all: float


@dataclass
class TrainResult:
    curve: list[CurveRow]
    epochs: int  # the epoch count the run reached
    n_truncated: int  # records the encoder truncated in at least one step of the call


@dataclass
class TrainState:
    """What a run advances and what a checkpoint holds."""

    model: DebuggerModel
    cfg: TrainConfig
    weights: LossWeights
    rng: random.Random
    adam: AdamState = field(default_factory=AdamState)
    epoch: int = 0  # the next epoch to run
    step: int = 0  # optimizer steps taken
    curve: list[CurveRow] = field(default_factory=list)  # one row per step taken, in order


def write_curve_csv(path: str | Path, rows: Sequence[CurveRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for row in rows:
            writer.writerow([row.step, row.l_type, row.l_bug, row.l_decoder, row.l_all])


def read_curve_csv(path: str | Path) -> list[CurveRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CURVE_HEADER:
            raise DataError(f"unexpected curve header {header!r} in {path}")
        for rec in reader:
            try:
                rows.append(CurveRow(int(rec[0]), *(float(v) for v in rec[1:])))
            except (TypeError, ValueError):
                raise DataError(f"malformed curve row {rec!r} in {path}") from None
    return rows


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    moments = {f"adam.{which}.{name}": arr for which, arrays in (("m", state.adam.m), ("v", state.adam.v))
               for name, arr in arrays.items()}
    state.model.save(path, moments, {
        "train_config": asdict(state.cfg),
        "loss_weights": asdict(state.weights),
        "adam_t": state.adam.t,
        "next_epoch": state.epoch,
        "step": state.step,
        "curve": [list(astuple(row)) for row in state.curve],
        "rng_state": json.loads(json.dumps(state.rng.getstate())),
    })


def load_checkpoint(path: str | Path) -> TrainState:
    tensors, meta = load_tensors(path)
    for key in ("config", "vocab", "train_config", "loss_weights", "adam_t", "next_epoch", "step", "curve",
                "rng_state"):
        if key not in meta:
            raise DataError(f"checkpoint {path} lacks {key!r}")
    for key in ("adam_t", "next_epoch", "step"):
        if type(meta[key]) is not int or meta[key] < 0:
            raise DataError(f"checkpoint {path} has {key} = {meta[key]!r}, not a non-negative int")
    model = DebuggerModel.restore(meta, tensors, path)
    adam = AdamState(t=meta["adam_t"])
    for name, p in model.params.items():
        m, v = (tensors.get(f"adam.{which}.{name}") for which in ("m", "v"))
        if m is None or v is None or m.shape != p.shape or v.shape != p.shape:
            raise DataError(f"checkpoint {path} has bad Adam moments for {name!r}")
        m, v = m.astype(p.dtype, copy=False), v.astype(p.dtype, copy=False)
        # a non-finite moment, or a negative second one, turns Adam's update into NaN
        if not (np.isfinite(m).all() and np.isfinite(v).all() and (v >= 0).all()):
            raise DataError(f"checkpoint {path} has non-finite or negative Adam moments for {name!r}")
        adam.m[name], adam.v[name] = m, v
    rng = random.Random()
    try:
        version, internal, gauss = meta["rng_state"]
        rng.setstate((version, tuple(internal), gauss))
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"checkpoint {path} has a malformed rng_state") from None
    cfg = dataclass_from_meta(TrainConfig, meta["train_config"], "train config", path)
    weights = dataclass_from_meta(LossWeights, meta["loss_weights"], "loss weights", path)
    return TrainState(model, cfg, weights, rng, adam, meta["next_epoch"], meta["step"],
                      _curve_from_meta(meta["curve"], meta["step"], path))


def _curve_from_meta(rows, step: int, path: str | Path) -> list[CurveRow]:
    """A checkpoint's curve: rows for steps 1..step, each four finite float losses."""
    def well_formed(i: int, row) -> bool:
        return (type(row) is list and len(row) == 5 and type(row[0]) is int and row[0] == i
                and all(type(v) is float and math.isfinite(v) for v in row[1:]))

    if type(rows) is not list or len(rows) != step or not all(well_formed(i, r) for i, r in enumerate(rows, 1)):
        raise DataError(f"checkpoint {path} has a curve that is not steps 1..{step} with finite losses")
    return [CurveRow(*row) for row in rows]


# --- the trainer ---------------------------------------------------------------------


def train(
    model: DebuggerModel,
    records: Sequence[BugRecord],
    cfg: TrainConfig,
    weights: LossWeights | None = None,
    out_dir: str | Path | None = None,
    stop_fn: Callable[[int, DebuggerModel], bool] | None = None,
) -> TrainResult:
    """A fresh run of `cfg.epochs` on records as `read_jsonl` and the injector give them, checked."""
    state = TrainState(model, cfg, weights or LossWeights(), random.Random(cfg.seed))
    return _run(state, records, out_dir, stop_fn)


def resume(
    checkpoint: str | Path,
    records: Sequence[BugRecord],
    out_dir: str | Path | None = None,
    epochs: int | None = None,
) -> tuple[DebuggerModel, TrainResult]:
    """Continue a checkpointed run; the curve picks up where it left off.

    The checkpoint carries its curve, so `out_dir/curve.csv` is the
    uninterrupted run's curve whatever the directory held before.
    """
    state = load_checkpoint(checkpoint)
    if epochs is not None:
        state.cfg.epochs = epochs
    if state.cfg.epochs <= state.epoch:
        raise DataError(
            f"checkpoint {checkpoint} ends at epoch {state.epoch}; epochs = {state.cfg.epochs} adds none"
        )
    return state.model, _run(state, records, out_dir, None)


def _run(state: TrainState, records: Sequence[BugRecord], out_dir: str | Path | None, stop_fn) -> TrainResult:
    """Advance `state` to `cfg.epochs`; `out_dir/curve.csv` gets every row of `state.curve`."""
    if not records:
        raise ValueError("no training records")
    model, cfg, weights = state.model, state.cfg, state.weights
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    first_row = len(state.curve)
    cut: set[int] = set()
    examples = [_example(model, rec) for rec in records]
    lengths = [len(ex.ids) for ex in examples]
    for epoch in range(state.epoch, cfg.epochs):
        for chunk in _epoch_batches(lengths, cfg.batch_size, cfg.given_location_fraction, state.rng):
            batch = _build_batch(model, [examples[i] for i, _ in chunk], [given for _, given in chunk])
            with Tape() as tape:
                truncated, l_t, l_b, l_d, combined = batch_losses(model, batch, weights)
                check_finite(combined, "training loss")
            cut.update(i for (i, _), t in zip(chunk, truncated) if t)
            backward(tape, combined)
            if cfg.clip_norm > 0:
                clip_global_norm(model.params, cfg.clip_norm)
            adam_step(model.params, state.adam, lr_at(cfg, epoch))
            for p in model.params.values():
                p.zero_grad()
            state.step += 1
            state.curve.append(
                CurveRow(state.step, float(l_t.data), float(l_b.data), float(l_d.data), float(combined.data))
            )
        state.epoch = epoch + 1
        if out_path is not None and cfg.checkpoint_every > 0 and state.epoch % cfg.checkpoint_every == 0:
            save_checkpoint(out_path / f"checkpoint_{state.epoch:05d}.bin", state)
        if stop_fn is not None and stop_fn(epoch, model):
            break
    if out_path is not None:
        write_curve_csv(out_path / "curve.csv", state.curve)
    return TrainResult(state.curve[first_row:], state.epoch, len(cut))


# --- config files ----------------------------------------------------------------------


def parse_config_text(text: str) -> tuple[dict, dict, dict]:
    """`key = value` lines into (train, model, loss) keyword dicts.

    Prefix `model.` routes to ModelConfig, `loss.` to LossWeights; anything
    else must be a TrainConfig field. `#` starts a comment. Only a line feed
    ends a line, as in the lexer.
    """
    # prefix -> (the name errors give, its fields, its values), the empty prefix last; the data fixes
    # vocab_size and n_bug_types
    routes = {
        "model.": ("model", set(ModelConfig.__dataclass_fields__) - {"vocab_size", "n_bug_types"}, {}),
        "loss.": ("loss", set(LossWeights.__dataclass_fields__), {}),
        "": ("train", set(TrainConfig.__dataclass_fields__), {}),
    }
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        prefix = next(p for p in routes if key.startswith(p))
        what, fields, kw = routes[prefix]
        name = key[len(prefix):]
        if name not in fields:
            raise DataError(f"config line {lineno}: unknown {what} field {name!r}")
        kw[name] = _coerce(value)
    return routes[""][2], routes["model."][2], routes["loss."][2]


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
