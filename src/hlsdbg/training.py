"""Joint training of the localization heads and the correction decoder.

Per step, the encoder loss combines the type head's cross entropy and the
token head's weighted binary cross entropy; the decoder adds teacher-forced
next-token cross entropy over the correct snippet. The three parts are
scaled and summed into one objective. Training order, the given-location
coin flips, and therefore the loss curve are a pure function of the seed.
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
from .model import BUG_TYPE_INDEX, DebuggerModel, ModelConfig, Vocab, bracket, dataclass_from_meta, label_span
from .mutate import BugRecord
from .optim import AdamState, adam_step, clip_global_norm
from .tensorstore import load_tensors

CURVE_HEADER = ("step", "L_type", "L_bug", "L_decoder", "L_all")


@dataclass
class LossWeights:
    alpha_type: float = 0.2
    alpha_bug: float = 2.0
    alpha_decoder: float = 10.0
    alpha_encoder: float = 1.0
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
    k = logits.shape[-1]
    if labels.size == 0:
        raise ValueError("empty type batch")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"type label out of range [0, {k})")
    logprobs = ad.log_softmax(logits, axis=-1)
    picked = ad.gather(logprobs, labels.reshape(-1, 1), axis=1)
    return ad.neg(ad.mean(picked))


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
    wsum = float(w.sum())
    if wsum == 0:
        return ad.scale(ad.sum_(logits), 0.0)
    elem = ad.sub(ad.softplus(logits), ad.mul(logits, Tensor(y)))
    return ad.scale(ad.sum_(ad.mul(elem, Tensor(w))), 1.0 / wsum)


def loss_decoder(logits: Tensor, targets: np.ndarray, keep: np.ndarray) -> Tensor:
    """Teacher-forced next-token cross entropy, averaged per sample then batch."""
    targets = np.asarray(targets, dtype=np.int64)
    k = np.asarray(keep, dtype=logits.dtype)
    counts = k.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("decoder loss requires a non-empty target per sample")
    logprobs = ad.log_softmax(logits, axis=-1)
    picked = ad.reshape(ad.gather(logprobs, targets[..., None], axis=2), targets.shape)
    per_sample = ad.sum_(ad.mul(picked, Tensor(k)), axis=1)
    per_sample = ad.mul(per_sample, Tensor((1.0 / counts).astype(logits.dtype)))
    return ad.neg(ad.mean(per_sample))


def loss_all(
    l_type: Tensor, l_bug: Tensor, l_decoder: Tensor, weights: LossWeights
) -> tuple[Tensor, Tensor]:
    """(combined, encoder-part) per the scaled three-term objective."""
    l_encoder = ad.add(
        ad.scale(l_type, weights.alpha_type), ad.scale(l_bug, weights.alpha_bug)
    )
    combined = ad.add(
        ad.scale(l_encoder, weights.alpha_encoder),
        ad.scale(l_decoder, weights.alpha_decoder),
    )
    return combined, l_encoder


# --- batching ------------------------------------------------------------------


@dataclass
class _Batch:
    ids: list[list[int]]
    bug_rows: list[list[int]]
    type_labels: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tgt_keep: np.ndarray


def _build_batch(model: DebuggerModel, records: Sequence[BugRecord], givens: Sequence[bool]) -> _Batch:
    ids_batch, bug_rows, type_labels, tgt_rows = [], [], [], []
    for rec, given in zip(records, givens):
        span = label_span(rec) if given else None
        ids_batch.append(model.input_ids(lex(rec.buggy_code), span))
        bug_rows.append(rec.token_labels if span is None else bracket(rec.token_labels, span, 0, 0))
        type_labels.append(BUG_TYPE_INDEX[rec.bug_type])
        tgt_rows.append(model.target_ids(rec))
    t = max(len(r) for r in tgt_rows)
    b = len(records)
    tgt_in = np.full((b, t), Vocab.PAD, dtype=np.int64)
    tgt_out = np.full((b, t), Vocab.PAD, dtype=np.int64)
    keep = np.zeros((b, t), dtype=model.config.np_dtype)
    for i, row in enumerate(tgt_rows):
        tgt_in[i, : len(row)] = [Vocab.START] + row[:-1]
        tgt_out[i, : len(row)] = row
        keep[i, : len(row)] = 1.0
    return _Batch(
        ids=ids_batch,
        bug_rows=bug_rows,
        type_labels=np.asarray(type_labels, dtype=np.int64),
        tgt_in=tgt_in,
        tgt_out=tgt_out,
        tgt_keep=keep,
    )


def _token_label_arrays(batch: _Batch, token_counts: list[int], s_tokens: int, dtype):
    b = len(batch.bug_rows)
    labels = np.zeros((b, s_tokens), dtype=dtype)
    mask = np.zeros((b, s_tokens), dtype=dtype)
    for i, row in enumerate(batch.bug_rows):
        n = token_counts[i]
        labels[i, :n] = row[:n]
        mask[i, :n] = 1.0
    return labels, mask


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
    final_epoch: int
    stopped_early: bool
    n_truncated: int
    checkpoints: list[Path] = field(default_factory=list)


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
        if m is None and v is None:
            continue
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
    checkpoints: list[Path] = []
    n_truncated = 0
    stopped = False
    for epoch in range(state.epoch, cfg.epochs):
        order = list(range(len(records)))
        state.rng.shuffle(order)
        givens = [state.rng.random() < cfg.given_location_fraction for _ in order]
        for at in range(0, len(order), cfg.batch_size):
            chunk = order[at : at + cfg.batch_size]
            batch = _build_batch(
                model, [records[i] for i in chunk], [givens[j] for j in range(at, at + len(chunk))]
            )
            with Tape() as tape:
                enc = model.encode_ids(batch.ids)
                n_truncated += sum(enc.truncated)
                labels, mask = _token_label_arrays(
                    batch, enc.token_counts, enc.e_tokens.shape[1], model.config.np_dtype
                )
                l_t = loss_type(model.type_logits(enc), batch.type_labels)
                l_b = loss_bug(model.bug_logits(enc), labels, mask, weights)
                l_d = loss_decoder(
                    model.decoder_logits(enc, batch.tgt_in, batch.tgt_keep),
                    batch.tgt_out,
                    batch.tgt_keep,
                )
                combined, _ = loss_all(l_t, l_b, l_d, weights)
                check_finite(combined, "training loss")
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
            ckpt = out_path / f"checkpoint_{state.epoch:05d}.bin"
            save_checkpoint(ckpt, state)
            checkpoints.append(ckpt)
        if stop_fn is not None and stop_fn(epoch, model):
            stopped = True
            break
    if out_path is not None:
        write_curve_csv(out_path / "curve.csv", state.curve)
    return TrainResult(state.curve[first_row:], state.epoch - 1, stopped, n_truncated, checkpoints)


# --- config files ----------------------------------------------------------------------


def parse_config_text(text: str) -> tuple[dict, dict, dict]:
    """`key = value` lines into (train, model, loss) keyword dicts.

    Prefix `model.` routes to ModelConfig, `loss.` to LossWeights; anything
    else must be a TrainConfig field. `#` starts a comment. Only a line feed
    ends a line, as in the lexer.
    """
    train_fields = set(TrainConfig.__dataclass_fields__)
    model_fields = set(ModelConfig.__dataclass_fields__) - {"vocab_size", "n_bug_types"}  # fixed by the data
    loss_fields = set(LossWeights.__dataclass_fields__)
    train_kw: dict = {}
    model_kw: dict = {}
    loss_kw: dict = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("model."):
            name = key[len("model."):]
            if name not in model_fields:
                raise DataError(f"config line {lineno}: unknown model field {name!r}")
            model_kw[name] = _coerce(value)
        elif key.startswith("loss."):
            name = key[len("loss."):]
            if name not in loss_fields:
                raise DataError(f"config line {lineno}: unknown loss field {name!r}")
            loss_kw[name] = _coerce(value)
        else:
            if key not in train_fields:
                raise DataError(f"config line {lineno}: unknown train field {key!r}")
            train_kw[key] = _coerce(value)
    return train_kw, model_kw, loss_kw


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
