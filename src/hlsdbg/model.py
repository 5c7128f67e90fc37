"""Encoder-decoder debugger over lexed token sequences.

The encoder prepends a classification slot to the buggy token sequence and
produces per-token states plus a pooled state; two MLP heads read bug
probabilities (per token) and a bug-type distribution (from the pooled
slot) off those states. The decoder regenerates the correct snippet while
cross-attending to all encoder states, pooled slot included. Optionally the
known bug span can be bracketed with sentinel tokens so the decoder solves
correction in isolation. The sentinels add information without moving any
token: each one shares the position of the token that follows it, so every
real token has the same position as in plain mode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError
from .lexer import TokenStream, lex
from .mutate import BugRecord, BugType
from .tensorstore import load_tensors, save_tensors

BUG_TYPE_ORDER: tuple[BugType, ...] = tuple(BugType)
BUG_TYPE_INDEX = {t: i for i, t in enumerate(BUG_TYPE_ORDER)}


class Vocab:
    """Token-text vocabulary with reserved control slots."""

    PAD, UNK, CLS, START, END, BUG_OPEN, BUG_CLOSE = range(7)
    SPECIALS = ("<pad>", "<unk>", "<cls>", "<start/>", "<end/>", "<bug>", "</bug>")

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[: len(self.SPECIALS)]) != self.SPECIALS:
            raise ValueError("vocabulary must start with the reserved specials")
        if not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary tokens must be strings")
        self.id_to_token: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def build(cls, token_seqs: Iterable[Sequence[str]]) -> "Vocab":
        counts: Counter = Counter()
        for seq in token_seqs:
            counts.update(seq)
        kept = sorted(
            (t for t in counts if t not in cls.SPECIALS),
            key=lambda t: (-counts[t], t),
        )
        return cls(list(cls.SPECIALS) + kept)

    @classmethod
    def for_records(cls, records: Iterable[BugRecord]) -> "Vocab":
        """Vocabulary over the lexed buggy and correct code of every record."""
        return cls.build(lex(code).texts() for r in records for code in (r.buggy_code, r.correct_code))

    def encode(self, texts: Sequence[str]) -> list[int]:
        return [self.token_to_id.get(t, self.UNK) for t in texts]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass
class ModelConfig:
    vocab_size: int
    n_layers_enc: int = 4
    n_layers_dec: int = 4
    d_model: int = 256
    n_heads: int = 4
    d_ff: int = 1024
    max_src_len: int = 512
    max_tgt_len: int = 64
    head_mlp_layers: int = 3
    n_bug_types: int = len(BUG_TYPE_ORDER)
    dtype: str = "f32"

    def __post_init__(self) -> None:
        for name in ("vocab_size", "n_layers_enc", "n_layers_dec", "d_model",
                     "n_heads", "d_ff", "max_src_len", "max_tgt_len", "head_mlp_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_src_len < 2:
            raise ValueError("max_src_len must leave room for a token after the pooled slot")
        if self.vocab_size < len(Vocab.SPECIALS):
            raise ValueError("vocab_size smaller than the reserved specials")
        if self.dtype not in ("f32", "f64"):
            raise ValueError("dtype must be 'f32' or 'f64'")
        # kept as a field so that existing model files load; the type head has one logit per bug type
        if self.n_bug_types != len(BUG_TYPE_ORDER):
            raise ValueError(f"n_bug_types must be {len(BUG_TYPE_ORDER)}, one per bug type")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "f32" else np.float64


@dataclass
class EncoderOutput:
    memory: Tensor            # (B, S, D): pooled slot followed by token states
    e_cls: Tensor             # (B, D)
    e_tokens: Tensor          # (B, S-1, D)
    pad_mask: np.ndarray      # (B, S) 1.0 at real positions
    token_counts: list[int]   # real (non-pad) token positions per row, excl. pooled slot
    truncated: list[bool]


@dataclass
class RecordPrediction:
    token_probs: np.ndarray   # aligned with the lexed buggy tokens (may be truncated)
    type_logits: np.ndarray   # (n_bug_types,)
    generated_text: str
    generated_ids: list[int]
    truncated: bool
    stream: TokenStream = field(repr=False, default=None)


def expected_param_count(cfg: ModelConfig) -> int:
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    embed = v * d + cfg.max_src_len * d + v * d + cfg.max_tgt_len * d
    enc = cfg.n_layers_enc * (4 * d * d + 2 * d * f + f + d)
    dec = cfg.n_layers_dec * (8 * d * d + 2 * d * f + f + d)
    hidden = (cfg.head_mlp_layers - 1) * (d * d + d)
    heads = 2 * hidden + (d * 1 + 1) + (d * cfg.n_bug_types + cfg.n_bug_types)
    out = d * v + v
    return embed + enc + dec + heads + out


def param_spec(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """(name, shape, init std) of every parameter, in the order seeded init draws them.

    A std of 0 marks a parameter that starts at zero and draws nothing.
    """
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    spec: list[tuple[str, tuple[int, ...], float]] = []

    def add(name: str, shape: tuple[int, ...], std: float = 0.02) -> None:
        spec.append((name, shape, std))

    add("src_embed", (v, d))
    add("pos_enc", (cfg.max_src_len, d))
    add("tgt_embed", (v, d))
    add("pos_dec", (cfg.max_tgt_len, d))
    for i in range(cfg.n_layers_enc):
        for w in ("wq", "wk", "wv", "wo"):
            add(f"enc{i}.{w}", (d, d))
        add(f"enc{i}.w1", (d, f))
        add(f"enc{i}.b1", (f,), std=0.0)
        add(f"enc{i}.w2", (f, d))
        add(f"enc{i}.b2", (d,), std=0.0)
    for i in range(cfg.n_layers_dec):
        for w in ("self_wq", "self_wk", "self_wv", "self_wo",
                  "cross_wq", "cross_wk", "cross_wv", "cross_wo"):
            add(f"dec{i}.{w}", (d, d))
        add(f"dec{i}.w1", (d, f))
        add(f"dec{i}.b1", (f,), std=0.0)
        add(f"dec{i}.w2", (f, d))
        add(f"dec{i}.b2", (d,), std=0.0)
    for head, width in (("head_bug", 1), ("head_type", cfg.n_bug_types)):
        for j in range(cfg.head_mlp_layers - 1):
            add(f"{head}.w{j}", (d, d))
            add(f"{head}.b{j}", (d,), std=0.0)
        last = cfg.head_mlp_layers - 1
        add(f"{head}.w{last}", (d, width))
        add(f"{head}.b{last}", (width,), std=0.0)
    add("out_w", (d, v))
    add("out_b", (v,), std=0.0)
    return spec


_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


def dataclass_from_meta(cls, values, what: str, source: str | Path):
    """`cls(**values)` for a dict from a file, config text or flags; every malformed value is a DataError."""
    if not isinstance(values, dict):
        raise DataError(f"{what} in {source} is not a mapping")
    unknown = sorted(set(values) - set(cls.__dataclass_fields__))
    if unknown:
        raise DataError(f"unknown {what} keys in {source}: {', '.join(map(repr, unknown))}")
    for name, value in values.items():
        kind = cls.__dataclass_fields__[name].type
        typed = isinstance(value, _FIELD_TYPES[kind]) and not isinstance(value, bool)
        if not typed or (isinstance(value, float) and not math.isfinite(value)):
            raise DataError(f"bad {what} in {source}: {name} = {value!r} is not a valid {kind}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad {what} in {source}: {exc}") from None


class DebuggerModel:
    def __init__(self, config: ModelConfig, vocab: Vocab, seed: int = 0):
        self._bind(config, vocab)
        rng = np.random.default_rng(seed)
        dtype = config.np_dtype
        for name, shape, std in param_spec(config):
            if std == 0.0:
                data = np.zeros(shape, dtype=dtype)
            else:
                data = (rng.normal(size=shape) * std).astype(dtype)
            self.params[name] = Tensor(data, requires_grad=True)

    def _bind(self, config: ModelConfig, vocab: Vocab) -> None:
        if len(vocab) != config.vocab_size:
            raise ValueError("config.vocab_size must match the vocabulary")
        self.config = config
        self.vocab = vocab
        self.params: dict[str, Tensor] = {}

    # --- parameters ---------------------------------------------------------

    @property
    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    # --- transformer pieces ---------------------------------------------------

    def _project(self, x: Tensor, prefix: str, *weights: str) -> list[Tensor]:
        """(B, T, D) projections of `x` by each weight `prefix + w`."""
        return [ad.linear(x, self.params[prefix + w]) for w in weights]

    def _attend(self, q: Tensor, k: Tensor, v: Tensor, prefix: str, keep: np.ndarray | None) -> Tensor:
        """Multi-head attention of (B, T, D) projections, then the output projection.

        `keep` is (B, 1, T_q or 1, T_kv) with 1 = attend; None attends to all.
        """
        return ad.linear(ad.attention(q, k, v, self.config.n_heads, keep), self.params[f"{prefix}wo"])

    def _feed_forward(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        hidden = ad.gelu(ad.linear(x, p[f"{prefix}w1"], p[f"{prefix}b1"]))
        return ad.linear(hidden, p[f"{prefix}w2"], p[f"{prefix}b2"])

    # --- encoder ----------------------------------------------------------------

    def encode_ids(self, ids_batch: Sequence[Sequence[int]]) -> EncoderOutput:
        """Run the encoder over raw id sequences (CLS is prepended here)."""
        cfg = self.config
        budget = cfg.max_src_len - 1  # one slot reserved for the pooled state
        rows, truncated = [], []
        for ids in ids_batch:
            ids = list(ids)
            truncated.append(len(ids) > budget)
            rows.append([Vocab.CLS] + ids[:budget])
        token_counts = [len(r) - 1 for r in rows]
        s = max(len(r) for r in rows)
        b = len(rows)
        ids_arr = np.full((b, s), Vocab.PAD, dtype=np.int64)
        keep = np.zeros((b, s), dtype=cfg.np_dtype)
        for i, r in enumerate(rows):
            ids_arr[i, : len(r)] = r
            keep[i, : len(r)] = 1.0

        # Sentinels share the position of the token that follows them, so
        # every real token keeps the position it has in plain mode.
        real = (ids_arr != Vocab.BUG_OPEN) & (ids_arr != Vocab.BUG_CLOSE)
        pos_ids = np.cumsum(real, axis=1) - real
        x = ad.embedding_lookup(self.params["src_embed"], ids_arr)
        x = ad.add(x, ad.embedding_lookup(self.params["pos_enc"], pos_ids))
        attn_keep = keep.reshape(b, 1, 1, s)
        for i in range(cfg.n_layers_enc):
            q, k, v = self._project(ad.layer_norm(x), f"enc{i}.", "wq", "wk", "wv")
            x = ad.add(x, self._attend(q, k, v, f"enc{i}.", attn_keep))
            x = ad.add(x, self._feed_forward(ad.layer_norm(x), f"enc{i}."))
        memory = ad.layer_norm(x)
        return EncoderOutput(
            memory=memory,
            e_cls=ad.slice_(memory, (slice(None), 0)),
            e_tokens=ad.slice_(memory, (slice(None), slice(1, None))),
            pad_mask=keep,
            token_counts=token_counts,
            truncated=truncated,
        )

    # --- heads --------------------------------------------------------------------

    def _head(self, x: Tensor, name: str) -> Tensor:
        for j in range(self.config.head_mlp_layers):
            x = ad.linear(x, self.params[f"{name}.w{j}"], self.params[f"{name}.b{j}"])
            if j + 1 < self.config.head_mlp_layers:
                x = ad.gelu(x)
        return x

    def bug_logits(self, enc: EncoderOutput) -> Tensor:
        """(B, S-1) per-token bug logits over the token positions."""
        out = self._head(enc.e_tokens, "head_bug")
        return ad.reshape(out, out.shape[:-1])

    def type_logits(self, enc: EncoderOutput) -> Tensor:
        """(B, n_bug_types) from the pooled slot."""
        return self._head(enc.e_cls, "head_type")

    # --- decoder --------------------------------------------------------------------

    def decoder_logits(self, enc: EncoderOutput, tgt_ids: np.ndarray, tgt_keep: np.ndarray) -> Tensor:
        """(B, T, V) next-token logits under teacher forcing."""
        cfg = self.config
        b, t = tgt_ids.shape
        if t > cfg.max_tgt_len:
            raise ValueError(f"target length {t} exceeds max_tgt_len {cfg.max_tgt_len}")
        causal = np.tril(np.ones((t, t), dtype=cfg.np_dtype))
        self_keep = causal.reshape(1, 1, t, t) * tgt_keep.reshape(b, 1, 1, t)
        return self._decode(tgt_ids, 0, self._cross(enc), self_keep)

    def _cross(self, enc: EncoderOutput) -> tuple[list[list[Tensor]], np.ndarray]:
        """Each decoder layer's cross-attention keys and values, and their mask."""
        b, s = enc.pad_mask.shape
        kv = [self._project(enc.memory, f"dec{i}.cross_", "wk", "wv") for i in range(self.config.n_layers_dec)]
        return kv, enc.pad_mask.reshape(b, 1, 1, s)

    def _decode(
        self,
        tgt_ids: np.ndarray,
        start: int,
        cross: tuple[list[list[Tensor]], np.ndarray],
        self_keep: np.ndarray | None,
        cache: list[tuple[Tensor, Tensor] | None] | None = None,
    ) -> Tensor:
        """(B, T, V) logits for target ids at positions `start`, `start+1`, ...

        With `cache`, each layer's (B, T, D) self-attention keys and values
        are appended to that layer's cached ones and attended in full, so a
        greedy step pushes only its new position through the decoder.
        """
        cfg = self.config
        cross_kv, cross_keep = cross
        t = tgt_ids.shape[1]
        x = ad.embedding_lookup(self.params["tgt_embed"], tgt_ids)
        x = ad.add(x, ad.slice_(self.params["pos_dec"], slice(start, start + t)))
        for i in range(cfg.n_layers_dec):
            q, k, v = self._project(ad.layer_norm(x), f"dec{i}.self_", "wq", "wk", "wv")
            if cache is not None:
                if cache[i] is not None:
                    k = ad.concat([cache[i][0], k], axis=1)
                    v = ad.concat([cache[i][1], v], axis=1)
                cache[i] = (k, v)
            x = ad.add(x, self._attend(q, k, v, f"dec{i}.self_", self_keep))
            q = ad.linear(ad.layer_norm(x), self.params[f"dec{i}.cross_wq"])
            x = ad.add(x, self._attend(q, *cross_kv[i], f"dec{i}.cross_", cross_keep))
            x = ad.add(x, self._feed_forward(ad.layer_norm(x), f"dec{i}."))
        return ad.linear(ad.layer_norm(x), self.params["out_w"], self.params["out_b"])

    def generate(self, enc: EncoderOutput, max_len: int | None = None) -> list[int]:
        """Greedy decode for a single-row encoder output; END is stripped.

        Incremental: cross-attention keys and values are projected from the
        encoder memory once, and each step feeds one new position against
        the cached self-attention keys and values. Call it with no tape.
        """
        if enc.memory.shape[0] != 1:
            raise ValueError("generate expects a batch of one")
        cfg = self.config
        limit = min(max_len or cfg.max_tgt_len, cfg.max_tgt_len) - 1
        cross = self._cross(enc)
        cache: list[tuple[Tensor, Tensor] | None] = [None] * cfg.n_layers_dec
        out: list[int] = []
        nxt = Vocab.START
        for pos in range(max(0, limit)):
            logits = self._decode(np.array([[nxt]], dtype=np.int64), pos, cross, None, cache)
            nxt = int(np.argmax(_finite(logits.data[0, -1], "decoder logits")))
            if nxt == Vocab.END:
                break
            out.append(nxt)
        return out

    # --- record-level API ----------------------------------------------------------

    def input_ids(self, stream: TokenStream, span: tuple[int, int] | None = None) -> list[int]:
        """Encoder input ids of lexed tokens; with `span`, sentinels bracket tokens [lo, hi)."""
        ids = self.vocab.encode(stream.texts())
        return ids if span is None else bracket(ids, span, Vocab.BUG_OPEN, Vocab.BUG_CLOSE)

    def target_ids(self, record: BugRecord) -> list[int]:
        """Decoder supervision: the correct snippet's token ids plus END."""
        try:
            texts = lex(record.snippet_correct).texts()
        except DataError:
            texts = record.snippet_correct.split()
        if not texts:
            texts = [record.snippet_correct.strip() or "<empty>"]
        ids = self.vocab.encode(list(texts))
        return ids[: self.config.max_tgt_len - 1] + [Vocab.END]

    def predict_record(self, record: BugRecord, given_location: bool = False) -> RecordPrediction:
        return self.predict_source(record.buggy_code, label_span(record) if given_location else None)

    def predict_source(self, code: str, span: tuple[int, int] | None = None) -> RecordPrediction:
        """Encode, score tokens and type, then decode a fix for source text.

        With `span`, sentinels bracket the known bug tokens [lo, hi). The
        generation budget is `3 * max(1, n) + 2` tokens, capped at
        `max_tgt_len`: `n` is `hi - lo` with a span, and otherwise the count
        of tokens the model itself flags (probability >= 0.5). Non-finite
        scores or step logits (weights that are NaN, inf or overflow) raise
        DataError.
        """
        stream = lex(code)
        ids = self.input_ids(stream, span)
        with np.errstate(over="ignore", invalid="ignore"):
            enc = self.encode_ids([ids])
            bug_row = _finite(self.bug_logits(enc).data[0].astype(np.float64), "bug scores")
            probs_row = 1.0 / (1.0 + np.exp(-bug_row))
            n_real = enc.token_counts[0]
            token_probs = probs_row[:n_real][~np.isin(ids[:n_real], (Vocab.BUG_OPEN, Vocab.BUG_CLOSE))]
            type_row = _finite(self.type_logits(enc).data[0].astype(np.float64), "type scores")
            n_flagged = span[1] - span[0] if span is not None else int(np.sum(token_probs >= 0.5))
            budget = min(3 * max(1, n_flagged) + 2, self.config.max_tgt_len)
            gen_ids = self.generate(enc, max_len=budget)
        return RecordPrediction(
            token_probs=token_probs,
            type_logits=type_row,
            generated_text=self._decode_words(gen_ids),
            generated_ids=gen_ids,
            truncated=enc.truncated[0],
            stream=stream,
        )

    def _decode_words(self, gen_ids: list[int]) -> str:
        words = [
            "?" if i == Vocab.UNK else self.vocab.id_to_token[i]
            for i in gen_ids
            if i not in (Vocab.PAD, Vocab.CLS, Vocab.START, Vocab.END, Vocab.BUG_OPEN, Vocab.BUG_CLOSE)
        ]
        return " ".join(words)

    # --- persistence ------------------------------------------------------------------

    def save(self, path: str | Path, tensors: dict | None = None, meta: dict | None = None) -> None:
        """Write the model file; a checkpoint adds its own `tensors` and `meta`."""
        meta = {"config": asdict(self.config), "vocab": self.vocab.id_to_token, **(meta or {})}
        save_tensors(path, {**{k: p.data for k, p in self.params.items()}, **(tensors or {})}, meta=meta)

    @classmethod
    def load(cls, path: str | Path) -> "DebuggerModel":
        tensors, meta = load_tensors(path)
        return cls.restore(meta, tensors, path)

    @classmethod
    def restore(cls, meta: dict, tensors: dict[str, np.ndarray], source: str | Path) -> "DebuggerModel":
        """The model a container holds, from its metadata and tensors.

        Draws no random numbers: every parameter is the file's array itself,
        in the config's dtype, so a view stays a view and stays writable.
        """
        for key in ("config", "vocab"):
            if key not in meta:
                raise DataError(f"missing model metadata {key!r} in {source}")
        config = dataclass_from_meta(ModelConfig, meta["config"], "model config", source)
        model = cls.__new__(cls)
        try:
            model._bind(config, Vocab(meta["vocab"]))
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad vocabulary in {source}: {exc}") from None
        for name, shape, _ in param_spec(config):
            if name not in tensors:
                raise DataError(f"missing tensor {name!r} in {source}")
            if tensors[name].shape != shape:
                raise DataError(f"shape mismatch for {name!r} in {source}")
            model.params[name] = Tensor(tensors[name].astype(config.np_dtype, copy=False), requires_grad=True)
        return model


def _finite(row: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(row).all():
        raise DataError(f"the model produced non-finite {what}; its weights are unusable")
    return row


def bracket(seq: Sequence, span: tuple[int, int], open_, close) -> list:
    """`seq` with `open_` inserted before index `lo` and `close` before index `hi`."""
    lo, hi = span
    return [*seq[:lo], open_, *seq[lo:hi], close, *seq[hi:]]


def label_span(record: BugRecord) -> tuple[int, int]:
    """[lo, hi) hull from the first to the last flagged token; (0, 0) when none is."""
    flagged = [i for i, y in enumerate(record.token_labels) if y == 1]
    return (flagged[0], flagged[-1] + 1) if flagged else (0, 0)


def line_scores(token_probs: np.ndarray, stream: TokenStream) -> dict[int, float]:
    """Per-line suspicion: max token probability over each covered line."""
    scores: dict[int, float] = {}
    for prob, token in zip(token_probs, stream.tokens):
        line = token.line
        if line not in scores or prob > scores[line]:
            scores[line] = float(prob)
    return scores
