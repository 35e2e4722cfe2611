"""Two-stage cross-modal masked language model.

A unimodal pre-LN transformer contextualizes the token sequence; its output
is concatenated with visual slots (projected region features plus a
retrieval-rank embedding, or a single trainable placeholder vector when no
image is attached) and run through a second transformer with full joint
attention. A linear head over text positions predicts masked tokens; a
linear regression head over visual slots reconstructs masked region
features.

Text sequences are `[cls] tok tok ...`; the classification vector is read at
position 0.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from . import tensor as T
from .index import ByteReader
from .tensor import ShapeError, Tensor
from .vocab import MASKED_ID, N_RESERVED, PAD_ID

CHECKPOINT_MAGIC = b"GLMC"
CHECKPOINT_VERSION = 1

NEG_INF = -1e9

ParamSpec = Tuple[str, Tuple[int, ...], Optional[float]]


@dataclass
class ModelConfig:
    vocab_size: int
    d: int = 128
    d_v: int = 64
    n_layers_text: int = 2
    n_layers_cross: int = 2
    n_heads: int = 4
    max_len: int = 64
    k_max: int = 16
    n_regions: int = 1   # regions per image: the feature store's n_regions
    mask_rate: float = 0.15
    p_norm: float = 2.0
    l1_coeff: float = 1e-4
    n_labels: int = 0
    freeze_text: bool = False

    def __post_init__(self):
        if self.d < 1 or self.d_v < 1 or self.n_heads < 1:
            raise ValueError(f"d, d_v and n_heads must be >= 1, got {self.d}, {self.d_v} "
                             f"and {self.n_heads}")
        if self.d % self.n_heads != 0:
            raise ValueError(f"d ({self.d}) must be divisible by n_heads ({self.n_heads})")
        if self.max_len < 2:
            raise ValueError(f"max_len must be >= 2, got {self.max_len}")
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError(f"mask_rate must be in (0, 1), got {self.mask_rate}")
        if self.vocab_size <= N_RESERVED:
            raise ValueError(f"vocab_size must exceed {N_RESERVED} reserved ids")
        if self.k_max < 1 or self.n_regions < 1:
            raise ValueError("k_max and n_regions must be >= 1")
        if self.p_norm <= 0:
            raise ValueError(f"p_norm must be positive, got {self.p_norm}")


@dataclass
class MaskedBatch:
    """One training/eval batch after masking.

    ``token_ids`` and ``regions`` are the corrupted model inputs; the
    ``original_*`` twins are the loss targets. ``regions`` is None for a
    pure placeholder batch (one placeholder slot per example). Otherwise
    ``image_slots`` marks the visual slots that hold an image, None meaning
    all of them; the model works out the rest of the slot layout itself
    (see ``CrossModalModel._visual_slots``).
    """
    token_ids: np.ndarray                     # (B, L) int64
    token_mask_flags: np.ndarray              # (B, L) bool
    original_tokens: np.ndarray               # (B, L) int64
    regions: Optional[np.ndarray] = None      # (B, R, d_v) float32
    original_regions: Optional[np.ndarray] = None
    region_mask_flags: Optional[np.ndarray] = None   # (B, R) bool
    image_slots: Optional[np.ndarray] = None         # (B, R) bool
    heads: Tuple[str, ...] = ("lm", "region")   # the outputs the caller reads

    @property
    def batch_size(self) -> int:
        return self.token_ids.shape[0]


# -- masking ------------------------------------------------------------------


def mask_tokens(token_ids: np.ndarray, rate: float, rng: np.random.Generator,
                vocab_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """BERT-style corruption: select positions at ``rate``, then 80/10/10.

    Of the selected positions, 80% become [masked], 10% a random real token,
    10% stay unchanged; all selected positions get flag=1. Sequences where
    nothing was selected are redrawn so every row has at least one target.
    Reserved ids ([pad], [cls], [sep]) are never candidates.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    ids = np.asarray(token_ids)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ShapeError(f"mask_tokens expects (B, L) ids, got {ids.shape}")
    maskable = ids >= N_RESERVED
    flags = (rng.random(ids.shape) < rate) & maskable
    todo = np.flatnonzero(maskable.any(1) & ~flags.any(1))
    rows, n = maskable[todo].tolist(), 0
    while n < len(todo):
        # each row left takes one more draw at least, so a block of one draw per row left
        # is used up exactly, in the order that redrawing one row at a time would use it
        block = rng.random((len(todo) - n, ids.shape[1])) < rate
        for drawn, hits in zip(block, block.tolist()):
            if any(map(operator.and_, hits, rows[n])):
                flags[todo[n]] = drawn
                n += 1
    flags &= maskable
    corrupted = ids.copy()
    roll = rng.random(ids.shape)
    use_mask = flags & (roll < 0.8)
    use_random = flags & (roll >= 0.8) & (roll < 0.9)
    corrupted[use_mask] = MASKED_ID
    n_rand = int(use_random.sum())
    if n_rand:
        corrupted[use_random] = rng.integers(N_RESERVED, vocab_size, size=n_rand)
    return corrupted, flags


class Masks(NamedTuple):
    """A stream's masks, or some rows of them; None leaves that side whole.
    ``tokens`` and ``token_flags`` come from ``mask_tokens``; pad columns are
    never flagged, so a batch trims them to its longest row exactly.
    ``region_flags`` holds one flag per region slot of the paired image."""
    tokens: Optional[np.ndarray] = None
    token_flags: Optional[np.ndarray] = None
    region_flags: Optional[np.ndarray] = None

    def rows(self, picks) -> "Masks":
        return Masks(*(None if a is None else a[picks] for a in self))


def mask_stream(ids: np.ndarray, cfg: ModelConfig, text_rng: Optional[np.random.Generator],
                region_rng: Optional[np.random.Generator], n_slots: int = 0) -> Masks:
    """The masks of a whole stream of padded (N, L) ids, drawn once in row
    order: ``mask_tokens`` if ``text_rng`` is given (else the ids, unflagged),
    and one flag per region slot at ``cfg.mask_rate`` if ``region_rng`` is."""
    tokens, flags = (mask_tokens(ids, cfg.mask_rate, text_rng, cfg.vocab_size)
                     if text_rng is not None else (ids, np.zeros(ids.shape, dtype=bool)))
    regions = None if region_rng is None else region_rng.random((len(ids), n_slots)) < cfg.mask_rate
    return Masks(tokens, flags, regions)


# -- the model ----------------------------------------------------------------


def _linear_specs(prefix: str, n_in: int, n_out: int) -> List[ParamSpec]:
    return [(f"{prefix}.W", (n_in, n_out), None), (f"{prefix}.b", (n_out,), 0.0)]


def _ln_specs(prefix: str, d: int) -> List[ParamSpec]:
    return [(f"{prefix}.g", (d,), 1.0), (f"{prefix}.b", (d,), 0.0)]


def _block_specs(prefix: str, d: int) -> List[ParamSpec]:
    return (_ln_specs(f"{prefix}.ln1", d) + _linear_specs(f"{prefix}.attn.qkv", d, 3 * d)
            + _linear_specs(f"{prefix}.attn.out", d, d) + _ln_specs(f"{prefix}.ln2", d)
            + _linear_specs(f"{prefix}.mlp.fc1", d, 4 * d)
            + _linear_specs(f"{prefix}.mlp.fc2", 4 * d, d))


def param_specs(c: ModelConfig) -> List[ParamSpec]:
    """(name, shape, fill) of every parameter of a model with config ``c``,
    in construction order; fill None means N(0, 0.02) draws, else a constant."""
    specs = [("token_embeddings", (c.vocab_size, c.d), None),
             ("position_embeddings", (c.max_len, c.d), None)]
    for i in range(c.n_layers_text):
        specs += _block_specs(f"text.{i}", c.d)
    specs += _linear_specs("region_projection", c.d_v, c.d)
    specs += [("placeholder", (c.d,), None), ("rank_embeddings", (c.k_max, c.d), None)]
    for i in range(c.n_layers_cross):
        specs += _block_specs(f"cross.{i}", c.d)
    specs += _ln_specs("final_ln", c.d) + _linear_specs("lm_head", c.d, c.vocab_size)
    specs += _linear_specs("region_head", c.d, c.d_v)
    if c.n_labels > 0:
        specs += _linear_specs("cls_head", c.d, c.n_labels)
    return specs


class CrossModalModel:
    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params: "OrderedDict[str, Tensor]" = OrderedDict()
        self._init_params(param_specs(config), np.random.default_rng(seed))
        if config.freeze_text:
            self.set_text_encoder_frozen(True)

    def _init_params(self, specs: List[ParamSpec], rng: np.random.Generator) -> None:
        for name, shape, fill in specs:
            data = rng.normal(0.0, 0.02, size=shape) if fill is None else np.full(shape, fill)
            self.params[name] = Tensor(data.astype(self.dtype), requires_grad=True, name=name)

    def add_cls_head(self, n_labels: int, seed: int = 0) -> None:
        self.config.n_labels = n_labels
        self._init_params(_linear_specs("cls_head", self.config.d, n_labels),
                          np.random.default_rng(seed))

    # freezing

    def text_encoder_param_names(self) -> List[str]:
        return [n for n in self.params if n.startswith("text.")]

    def set_text_encoder_frozen(self, frozen: bool) -> None:
        self.config.freeze_text = bool(frozen)
        for name in self.text_encoder_param_names():
            self.params[name].requires_grad = not frozen

    def trainable_params(self) -> Dict[str, Tensor]:
        return {n: p for n, p in self.params.items() if p.requires_grad}

    # forward pieces

    def _linear(self, prefix: str, x: Tensor) -> Tensor:
        return T.linear(x, self.params[f"{prefix}.W"], self.params[f"{prefix}.b"])

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return T.layernorm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _encoder_block(self, prefix: str, x: Tensor, bias: Optional[np.ndarray],
                       rows: Optional[int] = None, picks: Optional[np.ndarray] = None) -> Tensor:
        """Pre-LN block; with ``picks``, just its output rows at ``picks`` of x viewed as
        (-1, d), all at positions below ``rows``, the only queries that attend."""
        context = T.attention(self._linear(f"{prefix}.attn.qkv", self._ln(f"{prefix}.ln1", x)),
                              bias, self.config.n_heads, rows)
        if picks is not None:
            t = x.shape[1]
            x = T.take_rows(x, picks)
            context = T.take_rows(context, picks // t * context.shape[1] + picks % t)
        x = x + self._linear(f"{prefix}.attn.out", context)
        hidden = T.gelu(self._linear(f"{prefix}.mlp.fc1", self._ln(f"{prefix}.ln2", x)))
        return x + self._linear(f"{prefix}.mlp.fc2", hidden)

    @staticmethod
    def _attn_bias(valid: np.ndarray, dtype) -> Optional[np.ndarray]:
        """(B, S) validity -> additive (B, 1, 1, S) key bias, or None if all valid."""
        if valid.all():
            return None
        return np.where(valid[:, None, None, :], 0.0, NEG_INF).astype(dtype)

    def _visual_slots(self, batch: MaskedBatch) -> Tuple[Tensor, np.ndarray]:
        """-> (the (B, R, d) visual slots, their (B, R) validity). Image j fills slots
        j*n_regions .. (j+1)*n_regions-1: slot s shows its projected regions plus rank
        embedding s // n_regions, and is valid iff ``batch.image_slots`` marks it. A row
        with no image slot, and a batch without regions, shows the placeholder in slot 0."""
        c = self.config
        b_sz = batch.batch_size
        placeholder = self.params["placeholder"]
        if batch.regions is None:
            vis = placeholder.reshape(1, 1, c.d) * Tensor(np.ones((b_sz, 1, 1), dtype=self.dtype))
            return vis, np.ones((b_sz, 1), dtype=bool)
        regions = np.asarray(batch.regions, dtype=self.dtype)
        r = regions.shape[1]
        if regions.shape[2] != c.d_v:
            raise ShapeError(f"region feature dim {regions.shape[2]} != d_v {c.d_v}")
        valid = np.broadcast_to(True if batch.image_slots is None else batch.image_slots,
                                (b_sz, r))   # rejects image slots of another shape
        # (B, R) rank ids, not an (R,) row added across the batch: the rank
        # gradients then sum in one order at every n_regions
        ranks = np.broadcast_to(np.arange(r) // c.n_regions, (b_sz, r))
        vis = self._linear("region_projection", Tensor(regions)) \
            + T.embedding(self.params["rank_embeddings"], ranks)
        ph = ~valid.any(axis=1, keepdims=True) & (np.arange(r) == 0)   # the placeholder slots
        if ph.any():
            w = ph[:, :, None].astype(self.dtype)
            vis = vis * Tensor(1.0 - w) + placeholder.reshape(1, 1, c.d) * Tensor(w)
        return vis, valid | ph

    def forward(self, batch: MaskedBatch) -> Tuple[Optional[Tensor], Optional[Tensor], Tensor]:
        """-> (token_logits (M, V) at the M flagged text positions, region_preds (N, d_v)
        at the N flagged slots, both in row-major order, cls_vector (B, d)); a head not in
        ``batch.heads`` gives None. The last cross block computes just these rows; its keys
        and values cover every row, its queries the text rows without "region" and [cls]
        alone without either head."""
        c = self.config
        ids = np.asarray(batch.token_ids, dtype=np.int64)
        b_sz, length = ids.shape
        if length > c.max_len:
            raise ShapeError(f"sequence length {length} exceeds max_len {c.max_len}")

        text_valid = ids != PAD_ID
        x = T.embedding(self.params["token_embeddings"], ids) \
            + self.params["position_embeddings"][:length].reshape(1, length, c.d)
        text_bias = self._attn_bias(text_valid, self.dtype)
        for i in range(c.n_layers_text):
            x = self._encoder_block(f"text.{i}", x, text_bias)

        vis, slot_valid = self._visual_slots(batch)
        r = vis.shape[1]
        joint = T.concat([x, vis], axis=1)
        joint_bias = self._attn_bias(np.concatenate([text_valid, slot_valid], axis=1), self.dtype)

        lm, region = "lm" in batch.heads, "region" in batch.heads
        stride = length + r   # picks: every row's [cls], then the flagged rows read
        picks = [np.arange(b_sz) * stride]
        if lm:   # broadcast_to rejects flags of another shape
            b, t = np.nonzero(np.broadcast_to(batch.token_mask_flags, (b_sz, length)))
            picks.append(b * stride + t)
        if region and batch.region_mask_flags is not None:
            b, t = np.nonzero(np.broadcast_to(batch.region_mask_flags, (b_sz, r)))
            picks.append(b * stride + length + t)
        n_lm = len(picks[1]) if lm else 0
        picks = np.concatenate(picks)
        for i in range(c.n_layers_cross - 1):
            joint = self._encoder_block(f"cross.{i}", joint, joint_bias)
        joint = self._encoder_block(f"cross.{c.n_layers_cross - 1}", joint, joint_bias,
                                    None if region else length if lm else 1, picks) \
            if c.n_layers_cross else T.take_rows(joint, picks)
        joint = self._ln("final_ln", joint)

        token_logits = self._linear("lm_head", joint[b_sz:b_sz + n_lm]) if lm else None
        region_preds = self._linear("region_head", joint[b_sz + n_lm:]) if region else None
        return token_logits, region_preds, joint[:b_sz]

    def cls_logits(self, cls_vec: Tensor) -> Tensor:
        if "cls_head.W" not in self.params:
            raise ValueError("model has no classification head; call add_cls_head first")
        return self._linear("cls_head", cls_vec)


# -- losses & metrics ---------------------------------------------------------


def masked_lm_loss(token_logits: Tensor, original_tokens: np.ndarray,
                   flags: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``forward``'s logit rows against the tokens at ``flags``."""
    flags = np.asarray(flags, dtype=bool)
    return T.masked_cross_entropy(token_logits, np.asarray(original_tokens)[flags])


def masked_region_loss(region_preds: Optional[Tensor], original_regions,
                       flags, model: CrossModalModel) -> Tensor:
    """Mean p-norm error of ``forward``'s region rows, plus L1 on the head; exactly
    zero (constant, no gradient) when no region is masked, as in a placeholder batch."""
    if region_preds is None or flags is None or not np.asarray(flags).any():
        return Tensor(np.asarray(0.0, dtype=model.dtype))
    targets = np.asarray(original_regions)[np.asarray(flags, dtype=bool)]
    loss = T.masked_lp_loss(region_preds, targets, model.config.p_norm)
    if model.config.l1_coeff > 0:
        loss = loss + T.l1_norm(model.params["region_head.W"]) * model.config.l1_coeff
    return loss


def masked_ce_stats(token_logits: np.ndarray, original_tokens: np.ndarray,
                    flags: np.ndarray) -> Tuple[float, int]:
    """(summed cross-entropy, count) of ``forward``'s logit rows, in float64."""
    targets = np.asarray(original_tokens)[np.asarray(flags, dtype=bool)].astype(np.int64)
    if targets.size == 0:
        return 0.0, 0
    losses, _ = kernels.active.masked_ce_forward(np.ascontiguousarray(token_logits), targets)
    return float(losses.astype(np.float64).sum()), int(targets.size)


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(model: CrossModalModel, path) -> None:
    config_json = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(config_json)))
        fh.write(config_json)
        fh.write(struct.pack("<I", len(model.params)))
        for name, p in model.params.items():
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<B", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> CrossModalModel:
    reader = ByteReader(path)
    reader.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    (config_len,) = reader.unpack("<I", "config length")
    raw_config = reader.take(config_len, "config")
    try:
        config = ModelConfig(**json.loads(bytes(raw_config)))
    except (TypeError, ValueError) as exc:  # not a JSON object, or unknown or missing keys
        raise reader.error(f"checkpoint config does not fit ModelConfig: {exc}",
                           reader.pos - config_len) from None
    need = 4 * sum(math.prod(shape) for _name, shape, _fill in param_specs(config))
    left = len(reader.data) - reader.pos
    if need > left:
        raise reader.error(f"unexpected end of file: the config needs {need} bytes of "
                           f"parameters, {left} follow it")
    model = CrossModalModel(config, seed=0)
    (n_params,) = reader.unpack("<I", "parameter count")
    seen = set()
    for _ in range(n_params):
        start = reader.pos
        name = reader.text("parameter name")
        (ndim,) = reader.unpack("<B", f"ndim of {name!r}")
        shape = reader.unpack(f"<{ndim}I", f"shape of {name!r}")
        if name not in model.params:
            raise reader.error(f"checkpoint parameter {name!r} unknown to this config", start)
        if model.params[name].data.shape != shape:
            raise reader.error(f"parameter {name!r}: checkpoint shape {shape} != model shape "
                               f"{model.params[name].data.shape}", start)
        data = reader.take(4 * model.params[name].data.size, f"data of {name!r}")
        model.params[name].data = np.frombuffer(data, dtype="<f4").reshape(shape).copy()
        seen.add(name)
    missing = set(model.params) - seen
    if missing:
        raise reader.error(f"checkpoint missing parameters: {sorted(missing)}")
    reader.done()
    if config.freeze_text:
        model.set_text_encoder_frozen(True)
    return model
