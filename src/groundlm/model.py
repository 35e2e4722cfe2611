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
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import kernels
from . import tensor as T
from .tensor import ShapeError, Tensor
from .vocab import MASKED_ID, N_RESERVED, PAD_ID

CHECKPOINT_MAGIC = b"GLMC"
CHECKPOINT_VERSION = 1

NEG_INF = -1e9


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
    n_regions: int = 1
    mask_rate: float = 0.15
    p_norm: float = 2.0
    l1_coeff: float = 1e-4
    n_labels: int = 0
    freeze_text: bool = False

    def __post_init__(self):
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
    pure placeholder batch (one placeholder slot per example); in mixed
    batches ``placeholder_slots`` marks visual slots that use the
    placeholder vector and ``attention_pad_mask`` carries slot validity for
    the joint sequence `[text; visual]`.
    """
    token_ids: np.ndarray                     # (B, L) int64
    token_mask_flags: np.ndarray              # (B, L) bool
    original_tokens: np.ndarray               # (B, L) int64
    regions: Optional[np.ndarray] = None      # (B, R, d_v) float32
    original_regions: Optional[np.ndarray] = None
    region_mask_flags: Optional[np.ndarray] = None   # (B, R) bool
    rank_ids: Optional[np.ndarray] = None            # (B, R) int64
    placeholder_slots: Optional[np.ndarray] = None   # (B, R) bool
    attention_pad_mask: Optional[np.ndarray] = None  # (B, L+R) bool

    @property
    def batch_size(self) -> int:
        return self.token_ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.token_ids.shape[1]

    @property
    def n_visual_slots(self) -> int:
        return 1 if self.regions is None else self.regions.shape[1]


# -- masking ------------------------------------------------------------------


def mask_tokens(token_ids: np.ndarray, rate: float, rng: np.random.Generator,
                vocab_size: int,
                maskable: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
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
    if maskable is None:
        maskable = ids >= N_RESERVED
    flags = (rng.random(ids.shape) < rate) & maskable
    for b in range(ids.shape[0]):
        if maskable[b].any():
            while not flags[b].any():
                flags[b] = (rng.random(ids.shape[1]) < rate) & maskable[b]
    corrupted = ids.copy()
    roll = rng.random(ids.shape)
    use_mask = flags & (roll < 0.8)
    use_random = flags & (roll >= 0.8) & (roll < 0.9)
    corrupted[use_mask] = MASKED_ID
    n_rand = int(use_random.sum())
    if n_rand:
        corrupted[use_random] = rng.integers(N_RESERVED, vocab_size, size=n_rand)
    return corrupted, flags


def mask_regions(regions: np.ndarray, rate: float,
                 rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Zero out region rows selected at ``rate``; returns (corrupted, flags)."""
    regions = np.asarray(regions)
    if regions.ndim < 2 or regions.shape[-1] == 0 or regions[..., 0].size == 0:
        raise ShapeError(f"mask_regions expects at least one region row, got {regions.shape}")
    flags = rng.random(regions.shape[:-1]) < rate
    corrupted = regions.copy()
    corrupted[flags] = 0.0
    return corrupted, flags


# -- the model ----------------------------------------------------------------


class CrossModalModel:
    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params: "OrderedDict[str, Tensor]" = OrderedDict()
        rng = np.random.default_rng(seed)
        c = config

        self._matrix("token_embeddings", (c.vocab_size, c.d), rng)
        self._matrix("position_embeddings", (c.max_len, c.d), rng)
        for i in range(c.n_layers_text):
            self._block(f"text.{i}", rng)
        self._matrix("region_projection.W", (c.d_v, c.d), rng)
        self._zeros("region_projection.b", (c.d,))
        self._matrix("placeholder", (c.d,), rng)
        self._matrix("rank_embeddings", (c.k_max, c.d), rng)
        for i in range(c.n_layers_cross):
            self._block(f"cross.{i}", rng)
        self._ones("final_ln.g", (c.d,))
        self._zeros("final_ln.b", (c.d,))
        self._matrix("lm_head.W", (c.d, c.vocab_size), rng)
        self._zeros("lm_head.b", (c.vocab_size,))
        self._matrix("region_head.W", (c.d, c.d_v), rng)
        self._zeros("region_head.b", (c.d_v,))
        if c.n_labels > 0:
            self._matrix("cls_head.W", (c.d, c.n_labels), rng)
            self._zeros("cls_head.b", (c.n_labels,))
        if c.freeze_text:
            self.set_text_encoder_frozen(True)

    # parameter construction

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data.astype(self.dtype), requires_grad=True, name=name)

    def _matrix(self, name: str, shape, rng) -> None:
        self._add(name, rng.normal(0.0, 0.02, size=shape))

    def _zeros(self, name: str, shape) -> None:
        self._add(name, np.zeros(shape))

    def _ones(self, name: str, shape) -> None:
        self._add(name, np.ones(shape))

    def _block(self, prefix: str, rng) -> None:
        d = self.config.d
        self._ones(f"{prefix}.ln1.g", (d,))
        self._zeros(f"{prefix}.ln1.b", (d,))
        self._matrix(f"{prefix}.attn.qkv.W", (d, 3 * d), rng)
        self._zeros(f"{prefix}.attn.qkv.b", (3 * d,))
        self._matrix(f"{prefix}.attn.out.W", (d, d), rng)
        self._zeros(f"{prefix}.attn.out.b", (d,))
        self._ones(f"{prefix}.ln2.g", (d,))
        self._zeros(f"{prefix}.ln2.b", (d,))
        self._matrix(f"{prefix}.mlp.fc1.W", (d, 4 * d), rng)
        self._zeros(f"{prefix}.mlp.fc1.b", (4 * d,))
        self._matrix(f"{prefix}.mlp.fc2.W", (4 * d, d), rng)
        self._zeros(f"{prefix}.mlp.fc2.b", (d,))

    def add_cls_head(self, n_labels: int, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.config.n_labels = n_labels
        self._matrix("cls_head.W", (self.config.d, n_labels), rng)
        self._zeros("cls_head.b", (n_labels,))

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

    def _attention(self, prefix: str, x: Tensor, bias: Optional[Tensor]) -> Tensor:
        c = self.config
        b_sz, t, d = x.shape
        h, dh = c.n_heads, c.d // c.n_heads
        qkv = x @ self.params[f"{prefix}.attn.qkv.W"] + self.params[f"{prefix}.attn.qkv.b"]
        qkv = qkv.reshape(b_sz, t, 3, h, dh).transpose(2, 0, 3, 1, 4)  # (3, B, H, T, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
        if bias is not None:
            scores = scores + bias
        att = T.softmax(scores)
        out = (att @ v).transpose(0, 2, 1, 3).reshape(b_sz, t, d)
        return out @ self.params[f"{prefix}.attn.out.W"] + self.params[f"{prefix}.attn.out.b"]

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return T.layernorm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _encoder_block(self, prefix: str, x: Tensor, bias: Optional[Tensor]) -> Tensor:
        x = x + self._attention(prefix, self._ln(f"{prefix}.ln1", x), bias)
        hidden = self._ln(f"{prefix}.ln2", x) @ self.params[f"{prefix}.mlp.fc1.W"] \
            + self.params[f"{prefix}.mlp.fc1.b"]
        hidden = T.gelu(hidden) @ self.params[f"{prefix}.mlp.fc2.W"] \
            + self.params[f"{prefix}.mlp.fc2.b"]
        return x + hidden

    @staticmethod
    def _attn_bias(valid: np.ndarray, dtype) -> Optional[Tensor]:
        """(B, S) validity -> additive (B, 1, 1, S) key bias, or None if all valid."""
        if valid.all():
            return None
        bias = np.where(valid[:, None, None, :], 0.0, NEG_INF).astype(dtype)
        return Tensor(bias)

    def _visual_slots(self, batch: MaskedBatch) -> Tensor:
        c = self.config
        b_sz = batch.batch_size
        placeholder = self.params["placeholder"]
        if batch.regions is None:
            return placeholder.reshape(1, 1, c.d) * Tensor(np.ones((b_sz, 1, 1), dtype=self.dtype))
        regions = np.asarray(batch.regions, dtype=self.dtype)
        r = regions.shape[1]
        if r > c.k_max * c.n_regions:
            raise ShapeError(
                f"{r} visual slots exceed k_max*n_regions = {c.k_max * c.n_regions}")
        if regions.shape[2] != c.d_v:
            raise ShapeError(f"region feature dim {regions.shape[2]} != d_v {c.d_v}")
        rank_ids = batch.rank_ids if batch.rank_ids is not None \
            else np.zeros((b_sz, r), dtype=np.int64)
        proj = Tensor(regions) @ self.params["region_projection.W"] \
            + self.params["region_projection.b"]
        vis = proj + T.embedding(self.params["rank_embeddings"], rank_ids)
        if batch.placeholder_slots is not None and batch.placeholder_slots.any():
            ph = np.asarray(batch.placeholder_slots, dtype=self.dtype)[:, :, None]
            vis = vis * Tensor(1.0 - ph) + placeholder.reshape(1, 1, c.d) * Tensor(ph)
        return vis

    def forward(self, batch: MaskedBatch) -> Tuple[Tensor, Tensor, Tensor]:
        """-> (token_logits (B,L,V), region_preds (B,R,d_v), cls_vector (B,d))."""
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

        vis = self._visual_slots(batch)
        r = vis.shape[1]
        joint = T.concat([x, vis], axis=1)
        if batch.attention_pad_mask is not None:
            valid = np.asarray(batch.attention_pad_mask, dtype=bool)
            if valid.shape != (b_sz, length + r):
                raise ShapeError(
                    f"attention_pad_mask shape {valid.shape} != {(b_sz, length + r)}")
        else:
            valid = np.concatenate([text_valid, np.ones((b_sz, r), dtype=bool)], axis=1)
        joint_bias = self._attn_bias(valid, self.dtype)
        for i in range(c.n_layers_cross):
            joint = self._encoder_block(f"cross.{i}", joint, joint_bias)
        joint = self._ln("final_ln", joint)

        text_out = joint[:, :length, :]
        vis_out = joint[:, length:, :]
        token_logits = text_out @ self.params["lm_head.W"] + self.params["lm_head.b"]
        region_preds = vis_out @ self.params["region_head.W"] + self.params["region_head.b"]
        cls_vec = joint[:, 0, :]
        return token_logits, region_preds, cls_vec

    def cls_logits(self, cls_vec: Tensor) -> Tensor:
        if "cls_head.W" not in self.params:
            raise ValueError("model has no classification head; call add_cls_head first")
        return cls_vec @ self.params["cls_head.W"] + self.params["cls_head.b"]


# -- losses & metrics ---------------------------------------------------------


def masked_lm_loss(token_logits: Tensor, original_tokens: np.ndarray,
                   flags: np.ndarray) -> Tensor:
    """Mean cross-entropy over masked token positions."""
    return T.masked_cross_entropy(token_logits, original_tokens, flags)


def masked_region_loss(region_preds: Optional[Tensor], original_regions,
                       flags, model: CrossModalModel) -> Tensor:
    """Mean p-norm reconstruction error over masked regions, plus L1 on the head.

    Contributes exactly zero (constant, no gradient) when the batch has no
    masked regions, e.g. a placeholder batch.
    """
    if region_preds is None or flags is None or not np.asarray(flags).any():
        return Tensor(np.asarray(0.0, dtype=model.dtype))
    loss = T.masked_lp_loss(region_preds, original_regions, flags, model.config.p_norm)
    if model.config.l1_coeff > 0:
        loss = loss + T.l1_norm(model.params["region_head.W"]) * model.config.l1_coeff
    return loss


def masked_ce_stats(token_logits: np.ndarray, original_tokens: np.ndarray,
                    flags: np.ndarray) -> Tuple[float, int]:
    """(summed cross-entropy, count) over masked positions, float64 accumulation."""
    v = token_logits.shape[-1]
    flat_flags = np.asarray(flags, dtype=bool).reshape(-1)
    idx = np.nonzero(flat_flags)[0]
    if idx.size == 0:
        return 0.0, 0
    rows = np.ascontiguousarray(token_logits.reshape(-1, v)[idx])
    targets = np.asarray(original_tokens).reshape(-1)[idx].astype(np.int64)
    losses, _ = kernels.active.masked_ce_forward(rows, targets)
    return float(losses.astype(np.float64).sum()), int(idx.size)


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
    from .index import _read_exact
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, config_len = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        try:
            config = ModelConfig(**json.loads(_read_exact(fh, config_len, "config")))
        except TypeError as exc:  # unknown or missing keys, or not a JSON object
            raise ValueError(f"{path}: checkpoint config does not fit ModelConfig: {exc}")
        model = CrossModalModel(config, seed=0)
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
        seen = set()
        for _ in range(n_params):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, name_len, "parameter name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "shape"))
            data = np.frombuffer(
                _read_exact(fh, 4 * int(np.prod(shape, dtype=np.int64)), f"data of {name!r}"),
                dtype="<f4").reshape(shape).copy()
            if name not in model.params:
                raise ValueError(f"checkpoint parameter {name!r} unknown to this config")
            if model.params[name].data.shape != data.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {data.shape} != model shape "
                    f"{model.params[name].data.shape}")
            model.params[name].data = data
            seen.add(name)
        missing = set(model.params) - seen
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        end = fh.tell()
        trailing = len(fh.read())
        if trailing:
            raise ValueError(
                f"{path}: {trailing} trailing byte(s) after the last parameter at offset {end}")
    if config.freeze_text:
        model.set_text_encoder_frozen(True)
    return model
