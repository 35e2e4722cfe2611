"""Word-level vocabulary with fixed reserved ids.

Ids 0..4 are [pad], [cls], [masked], [unk], [sep] in that order; real tokens
follow, ordered by descending corpus count then alphabetically, so building
twice from the same corpus gives the same file byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional

from .embeddings import read_lines, tokenize

RESERVED = ("[pad]", "[cls]", "[masked]", "[unk]", "[sep]")
PAD_ID, CLS_ID, MASKED_ID, UNK_ID, SEP_ID = range(5)
N_RESERVED = len(RESERVED)


class Vocab:
    def __init__(self, tokens: List[str]):
        if tuple(tokens[:N_RESERVED]) != RESERVED:
            raise ValueError(f"first {N_RESERVED} tokens must be {RESERVED}")
        self.tokens = list(tokens)
        self.ids = {t: i for i, t in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.ids

    def id_of(self, token: str) -> int:
        return self.ids.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def encode(self, text: str, max_len: Optional[int] = None,
               text_b: Optional[str] = None) -> List[int]:
        """`[cls] text ([sep] text_b)` as ids, clipped to max_len."""
        return self.encode_with_raw(text, max_len, text_b)[0]

    def encode_with_raw(self, text: str, max_len: Optional[int] = None,
                        text_b: Optional[str] = None):
        """Ids plus the position-aligned raw token strings.

        The raw row keeps out-of-vocabulary words (which the id row collapses
        to [unk]), so retrieval queries built from surviving tokens can still
        see them.
        """
        raw = [RESERVED[1]] + tokenize(text)
        if text_b is not None:
            raw += [RESERVED[4]] + tokenize(text_b)
        if max_len is not None:
            raw = raw[:max_len]
        ids = [CLS_ID if t == RESERVED[1] else SEP_ID if t == RESERVED[4] else self.id_of(t)
               for t in raw]
        return ids, raw

    @classmethod
    def build(cls, texts: Iterable[str], min_count: int = 2) -> "Vocab":
        counts = Counter()
        for text in texts:
            counts.update(tokenize(text))
        kept = sorted((t for t, c in counts.items() if c >= min_count),
                      key=lambda t: (-counts[t], t))
        return cls(list(RESERVED) + kept)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.tokens:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        tokens = [line for line in read_lines(path) if line]
        try:
            return cls(tokens)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
