"""Output checks: retrieval against a brute-force oracle, perplexity bounds,
probe completion, and exact repeats of the work counted in a session.

Each check is one attempt; every failure counts toward the run's error rate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional

import numpy as np

from session import (HELD_OUT, KAPPA, PROBE_RUNS, TRAIN_SEED, SessionResult, World,
                     Workload)

N_QUERIES = 16


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _oracle_ranking(keys: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int):
    """Exact top-k as the acceptance suite's retrieval oracle states it:
    float32 cosine against the unit keys, similarity desc then id asc."""
    q = np.asarray(query, dtype=np.float32).reshape(-1)
    q = q / np.float32(float(np.linalg.norm(q)))
    sims = keys @ q.astype(np.float32)
    order = np.lexsort((ids, -sims))[:k]
    return [(str(ids[i]), float(sims[i])) for i in order]


def _index_arrays(index):
    keys = np.stack([it.key for it in index.items])
    ids = np.array([it.id for it in index.items])
    return keys, ids


def _sample_queries(world: World) -> List[str]:
    """Fixed queries: held-out captions, and the same captions with the
    concept word dropped (the cue-only text a masked row leaves)."""
    texts = world.texts[HELD_OUT][:N_QUERIES // 2]
    return texts + [" ".join(t.split()[1:]) for t in texts]


def check_retrieval(glm, workload: Workload, world: World, checks: Checks) -> None:
    co = world.corpora
    k = workload.k
    if workload.mode == "object":
        keys, ids = _index_arrays(co.synset_index)
        for text in _sample_queries(world):
            nouns = []
            for t in glm.embeddings.tokenize(text):
                if t in co.lexicon and t in co.table.entries and t not in nouns:
                    nouns.append(t)
            items = glm.associate.associate_object(
                text, co.synset_index, co.table, co.lexicon, k, min(KAPPA, k),
                seed=TRAIN_SEED).items
            got = [(it.image_id, it.similarity) for it in items]
            # each component contributes one block: the exact top ceil(K/kappa')
            # of one of the text's nouns
            per = math.ceil(k / min(KAPPA, len(nouns))) if nouns else k
            wants = [_oracle_ranking(keys, ids, co.table.entries[n], per) for n in nouns]
            blocks = [got[i:i + per] for i in range(0, len(got), per)]
            ok = bool(nouns) and len(got) == k and all(
                any(block == want[:len(block)] for want in wants) for block in blocks)
            checks.check(ok, f"object retrieval differs from oracle for {text!r}")


def check_session(glm, workload: Workload, world: World, result: SessionResult,
                  checks: Checks) -> None:
    check_retrieval(glm, workload, world, checks)
    floor = world.floors["grounded_ppl_floor"]
    ppl = result.final_val_ppl
    checks.check(math.isfinite(ppl) and ppl >= floor,
                 f"final_val_ppl {ppl!r} is not finite or is below the floor {floor!r}")
    checks.check(bool(result.in_loop_ppl) and all(math.isfinite(p) for p in result.in_loop_ppl),
                 f"in-loop validation perplexities {result.in_loop_ppl!r}")
    checks.check(result.eval_repeats_agree,
                 "repeated cold held-out passes gave different perplexities")
    checks.check(len(result.probe_runs) == PROBE_RUNS,
                 f"probe reported {len(result.probe_runs)} runs, expected {PROBE_RUNS}")
    for r, score in enumerate(result.probe_runs):
        checks.check(score is not None, f"probe run {r} failed")


# Work counts that only a traced session has; they must repeat exactly too.
TRACED_REPEAT_KEYS = ("index.top_k.calls", "train.build_batch.calls",
                      "kernels.adam_update.calls")


def fingerprint(result: SessionResult) -> Dict[str, object]:
    """What must repeat exactly for the same code and seed."""
    fp: Dict[str, object] = {
        "final_val_ppl": repr(result.final_val_ppl),
        "associate.cache.hits": result.cache_hits,
        "associate.cache.misses": result.cache_misses,
        "index.store_get.calls": result.store_reads,
    }
    for key in TRACED_REPEAT_KEYS:
        if key in result.layers:
            fp[key] = result.layers[key]
    return fp


def check_repeats(fingerprints: List[Dict[str, object]], record_path: str,
                  source_digest: str, checks: Checks) -> None:
    """Sessions of one run must agree with each other, and with the record
    an earlier run of the same code and seed left in ``record_path``."""
    merged: Dict[str, object] = {}
    for fp in fingerprints:
        for key, value in fp.items():
            if key in merged:
                checks.check(merged[key] == value,
                             f"{key} changed between sessions: {merged[key]!r} vs {value!r}")
            else:
                merged[key] = value
    previous: Optional[dict] = None
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous.get("source") != source_digest:
            previous = None
    if previous is not None:
        for key, value in merged.items():
            if key in previous["values"]:
                checks.check(previous["values"][key] == value,
                             f"{key} differs from an earlier run of the same code and seed: "
                             f"{previous['values'][key]!r} vs {value!r}")
        merged = {**previous["values"], **merged}
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    tmp = f"{record_path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"source": source_digest, "values": merged}, fh, sort_keys=True)
    os.replace(tmp, record_path)


def source_digest(*dirs: str) -> str:
    """SHA-256 over the files under ``dirs`` (the program's ``src/`` and the
    benchmark's own directory), which together fix the work a session counts."""
    h = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "_work"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, os.path.dirname(top)).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()
