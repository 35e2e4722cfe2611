"""Command-line surface tying the modules into reproducible pipelines.

Subcommands: make-toy-data, build-index, associate, pretrain, eval-ppl,
finetune. Settings merge three layers with fixed precedence: flags beat
a key=value config file (--config), which beats built-in defaults. Every
command takes --seed; anything random flows from it. Exit codes: 0 ok,
1 runtime failure, 2 usage error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Dict, get_args, get_type_hints

from .associate import (AssociationCache, build_caption_index, build_synset_index,
                        load_caption_corpus, load_noun_lexicon, load_synsets)
from .embeddings import decode_lines, load_word_vectors, read_lines
from .finetune import finetune, load_task_file
from .index import ImageFeatureStore, load_index, save_index
from .model import CrossModalModel, ModelConfig, load_checkpoint, save_checkpoint
from .toydata import ToySpec, generate_grounded_corpus
from .train import (STRATEGIES, Corpora, Strategy, TrainConfig, associate_query,
                    evaluate_perplexity, pretrain, validate_lookup, write_metrics_csv)
from .vocab import Vocab


class UsageError(Exception):
    """Bad invocation: wrong flags, missing files, unknown config keys."""


def _dataclass_keys(cls, skip=()) -> Dict[str, tuple]:
    """Field name -> (type, default) of a dataclass; Optional[int] reads as int."""
    hints = get_type_hints(cls)
    return {f.name: ((get_args(hints[f.name]) or (hints[f.name],))[0], f.default)
            for f in fields(cls) if f.name not in skip}


# Every tunable consumed by pretrain/eval-ppl/finetune, with type and default.
# A config file may set exactly these; flags of the same name win.
CONFIG_KEYS: Dict[str, tuple] = {
    **_dataclass_keys(TrainConfig),
    **_dataclass_keys(ModelConfig, skip=("vocab_size", "n_labels", "freeze_text")),
    **_dataclass_keys(Strategy, skip=("name",)),
    "runs": (int, 8),
}

_CONFIG_HELP = "config keys: " + ", ".join(
    f"{k}={d!r}" for k, (_t, d) in CONFIG_KEYS.items())


class RunConfig:
    """Merged view of defaults, config-file pairs, and flag overrides."""

    def __init__(self, args: argparse.Namespace):
        self.values = {k: d for k, (_t, d) in CONFIG_KEYS.items()}
        path = getattr(args, "config", None)
        if path:
            self.values.update(_parse_config_file(path))
        for key in CONFIG_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                self.values[key] = flag

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)

    def build(self, cls, **given):
        """``cls(**given)`` with every field that is a config key taken from here."""
        return cls(**given, **{f.name: self.values[f.name] for f in fields(cls)
                               if f.name in CONFIG_KEYS})


def _parse_config_file(path) -> Dict[str, object]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    out = {}
    for n, line in enumerate(read_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{n}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{n}: unknown config key {key!r}")
        typ = CONFIG_KEYS[key][0]
        try:
            out[key] = None if value.lower() == "none" else typ(value)
        except ValueError:
            raise UsageError(f"{path}:{n}: {key} expects {typ.__name__}, got {value!r}")
    return out


def _require(path, what: str):
    if path is None:
        raise UsageError(f"missing required {what}")
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


# -- corpora assembly ---------------------------------------------------------


def _load_corpora(args, strategy: Strategy, need_text: bool) -> Corpora:
    vocab = Vocab.load(_require(args.vocab, "--vocab file"))
    co = Corpora(vocab=vocab)
    if args.corpus:
        co.text_only = [line for line in read_lines(_require(args.corpus, "--corpus file"))
                        if line.strip()]
    if args.captions:
        corpus = load_caption_corpus(_require(args.captions, "--captions file"))
        co.caption_corpus = corpus
        co.paired = list(corpus.items())
    if args.features:
        co.store = ImageFeatureStore(_require(args.features, "--features file"))
    if args.vectors:
        co.table = load_word_vectors(_require(args.vectors, "--vectors file"))
    if getattr(args, "nouns", None):
        co.lexicon = load_noun_lexicon(_require(args.nouns, "--nouns file"))
    needs = strategy.spec.needs
    if "caption_index" in needs and co.caption_corpus is not None and co.table is not None:
        co.caption_index = build_caption_index(co.caption_corpus, co.table)
    if "synset_index" in needs and getattr(args, "synsets", None):
        synsets = load_synsets(_require(args.synsets, "--synsets file"))
        co.synset_index = build_synset_index(synsets, co.table) if co.table is not None else None
    if need_text and not co.text_only and not co.paired:
        raise UsageError("no training text: pass --corpus and/or --captions")
    return co


# -- subcommands --------------------------------------------------------------


def cmd_make_toy_data(args) -> int:
    spec = ToySpec(**{f.name: getattr(args, f.name) for f in fields(ToySpec)})
    paths = generate_grounded_corpus(spec, args.out)
    for field_name, value in sorted(asdict(paths).items()):
        print(f"{field_name}\t{value}")
    return 0


def cmd_build_index(args) -> int:
    table = load_word_vectors(_require(args.vectors, "--vectors file"))
    if args.kind == "caption":
        corpus = load_caption_corpus(_require(args.input, "--input file"))
        if not corpus:
            raise ValueError("no entries in caption file")
        index = build_caption_index(corpus, table)
    else:
        synsets = load_synsets(_require(args.input, "--input file"))
        if not synsets:
            raise ValueError("no entries in synset file")
        index = build_synset_index(synsets, table)
    save_index(index, args.out)
    print(f"indexed {len(index.items)} keys ({index.skipped} degenerate skipped) -> {args.out}")
    return 0


def cmd_associate(args) -> int:
    Strategy(next(n for n, s in STRATEGIES.items() if s.mode == args.strategy), k=args.k)
    TrainConfig(kappa=args.kappa)
    co = Corpora(vocab=None)
    if args.strategy != "keyword":   # keyword reads only the bundled stopwords
        co.table = load_word_vectors(_require(args.vectors, "--vectors file"))
    if args.strategy == "scene":
        co.caption_index = load_index(_require(args.index, "--index file"))
    elif args.strategy == "object":
        co.synset_index = load_index(_require(args.index, "--index file"))
        co.lexicon = load_noun_lexicon(_require(args.nouns, "--nouns file"))
    else:
        co.caption_corpus = load_caption_corpus(_require(args.captions, "--captions file"))
    if args.queries == "-":
        lines = decode_lines(sys.stdin.buffer.read(), "<stdin>")
    else:
        lines = read_lines(_require(args.queries, "--queries file"))

    out = open(args.out, "w", encoding="utf-8") if args.out != "-" else sys.stdout
    try:
        for query in lines:
            record = {"query": query, "strategy": args.strategy, "items": []}
            try:
                ranked = associate_query(args.strategy, [query], co, args.k, args.kappa,
                                         args.seed)[0]
                if not ranked:
                    record["reason"] = "degenerate query: no usable tokens"
                record["items"] = [{"id": image_id, "rank": rank, "similarity": sim}
                                   for rank, (image_id, sim) in enumerate(ranked)]
            except ValueError as exc:
                record["reason"] = str(exc)
            out.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_pretrain(args) -> int:
    cfg = RunConfig(args)
    strategy = cfg.build(Strategy, name=args.strategy)
    corpora = _load_corpora(args, strategy, need_text=True)
    model = CrossModalModel(cfg.build(ModelConfig, vocab_size=len(corpora.vocab)),
                            seed=cfg.seed)
    cache = AssociationCache()
    model, metrics = pretrain(strategy, corpora, model, cfg.build(TrainConfig), cache=cache)
    save_checkpoint(model, args.out_model)
    if args.metrics:
        write_metrics_csv(metrics, args.metrics)
    vals = [row for row in metrics if row[1] == "val"]
    if vals:
        step, _split, metric, value = vals[-1]
        print(f"{strategy.name}\tstep {step}\t{metric} {value!r}")
    print(f"saved {args.out_model}")
    return 0


def cmd_eval_ppl(args) -> int:
    cfg = RunConfig(args)
    model = load_checkpoint(_require(args.model, "--model file"))
    strategy = cfg.build(Strategy, name=args.strategy)
    config = cfg.build(TrainConfig)
    corpora = _load_corpora(args, strategy, need_text=False)
    validate_lookup(strategy, corpora, model.config.k_max)
    if strategy.spec.mode == "paired":
        examples = corpora.paired
    else:
        examples = corpora.text_only or [text for _id, text in corpora.paired]
    if not examples:
        raise UsageError("no evaluation text: pass --corpus or --captions")
    cache = AssociationCache()
    ppl = evaluate_perplexity(model, examples, corpora.vocab, seed=config.seed,
                              mode=strategy.spec.mode, corpora=corpora, k=strategy.k,
                              kappa=config.kappa, batch_size=config.batch_size, cache=cache)
    print(f"{strategy.name}\t{ppl!r}")
    return 0


def cmd_finetune(args) -> int:
    cfg = RunConfig(args)
    model = load_checkpoint(_require(args.model, "--model file"))
    task = load_task_file(_require(args.task, "--task file"))
    eval_examples = None
    if args.eval_task:
        eval_task = load_task_file(_require(args.eval_task, "--eval-task file"))
        if eval_task.metric != task.metric:
            raise ValueError(f"{args.eval_task}: metric {eval_task.metric} differs from "
                             f"the task's {task.metric}")
        eval_examples = eval_task.examples
    strategy = cfg.build(Strategy, name=args.strategy)
    corpora = _load_corpora(args, strategy, need_text=False)
    cache = AssociationCache()
    report = finetune(model, task, strategy, cfg.build(TrainConfig), corpora=corpora,
                      eval_examples=eval_examples, n_runs=cfg.runs, cache=cache)
    blob = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    with open(args.out_report, "w", encoding="utf-8") as fh:
        fh.write(blob)
    print(f"{strategy.name}\t{task.metric}\tmedian {report.median!r}")
    print(f"saved {args.out_report}")
    return 0


# -- parser -------------------------------------------------------------------


def _add_flags(p: argparse.ArgumentParser, keys: Dict[str, tuple], defaults: bool) -> None:
    """One ``--some-key`` flag per key; without ``defaults`` an unset flag is None."""
    for key, (typ, default) in keys.items():
        p.add_argument("--" + key.replace("_", "-"), type=typ, dest=key,
                       default=default if defaults else None)


def _add_corpora_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--corpus", help="text-only corpus, one example per line")
    p.add_argument("--captions", help="image_id<TAB>caption TSV")
    p.add_argument("--features", help="binary region-feature store")
    p.add_argument("--vectors", help="word-vector file")
    p.add_argument("--synsets", help="synset TSV for object association")
    p.add_argument("--nouns", help="noun lexicon for object association")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundlm",
        description="Grounded language-model pretraining strategies on desk-scale corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-toy-data", help="generate a synthetic grounded corpus bundle")
    p.add_argument("--out", required=True)
    _add_flags(p, _dataclass_keys(ToySpec), defaults=True)
    p.set_defaults(func=cmd_make_toy_data)

    p = sub.add_parser("build-index", help="build and save an image-key index")
    p.add_argument("--kind", choices=("caption", "synset"), required=True)
    p.add_argument("--input", required=True, help="caption or synset TSV")
    p.add_argument("--vectors", required=True, help="word-vector file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("associate", help="retrieve images for query lines as JSON")
    p.add_argument("--strategy", choices=("scene", "object", "keyword"), required=True)
    p.add_argument("--queries", default="-", help="query file, - for stdin")
    p.add_argument("--index", help="VIDX file (scene/object)")
    p.add_argument("--vectors", help="word-vector file (scene/object)")
    p.add_argument("--nouns", help="noun lexicon (object)")
    p.add_argument("--captions", help="caption TSV (keyword)")
    _add_flags(p, {key: CONFIG_KEYS[key] for key in ("k", "kappa", "seed")}, defaults=True)
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=cmd_associate)

    for name, func, extra in (
            ("pretrain", cmd_pretrain, "train one strategy, save checkpoint + metrics"),
            ("eval-ppl", cmd_eval_ppl, "masked-LM perplexity of a checkpoint"),
            ("finetune", cmd_finetune, "8-run downstream probe from a checkpoint")):
        p = sub.add_parser(name, help=extra, epilog=_CONFIG_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--strategy", choices=STRATEGIES, required=True)
        _add_corpora_flags(p)
        p.add_argument("--config", help="key=value file; flags override it")
        _add_flags(p, CONFIG_KEYS, defaults=False)
        if name == "pretrain":
            p.add_argument("--out-model", required=True)
            p.add_argument("--metrics", help="write step,split,metric,value CSV here")
        else:
            p.add_argument("--model", required=True, help="checkpoint file")
        if name == "finetune":
            p.add_argument("--task", required=True, help="task TSV with metric header")
            p.add_argument("--eval-task", help="held-out task TSV; default splits --task")
            p.add_argument("--out-report", required=True, help="JSON report path")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
