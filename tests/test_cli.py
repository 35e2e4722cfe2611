import io
import json
import os
import pathlib
import struct
import subprocess
import sys

import pytest

from groundlm import cli
from groundlm.cli import CONFIG_KEYS, RunConfig, build_parser, main
from groundlm.index import (ImageFeatureStore, load_index, save_index,
                            write_feature_store)
from groundlm.model import ModelConfig
from groundlm.toydata import ToySpec
from groundlm.train import Strategy, TrainConfig
from groundlm.vocab import RESERVED, Vocab

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One small toy bundle shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "toy"
    rc = main(["make-toy-data", "--out", str(out), "--seed", "3",
               "--vocab-size", "40", "--n-concepts", "12", "--n-examples", "40",
               "--d-w", "8", "--d-v", "8", "--n-regions", "1"])
    assert rc == 0
    return out


def run_ok(argv):
    assert main(argv) == 0


@pytest.fixture(scope="module")
def caption_index(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("idx") / "caps.vidx"
    run_ok(["build-index", "--kind", "caption", "--input",
            str(bundle / "captions.tsv"), "--vectors",
            str(bundle / "wordvecs.txt"), "--out", str(out)])
    return out


@pytest.fixture(scope="module")
def checkpoint(bundle, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    model = tmp / "ng.glmc"
    metrics = tmp / "m.csv"
    rc = main(["pretrain", "--strategy", "NoGrounding",
               "--vocab", str(bundle / "vocab.txt"),
               "--corpus", str(bundle / "corpus.txt"),
               "--out-model", str(model), "--metrics", str(metrics),
               "--d", "8", "--d-v", "8", "--n-layers-text", "1",
               "--n-layers-cross", "1", "--n-heads", "2", "--max-len", "8",
               "--k-max", "2", "--max-steps", "6", "--max-epochs", "2",
               "--batch-size", "8", "--mix-ratio", "0.0"])
    assert rc == 0
    return model, metrics


class TestMakeToyData:
    def test_writes_expected_files(self, bundle):
        for name in ("captions.tsv", "features.vftr", "wordvecs.txt",
                     "corpus.txt", "vocab.txt", "synsets.tsv", "nouns.txt",
                     "floors.json"):
            assert (bundle / name).exists(), name

    def test_prints_paths(self, bundle, capsys, tmp_path):
        run_ok(["make-toy-data", "--out", str(tmp_path / "t2"), "--seed", "3",
                "--vocab-size", "40", "--n-concepts", "12", "--n-examples", "10",
                "--d-w", "8", "--d-v", "8"])
        printed = capsys.readouterr().out
        assert "captions" in printed and "floors" in printed

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        rc = main(["make-toy-data", "--out", str(tmp_path / "bad"),
                   "--grounding-strength", "2.0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestBuildIndex:
    def test_caption_index_report(self, bundle, tmp_path, capsys):
        out = tmp_path / "caps.vidx"
        run_ok(["build-index", "--kind", "caption", "--input",
                str(bundle / "captions.tsv"), "--vectors",
                str(bundle / "wordvecs.txt"), "--out", str(out)])
        report = capsys.readouterr().out
        assert "indexed 40 keys (0 degenerate skipped)" in report
        assert out.exists()

    def test_synset_index(self, bundle, tmp_path):
        run_ok(["build-index", "--kind", "synset", "--input",
                str(bundle / "synsets.tsv"), "--vectors",
                str(bundle / "wordvecs.txt"), "--out", str(tmp_path / "syn.vidx")])

    def test_empty_input_exits_1(self, bundle, tmp_path, capsys):
        for kind in ("caption", "synset"):
            empty = tmp_path / f"empty_{kind}.tsv"
            empty.write_text("")
            rc = main(["build-index", "--kind", kind, "--input", str(empty),
                       "--vectors", str(bundle / "wordvecs.txt"),
                       "--out", str(tmp_path / "x.vidx")])
            assert rc == 1
            assert_one_error_line(capsys, f"error: {empty}: no entries in {kind} file")
            assert not (tmp_path / "x.vidx").exists()

    def test_missing_input_exits_2(self, bundle, tmp_path, capsys):
        rc = main(["build-index", "--kind", "caption", "--input",
                   str(tmp_path / "nope.tsv"), "--vectors",
                   str(bundle / "wordvecs.txt"), "--out", str(tmp_path / "x.vidx")])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_non_finite_vectors_exit_1_naming_line(self, bundle, tmp_path, capsys):
        vectors = tmp_path / "nan.txt"
        lines = (bundle / "wordvecs.txt").read_text().splitlines()[:3]
        word, *comps = lines[1].split()
        lines[1] = " ".join([word, "nan"] + comps[1:])
        vectors.write_text("\n".join(lines) + "\n")
        rc = main(["build-index", "--kind", "caption", "--input",
                   str(bundle / "captions.tsv"), "--vectors", str(vectors),
                   "--out", str(tmp_path / "x.vidx")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2: non-finite" in err and "Traceback" not in err
        assert not (tmp_path / "x.vidx").exists()

    def test_rerun_byte_identical(self, bundle, tmp_path):
        a, b = tmp_path / "a.vidx", tmp_path / "b.vidx"
        for out in (a, b):
            run_ok(["build-index", "--kind", "caption", "--input",
                    str(bundle / "captions.tsv"), "--vectors",
                    str(bundle / "wordvecs.txt"), "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestAssociate:
    def test_scene_self_retrieval(self, bundle, caption_index, tmp_path):
        first = open(bundle / "captions.tsv").readline().rstrip("\n")
        img_id, caption = first.split("\t")
        queries = tmp_path / "q.txt"
        queries.write_text(caption + "\n")
        out = tmp_path / "o.jsonl"
        run_ok(["associate", "--strategy", "scene", "--queries", str(queries),
                "--index", str(caption_index), "--vectors",
                str(bundle / "wordvecs.txt"), "--k", "4", "--out", str(out)])
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["items"][0]["id"] == img_id
        assert len(rec["items"]) == 4

    def test_jsonl_rerun_byte_identical(self, bundle, caption_index, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("c000 f001\nc003 f002\n")
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            run_ok(["associate", "--strategy", "scene", "--queries", str(queries),
                    "--index", str(caption_index), "--vectors",
                    str(bundle / "wordvecs.txt"), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_keyword_degenerate_query_reported(self, bundle, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("the of and\n")  # stopwords only
        out = tmp_path / "o.jsonl"
        run_ok(["associate", "--strategy", "keyword", "--queries", str(queries),
                "--captions", str(bundle / "captions.tsv"), "--vectors",
                str(bundle / "wordvecs.txt"), "--out", str(out)])
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["items"] == []
        assert rec["reason"]

    def test_stdin_queries_decode_as_query_files_do(self, bundle, tmp_path, monkeypatch,
                                                    capsys):
        argv = ["associate", "--strategy", "keyword", "--queries", "-",
                "--captions", str(bundle / "captions.tsv"),
                "--vectors", str(bundle / "wordvecs.txt"), "--out", str(tmp_path / "o.jsonl")]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"c000\r\nc001 f000\n")))
        run_ok(argv)
        records = [json.loads(line) for line in (tmp_path / "o.jsonl").read_text().splitlines()]
        assert [r["query"] for r in records] == ["c000", "c001 f000"]
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"c000\nc001 caf\xe9\n")))
        assert main(argv) == 1
        assert_one_error_line(capsys, "<stdin>: line 2: not UTF-8 (byte 0xe9)")

    @pytest.mark.parametrize("flag, needle", [("--k", "needs K >= 1, got 0"),
                                              ("--kappa", "kappa must be >= 1, got 0")])
    def test_k_and_kappa_checked_up_front(self, bundle, caption_index, tmp_path, capsys,
                                          flag, needle):
        queries = tmp_path / "q.txt"
        queries.write_text("c000 f001\n")
        out = tmp_path / "o.jsonl"
        assert main(["associate", "--strategy", "object", "--queries", str(queries),
                     "--index", str(caption_index), "--nouns", str(bundle / "nouns.txt"),
                     "--vectors", str(bundle / "wordvecs.txt"), flag, "0",
                     "--out", str(out)]) == 1
        assert_one_error_line(capsys, needle)
        assert not out.exists()

    def test_keyword_needs_no_vectors(self, bundle, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("c000 f001\nthe of and\nc003 f002\n")
        argv = ["associate", "--strategy", "keyword", "--queries", str(queries),
                "--captions", str(bundle / "captions.tsv"), "--k", "3"]
        run_ok(argv + ["--out", str(tmp_path / "bare.jsonl")])
        run_ok(argv + ["--vectors", str(bundle / "wordvecs.txt"),
                       "--out", str(tmp_path / "vectors.jsonl")])
        assert (tmp_path / "bare.jsonl").read_bytes() == (tmp_path / "vectors.jsonl").read_bytes()

    @pytest.mark.parametrize("strategy", ["scene", "object"])
    def test_retrieval_without_vectors_exits_2(self, bundle, caption_index, strategy, capsys):
        rc = main(["associate", "--strategy", strategy, "--queries", "-",
                   "--index", str(caption_index), "--nouns", str(bundle / "nouns.txt")])
        assert rc == 2
        assert capsys.readouterr().err == "usage error: missing required --vectors file\n"

    def test_scene_without_index_exits_2(self, bundle, tmp_path, capsys):
        rc = main(["associate", "--strategy", "scene", "--queries", "-",
                   "--vectors", str(bundle / "wordvecs.txt")])
        assert rc == 2


class TestConfigHandling:
    def test_defaults_match_registry(self):
        parser = build_parser()
        args = parser.parse_args(["associate", "--strategy", "scene",
                                  "--vectors", "v"])
        assert args.k == 16
        assert args.kappa == 8

    def test_default_flags_build_the_dataclass_defaults(self, bundle, monkeypatch):
        class Stop(Exception):
            pass

        built = {}

        def fake_pretrain(strategy, corpora, model, config, **kw):
            built.update(strategy=strategy, model=model.config, train=config)
            raise Stop

        def fake_generate(spec, out):
            built["toy"] = spec
            raise Stop

        monkeypatch.setattr(cli, "pretrain", fake_pretrain)
        monkeypatch.setattr(cli, "generate_grounded_corpus", fake_generate)
        with pytest.raises(Stop):
            main(["pretrain", "--strategy", "TransferredI2T",
                  "--vocab", str(bundle / "vocab.txt"),
                  "--captions", str(bundle / "captions.tsv"),
                  "--features", str(bundle / "features.vftr"), "--out-model", "unused"])
        with pytest.raises(Stop):
            main(["make-toy-data", "--out", "unused"])
        vocab_size = len(Vocab.load(bundle / "vocab.txt"))
        assert built["model"] == ModelConfig(vocab_size=vocab_size)
        assert built["train"] == TrainConfig()
        assert built["strategy"] == Strategy("TransferredI2T")
        assert built["toy"] == ToySpec()

    def test_unknown_config_key_exits_2(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_rate=0.1\n")
        rc = main(["pretrain", "--strategy", "NoGrounding",
                   "--vocab", str(bundle / "vocab.txt"),
                   "--corpus", str(bundle / "corpus.txt"),
                   "--config", str(cfg), "--out-model", str(tmp_path / "m.glmc")])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lr=0.5\nbatch_size=4\n")
        parser = build_parser()
        args = parser.parse_args(["pretrain", "--strategy", "NoGrounding",
                                  "--vocab", "v", "--out-model", "m",
                                  "--config", str(cfg), "--lr", "0.25"])
        merged = RunConfig(args)
        assert merged.lr == 0.25            # flag wins
        assert merged.batch_size == 4       # file beats default
        assert merged.d == CONFIG_KEYS["d"][1]  # untouched default

    def test_config_file_type_error_exits_2(self, bundle, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("batch_size=many\n")
        rc = main(["pretrain", "--strategy", "NoGrounding",
                   "--vocab", str(bundle / "vocab.txt"),
                   "--corpus", str(bundle / "corpus.txt"),
                   "--config", str(cfg), "--out-model", str(tmp_path / "m.glmc")])
        assert rc == 2


class TestTrainEvalRoundTrip:
    def test_pretrain_outputs(self, checkpoint):
        model, metrics = checkpoint
        assert model.exists()
        header = open(metrics).readline().strip()
        assert header == "step,split,metric,value"

    def test_eval_ppl_prints_value(self, bundle, checkpoint, capsys):
        model, _ = checkpoint
        rc = main(["eval-ppl", "--strategy", "NoGrounding",
                   "--vocab", str(bundle / "vocab.txt"),
                   "--corpus", str(bundle / "corpus.txt"),
                   "--model", str(model), "--seed", "7"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        name, val = line.split("\t")
        assert name == "NoGrounding"
        assert float(val.replace("ppl ", "")) > 1.0

    @pytest.mark.parametrize("strategy, flags, needle", [
        ("AssociativeScene", {"--features": "features.vftr", "--captions": "captions.tsv"},
         "AssociativeScene requires a word-embedding table"),
        ("AssociativeObject", {"--features": "features.vftr", "--synsets": "synsets.tsv",
                               "--nouns": "nouns.txt"},
         "AssociativeObject requires a word-embedding table"),
        ("TransferredI2T", {"--captions": "captions.tsv"},
         "TransferredI2T requires an image feature store"),
        ("AssociativeObject", {"--features": "features.vftr", "--vectors": "wordvecs.txt",
                               "--synsets": "synsets.tsv"},
         "AssociativeObject requires a noun lexicon"),
        ("AssociativeKeyword", {"--features": "features.vftr"},
         "AssociativeKeyword requires a caption corpus"),
        ("NoGrounding", {"--batch-size": 0}, "batch_size must be >= 1, got 0"),
        ("NoGrounding", {"--batch-size": -1}, "batch_size must be >= 1, got -1"),
        ("AssociativeScene", {"--k": 3, "--features": "features.vftr",
                              "--captions": "captions.tsv", "--vectors": "wordvecs.txt"},
         "strategy K=3 exceeds model k_max=2"),
    ], ids=["scene_no_vectors", "object_no_vectors", "i2t_no_features", "object_no_nouns",
            "keyword_no_captions", "batch_size_0", "batch_size_-1", "k_over_k_max"])
    def test_eval_ppl_checks_its_inputs(self, bundle, checkpoint, capsys, strategy, flags,
                                        needle):
        """eval-ppl checks what a strategy reads as pretrain and finetune do:
        one error line and exit 1, never a traceback from deep in a pass."""
        model, _ = checkpoint
        argv = ["eval-ppl", "--strategy", strategy, "--vocab", str(bundle / "vocab.txt"),
                "--corpus", str(bundle / "corpus.txt"), "--model", str(model), "--k", "2"]
        for flag, value in flags.items():
            argv += [flag, str(bundle / value) if isinstance(value, str) else str(value)]
        assert main(argv) == 1
        assert_one_error_line(capsys, needle)

    def test_eval_ppl_does_not_depend_on_batch_size(self, bundle, checkpoint, capsys):
        model, _ = checkpoint
        ppls = []
        for size in ("7", "32"):
            run_ok(["eval-ppl", "--strategy", "NoGrounding",
                    "--vocab", str(bundle / "vocab.txt"), "--corpus", str(bundle / "corpus.txt"),
                    "--model", str(model), "--seed", "7", "--batch-size", size])
            ppls.append(float(capsys.readouterr().out.strip().splitlines()[-1].split("\t")[1]))
        assert abs(ppls[0] - ppls[1]) <= 1e-6 * ppls[1], ppls

    def _eval_ppl_patched(self, bundle, checkpoint, path, key, value):
        """Run eval-ppl on a copy of the checkpoint whose config sets key=value."""
        model, _ = checkpoint
        blob = model.read_bytes()
        (config_len,) = struct.unpack("<I", blob[8:12])
        config = json.loads(blob[12:12 + config_len])
        config[key] = value
        raw = json.dumps(config, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + config_len:])
        return main(["eval-ppl", "--strategy", "NoGrounding",
                     "--vocab", str(bundle / "vocab.txt"),
                     "--corpus", str(bundle / "corpus.txt"),
                     "--model", str(path), "--seed", "7"])

    @pytest.mark.parametrize("key, value, needle", [
        ("bogus_key", 1, "bogus_key"),
        ("n_heads", 0, "n_heads must be >= 1"),
        ("d", -8, "n_heads must be >= 1"),
        ("d_v", -4, "n_heads must be >= 1"),
    ], ids=["bogus_key", "n_heads", "d", "d_v"])
    def test_eval_ppl_bad_checkpoint_config_exits_1(self, bundle, checkpoint, tmp_path,
                                                    capsys, key, value, needle):
        bad = tmp_path / "bad.glmc"
        assert self._eval_ppl_patched(bundle, checkpoint, bad, key, value) == 1
        assert_one_error_line(capsys, str(bad), "does not fit ModelConfig", needle)

    def test_eval_ppl_config_larger_than_file_exits_1(self, bundle, checkpoint,
                                                      tmp_path, capsys):
        big = tmp_path / "big.glmc"
        assert self._eval_ppl_patched(bundle, checkpoint, big, "vocab_size", 10**15) == 1
        assert_one_error_line(capsys, str(big), "bytes of parameters")

    def test_finetune_report(self, bundle, checkpoint, tmp_path, capsys):
        model, _ = checkpoint
        task = tmp_path / "task.tsv"
        rows = ["metric=accuracy labels=0,1"]
        for j in range(12):
            rows.append(f"{j % 2}\tc{j % 2:03d} f000 f001")
        task.write_text("\n".join(rows) + "\n")
        report = tmp_path / "rep.json"
        rc = main(["finetune", "--strategy", "NoGrounding",
                   "--vocab", str(bundle / "vocab.txt"),
                   "--model", str(model), "--task", str(task),
                   "--out-report", str(report), "--runs", "2",
                   "--max-steps", "4", "--max-epochs", "1",
                   "--batch-size", "4", "--val-fraction", "0.25"])
        assert rc == 0
        blob = json.loads(report.read_text())
        assert blob["n_runs"] == 2
        assert blob["strategy"] == "NoGrounding"
        assert "median" in blob

    def test_finetune_outputs_do_not_depend_on_cpus(self, bundle, checkpoint, tmp_path):
        """A run pinned to one CPU writes the same report bytes and prints the
        same stdout as a run on every CPU this test may use."""
        argv = self._finetune_argv(bundle, checkpoint, tmp_path, "NoGrounding", "--runs", "8")
        code = "import sys; from groundlm.cli import main; sys.exit(main(sys.argv[1:]))"
        one_cpu = {min(os.sched_getaffinity(0))}
        outs = []
        for pin in (None, lambda: os.sched_setaffinity(0, one_cpu)):
            run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                 timeout=300, preexec_fn=pin,
                                 env=dict(os.environ, PYTHONPATH=str(SRC)))
            assert run.returncode == 0, run.stderr
            outs.append((run.stdout, (tmp_path / "rep.json").read_bytes()))
            (tmp_path / "rep.json").unlink()
        assert outs[1] == outs[0]
        assert json.loads(outs[0][1])["n_completed"] == 8

    def _finetune_argv(self, bundle, checkpoint, tmp_path, strategy, *extra):
        model, _ = checkpoint
        task = tmp_path / "task.tsv"
        rows = ["metric=accuracy labels=0,1"]
        for j in range(12):
            rows.append(f"{j % 2}\tc{j % 2:03d} f000 f001")
        task.write_text("\n".join(rows) + "\n")
        return ["finetune", "--strategy", strategy,
                "--vocab", str(bundle / "vocab.txt"), "--model", str(model),
                "--task", str(task), "--out-report", str(tmp_path / "rep.json"),
                "--features", str(bundle / "features.vftr"), "--k", "2",
                "--runs", "2", "--max-steps", "2", "--max-epochs", "1",
                "--batch-size", "4", "--val-fraction", "0.25", *extra]

    @pytest.mark.parametrize("eval_rows, needles", [
        ("metric=accuracy\n2\tc000 f000\n", ("eval label 2", "classes [0, 1]")),
        ("metric=spearman\n0.5\tc000 f000\n", ("metric spearman", "accuracy")),
    ], ids=["unseen_label", "other_metric"])
    def test_finetune_eval_task_that_does_not_fit_exits_1(self, bundle, checkpoint, tmp_path,
                                                          capsys, eval_rows, needles):
        eval_task = tmp_path / "eval.tsv"
        eval_task.write_text(eval_rows)
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "NoGrounding",
                                      "--eval-task", str(eval_task)))
        assert rc == 1
        assert_one_error_line(capsys, *needles)
        assert not (tmp_path / "rep.json").exists()

    def test_finetune_scene_without_captions_names_index(self, bundle, checkpoint,
                                                         tmp_path, capsys):
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "AssociativeScene",
                                      "--vectors", str(bundle / "wordvecs.txt")))
        assert rc == 1
        err = capsys.readouterr().err
        assert "requires a caption-keyed index" in err
        assert "fine-tune runs failed" not in err
        assert not (tmp_path / "rep.json").exists()

    def test_finetune_zero_vector_noun_completes(self, bundle, checkpoint, tmp_path, capsys):
        """A task noun with an all-zero word vector retrieves nothing: the
        probe completes every run, with no error."""
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "AssociativeObject",
                                      "--vectors", str(zeroed_vectors(bundle, tmp_path, "c000")),
                                      "--kappa", "2", "--synsets", str(bundle / "synsets.tsv"),
                                      "--nouns", str(bundle / "nouns.txt")))
        assert rc == 0
        assert capsys.readouterr().err == ""
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["n_completed"] == 2 and blob["errors"] == []

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_finetune_without_runs_exits_1(self, bundle, checkpoint, tmp_path, capsys, runs):
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "NoGrounding",
                                      "--runs", runs))
        assert rc == 1
        assert_one_error_line(capsys, f"n_runs >= 1, got {runs}")
        assert not (tmp_path / "rep.json").exists()

    def test_finetune_keyword_needs_no_vectors(self, bundle, checkpoint, tmp_path):
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "AssociativeKeyword",
                                      "--captions", str(bundle / "captions.tsv")))
        assert rc == 0
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["strategy"] == "AssociativeKeyword"
        assert blob["n_completed"] == 2


def pretrain_argv(bundle, tmp_path, strategy, name, *extra):
    return ["pretrain", "--strategy", strategy,
            "--vocab", str(bundle / "vocab.txt"),
            "--corpus", str(bundle / "corpus.txt"),
            "--out-model", str(tmp_path / f"{name}.glmc"),
            "--metrics", str(tmp_path / f"{name}.csv"),
            "--d", "8", "--d-v", "8", "--n-layers-text", "1",
            "--n-layers-cross", "1", "--n-heads", "2", "--max-len", "8",
            "--k-max", "2", "--max-steps", "2", "--batch-size", "8", *extra]


def zeroed_vectors(bundle, tmp_path, *words):
    """The bundle's word-vector file with ``words`` set to all-zero vectors."""
    lines = []
    for line in (bundle / "wordvecs.txt").read_text().splitlines():
        parts = line.split()
        lines.append(" ".join([parts[0]] + ["0.0"] * (len(parts) - 1))
                     if parts[0] in words else line)
    path = tmp_path / "zeroed.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    for needle in needles:
        assert needle in err, (needle, err)


class TestStaleFeatureManifest:
    def test_reordered_store_under_stale_manifest_trains_identically(self, bundle, tmp_path):
        src = ImageFeatureStore(bundle / "features.vftr")
        rows = [(image_id, src.get(image_id)) for image_id in src.offsets]
        # same ids in reverse order, next to an older bundle's offset sidecar
        # that still maps the original offsets
        features = tmp_path / "features.vftr"
        write_feature_store(features, rows[::-1], src.n_regions, src.feat_dim)
        sidecar = {"version": 1, "n_regions": src.n_regions, "feat_dim": src.feat_dim,
                   "offsets": src.offsets}
        (tmp_path / "features.vftr.manifest.json").write_text(json.dumps(sidecar))
        for name, store in (("orig", bundle / "features.vftr"), ("rev", features)):
            run_ok(pretrain_argv(bundle, tmp_path, "TransferredI2T", name,
                                 "--captions", str(bundle / "captions.tsv"),
                                 "--features", str(store), "--k", "1"))
        for ext in ("glmc", "csv"):
            assert (tmp_path / f"orig.{ext}").read_bytes() == \
                (tmp_path / f"rev.{ext}").read_bytes()


class TestStoreWidth:
    @pytest.mark.parametrize("strategy, extra", [
        ("TransferredBoth", ("--captions", "captions.tsv", "--k", "1")),
        ("AssociativeObject", ("--vectors", "wordvecs.txt", "--synsets", "synsets.tsv",
                               "--nouns", "nouns.txt", "--k", "2", "--kappa", "2")),
    ], ids=["TransferredBoth", "AssociativeObject"])
    def test_store_wider_than_d_v_names_store_and_d_v(self, bundle, tmp_path, capsys,
                                                       strategy, extra):
        extra = [str(bundle / a) if a.endswith((".tsv", ".txt")) else a for a in extra]
        argv = pretrain_argv(bundle, tmp_path, strategy, "m",
                             "--features", str(bundle / "features.vftr"), *extra)
        argv[argv.index("--d-v") + 1] = "4"  # the toy store holds 8-dim regions
        assert main(argv) == 1
        assert_one_error_line(capsys, str(bundle / "features.vftr"), "8-dim regions",
                              "d_v is 4")
        assert not (tmp_path / "m.glmc").exists()

    def test_store_regions_differ_from_n_regions_names_store(self, tmp_path, capsys):
        toy = tmp_path / "toy"
        run_ok(["make-toy-data", "--out", str(toy), "--seed", "3", "--vocab-size", "40",
                "--n-concepts", "12", "--n-examples", "40", "--d-w", "8", "--d-v", "8",
                "--n-regions", "2"])
        capsys.readouterr()
        argv = pretrain_argv(toy, tmp_path, "TransferredI2T", "m", "--captions",
                             str(toy / "captions.tsv"), "--features", str(toy / "features.vftr"),
                             "--k", "1")   # n_regions stays at its default, 1
        assert main(argv) == 1
        assert_one_error_line(capsys, str(toy / "features.vftr"), "holds 2 8-dim regions",
                              "n_regions is 1")
        assert not (tmp_path / "m.glmc").exists()


class TestMissingImage:
    """An image id that the feature store lacks is a runtime error naming
    the store and the id: exit 1, one line, no checkpoint."""

    def test_object_association_retrieves_absent_image(self, bundle, tmp_path, capsys):
        # every synset also keys a ghost image, which sorts first among its ties
        ghosted = []
        for n, line in enumerate((bundle / "synsets.tsv").read_text().splitlines()):
            *head, images = line.split("\t")
            ghosted.append("\t".join(head + [f"ghost{n:02d},{images}"]))
        synsets = tmp_path / "synsets.tsv"
        synsets.write_text("\n".join(ghosted) + "\n")
        rc = main(pretrain_argv(bundle, tmp_path, "AssociativeObject", "m",
                                "--features", str(bundle / "features.vftr"),
                                "--vectors", str(bundle / "wordvecs.txt"),
                                "--synsets", str(synsets), "--nouns", str(bundle / "nouns.txt"),
                                "--k", "2", "--kappa", "2"))
        assert rc == 1
        assert_one_error_line(capsys, str(bundle / "features.vftr"), "'ghost",
                              "not in feature store")
        assert not (tmp_path / "m.glmc").exists()

    def test_paired_caption_names_absent_image(self, bundle, tmp_path, capsys):
        captions = tmp_path / "captions.tsv"
        captions.write_text("".join(
            f"ghost{line}\n" for line in (bundle / "captions.tsv").read_text().splitlines()))
        rc = main(pretrain_argv(bundle, tmp_path, "TransferredI2T", "m",
                                "--captions", str(captions),
                                "--features", str(bundle / "features.vftr"), "--k", "1"))
        assert rc == 1
        assert_one_error_line(capsys, str(bundle / "features.vftr"), "'ghostimg",
                              "not in feature store")
        assert not (tmp_path / "m.glmc").exists()


class TestTrailingBytes:
    def test_associate_rejects_index_with_appended_bytes(self, bundle, caption_index,
                                                         tmp_path, capsys):
        index = tmp_path / "junk.vidx"
        index.write_bytes(caption_index.read_bytes() + b"\x00" * 8)
        queries = tmp_path / "q.txt"
        queries.write_text("c000 u000\n")
        rc = main(["associate", "--strategy", "scene", "--queries", str(queries),
                   "--index", str(index), "--vectors", str(bundle / "wordvecs.txt"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, str(index), "8 trailing byte(s)",
                              f"offset {caption_index.stat().st_size}")


class TestOldIndexVersion:
    def test_associate_rejects_version_1_index_naming_both_versions(self, bundle,
                                                                    caption_index,
                                                                    tmp_path, capsys):
        """A version 1 index (each item also held a kind byte and a u64 ref)
        must be rebuilt: loading it names the file and both versions."""
        index = load_index(caption_index)
        old = tmp_path / "v1.vidx"
        with open(old, "wb") as fh:
            fh.write(b"VIDX" + struct.pack("<IIQ", 1, index.dim, len(index)))
            for it in index.items:
                raw_id = it.id.encode("utf-8")
                fh.write(struct.pack("<I", len(raw_id)) + raw_id + struct.pack("<BQ", 0, 0))
                fh.write(it.key.astype("<f4").tobytes())
        queries = tmp_path / "q.txt"
        queries.write_text("c000 u000\n")
        rc = main(["associate", "--strategy", "scene", "--queries", str(queries),
                   "--index", str(old), "--vectors", str(bundle / "wordvecs.txt"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, str(old), "unsupported VIDX version 1, expected 2")
        assert not (tmp_path / "o.jsonl").exists()


class TestDuplicateIndexIds:
    def test_associate_rejects_index_with_repeated_id(self, bundle, caption_index,
                                                      tmp_path, capsys):
        index = load_index(caption_index)
        index.items[1].id = index.items[0].id
        dup = tmp_path / "dup.vidx"
        save_index(index, dup)
        queries = tmp_path / "q.txt"
        queries.write_text("c000 u000\n")
        rc = main(["associate", "--strategy", "scene", "--queries", str(queries),
                   "--index", str(dup), "--vectors", str(bundle / "wordvecs.txt"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, str(dup), f"duplicate id {index.items[0].id!r}")
        assert not (tmp_path / "o.jsonl").exists()


class TestTextInputErrors:
    """A malformed text input exits 1 with one error line that names the
    file and, for an error on one line, that line."""

    @staticmethod
    def argv(kind, bad, bundle, checkpoint, tmp_path):
        vectors, captions = str(bundle / "wordvecs.txt"), str(bundle / "captions.tsv")
        if kind in ("captions", "latin1", "vectors"):
            return ["build-index", "--kind", "caption",
                    "--input", bad if kind != "vectors" else captions,
                    "--vectors", bad if kind == "vectors" else vectors,
                    "--out", str(tmp_path / "x.vidx")]
        if kind == "task":
            return ["finetune", "--strategy", "NoGrounding", "--vocab", str(bundle / "vocab.txt"),
                    "--model", str(checkpoint[0]), "--task", bad,
                    "--out-report", str(tmp_path / "rep.json")]
        argv = pretrain_argv(bundle, tmp_path, "AssociativeObject", "m", "--nouns",
                             bad if kind == "nouns" else str(bundle / "nouns.txt"))
        if kind == "vocab":
            argv[argv.index("--vocab") + 1] = bad
        return argv

    @pytest.mark.parametrize("kind, content, needle", [
        ("captions", b"img1 a red dog\n", "line 1: expected image_id<TAB>caption"),
        ("vectors", b"red 1 2\ndog nan 2\n", "line 2: non-finite vector component"),
        ("task", b"metric=accuracy labels=0,x\n0\tc000\n", "line 1: labels=0,x"),
        ("vocab", "\n".join(RESERVED + ("dog", "cat", "dog")).encode(), "duplicate tokens"),
        ("nouns", b"# no nouns here\n\n", "noun lexicon is empty"),
        ("latin1", "img1\tcafe\nimg2\tcafé\n".encode("latin-1"),
         "line 2: not UTF-8 (byte 0xe9)"),
    ], ids=["captions", "vectors", "task", "vocab", "nouns", "latin1"])
    def test_error_names_file(self, bundle, checkpoint, tmp_path, capsys, kind, content,
                              needle):
        bad = tmp_path / f"bad_{kind}.txt"
        bad.write_bytes(content)
        assert main(self.argv(kind, str(bad), bundle, checkpoint, tmp_path)) == 1
        assert_one_error_line(capsys, f"{bad}: {needle}")
        assert not any((tmp_path / name).exists() for name in ("x.vidx", "rep.json", "m.glmc"))


class TestZeroVectorWords:
    """A word whose vector is all zero is no usable word: a text left with
    only such words falls back to the placeholder, and no run stops on it."""

    def test_object_pretrain_with_zero_vector_noun(self, bundle, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("c000 f001 f002\n" * 8 + "c000 c001 f003\n" * 8)
        rc = main(pretrain_argv(bundle, tmp_path, "AssociativeObject", "m",
                                "--corpus", str(corpus),
                                "--features", str(bundle / "features.vftr"),
                                "--vectors", str(zeroed_vectors(bundle, tmp_path, "c000")),
                                "--synsets", str(bundle / "synsets.tsv"),
                                "--nouns", str(bundle / "nouns.txt"), "--k", "2", "--kappa", "2"))
        assert rc == 0 and (tmp_path / "m.glmc").exists()

    def test_scene_pretrain_with_zero_vector_words(self, bundle, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("f001 zzz f002\n" * 16)
        rc = main(pretrain_argv(bundle, tmp_path, "AssociativeScene", "m",
                                "--corpus", str(corpus),
                                "--features", str(bundle / "features.vftr"),
                                "--vectors", str(zeroed_vectors(bundle, tmp_path, "f001", "f002")),
                                "--captions", str(bundle / "captions.tsv"), "--k", "2"))
        assert rc == 0 and (tmp_path / "m.glmc").exists()

    @pytest.mark.parametrize("strategy, kind, usable", [("scene", "caption", "f001 c003"),
                                                        ("object", "synset", "c000 c001")])
    def test_associate_reports_degenerate_query(self, bundle, tmp_path, strategy, kind, usable):
        index = tmp_path / "i.vidx"
        run_ok(["build-index", "--kind", kind, "--vectors", str(bundle / "wordvecs.txt"),
                "--input", str(bundle / ("captions.tsv" if kind == "caption" else "synsets.tsv")),
                "--out", str(index)])
        queries = tmp_path / "q.txt"
        queries.write_text(f"c000 f001 zzz\n{usable}\n")
        out = tmp_path / "o.jsonl"
        run_ok(["associate", "--strategy", strategy, "--queries", str(queries),
                "--index", str(index), "--nouns", str(bundle / "nouns.txt"), "--k", "2",
                "--vectors", str(zeroed_vectors(bundle, tmp_path, "c000", "f001")),
                "--out", str(out)])
        zero, kept = [json.loads(line) for line in out.read_text().splitlines()]
        assert zero["items"] == [] and zero["reason"] == "degenerate query: no usable tokens"
        assert len(kept["items"]) == 2 and "reason" not in kept


class TestPairedK:
    def test_paired_strategy_ignores_k(self, bundle, tmp_path):
        """A paired row shows its one image whatever --k says: K=16 and K=0
        train a k_max=2 model exactly as K=1 does."""
        outputs = []
        for k in ("1", "16", "0"):
            run_ok(pretrain_argv(bundle, tmp_path, "TransferredI2T", f"k{k}",
                                 "--captions", str(bundle / "captions.tsv"),
                                 "--features", str(bundle / "features.vftr"), "--k", k))
            outputs.append([(tmp_path / f"k{k}.{ext}").read_bytes() for ext in ("glmc", "csv")])
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
