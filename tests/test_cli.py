import json
import struct

import pytest

from groundlm.cli import CONFIG_KEYS, RunConfig, build_parser, main


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
                str(bundle / "wordvecs.txt"), "--features",
                str(bundle / "features.vftr"), "--out", str(out)])
        report = capsys.readouterr().out
        assert "indexed 40 keys (0 degenerate skipped)" in report
        assert out.exists()

    def test_synset_index(self, bundle, tmp_path):
        run_ok(["build-index", "--kind", "synset", "--input",
                str(bundle / "synsets.tsv"), "--vectors",
                str(bundle / "wordvecs.txt"), "--out", str(tmp_path / "syn.vidx")])

    def test_empty_input_exits_1(self, bundle, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        rc = main(["build-index", "--kind", "caption", "--input", str(empty),
                   "--vectors", str(bundle / "wordvecs.txt"),
                   "--out", str(tmp_path / "x.vidx")])
        assert rc == 1
        assert "no entries" in capsys.readouterr().err

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

    def test_eval_ppl_unknown_checkpoint_config_key_exits_1(self, bundle, checkpoint,
                                                             tmp_path, capsys):
        model, _ = checkpoint
        blob = model.read_bytes()
        (config_len,) = struct.unpack("<I", blob[8:12])
        config = json.loads(blob[12:12 + config_len])
        config["bogus_key"] = 1
        raw = json.dumps(config, sort_keys=True).encode("utf-8")
        bad = tmp_path / "bad.glmc"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + config_len:])
        rc = main(["eval-ppl", "--strategy", "NoGrounding",
                   "--vocab", str(bundle / "vocab.txt"),
                   "--corpus", str(bundle / "corpus.txt"),
                   "--model", str(bad), "--seed", "7"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "bogus_key" in err

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

    def test_finetune_scene_without_captions_names_index(self, bundle, checkpoint,
                                                         tmp_path, capsys):
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "AssociativeScene",
                                      "--vectors", str(bundle / "wordvecs.txt")))
        assert rc == 1
        err = capsys.readouterr().err
        assert "requires a caption-keyed index" in err
        assert "fine-tune runs failed" not in err
        assert not (tmp_path / "rep.json").exists()

    def test_finetune_keyword_needs_no_vectors(self, bundle, checkpoint, tmp_path):
        rc = main(self._finetune_argv(bundle, checkpoint, tmp_path, "AssociativeKeyword",
                                      "--captions", str(bundle / "captions.tsv")))
        assert rc == 0
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["strategy"] == "AssociativeKeyword"
        assert blob["n_completed"] == 2
