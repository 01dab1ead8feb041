"""Tests for the command-line interface."""

import http.client
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import LanguageIdentifier
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "generate-corpus", "train", "classify", "segment", "evaluate", "sweep",
            "tables", "serve"
        ):
            args = {
                "generate-corpus": ["generate-corpus", "--output", "x"],
                "train": ["train", "--corpus", "c", "--output", "o"],
                "classify": ["classify", "--model", "m", "file.txt"],
                "segment": ["segment", "--model", "m", "file.txt"],
                "evaluate": ["evaluate"],
                "sweep": ["sweep"],
                "tables": ["tables"],
                "serve": ["serve", "--model", "m.bin"],
            }[command]
            parsed = parser.parse_args(args)
            assert parsed.command == command

    def test_languages_strip_whitespace(self):
        parsed = build_parser().parse_args(["evaluate", "--languages", " en, fr "])
        assert parsed.languages == ["en", "fr"]

    def test_languages_reject_empty_entries(self, capsys):
        for bad in ("en,,fr", " , en", ""):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["evaluate", "--languages", bad])
            assert "non-empty" in capsys.readouterr().err

    def test_backend_choices_are_registered_backends(self):
        parsed = build_parser().parse_args(["train", "--corpus", "c", "--output", "o",
                                            "--backend", "exact"])
        assert parsed.backend == "exact"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--corpus", "c", "--output", "o",
                                       "--backend", "nope"])


class TestEndToEndCLI:
    @pytest.fixture()
    def trained_model(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        model_path = tmp_path / "model.bin"
        assert main(
            [
                "generate-corpus",
                "--languages", "en,fr",
                "--docs-per-language", "4",
                "--words-per-document", "150",
                "--seed", "3",
                "--output", str(corpus_dir),
            ]
        ) == 0
        assert main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model_path),
                "--profile-size", "800",
            ]
        ) == 0
        return corpus_dir, model_path

    def test_generate_train_classify_roundtrip(self, trained_model, capsys):
        corpus_dir, model_path = trained_model
        assert (corpus_dir / "en").is_dir() and (corpus_dir / "fr").is_dir()
        en_files = sorted((corpus_dir / "en").glob("*.txt"))
        assert len(en_files) == 4
        assert model_path.is_file()

        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), str(en_files[0])]) == 0
        output = capsys.readouterr().out
        assert "en" in output.splitlines()[-1]

    def test_classify_with_backend_override(self, trained_model, capsys):
        corpus_dir, model_path = trained_model
        fr_file = sorted((corpus_dir / "fr").glob("*.txt"))[0]
        capsys.readouterr()
        assert main(
            ["classify", "--model", str(model_path), "--backend", "exact", str(fr_file)]
        ) == 0
        assert ": fr" in capsys.readouterr().out

    def test_classify_reads_stdin(self, trained_model, capsys, monkeypatch):
        corpus_dir, model_path = trained_model
        fr_text = sorted((corpus_dir / "fr").glob("*.txt"))[0].read_text(encoding="latin-1")
        monkeypatch.setattr("sys.stdin", io.StringIO(fr_text))
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "-"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("<stdin>: fr")

    def test_classify_reports_confidence(self, trained_model, capsys):
        corpus_dir, model_path = trained_model
        en_file = sorted((corpus_dir / "en").glob("*.txt"))[0]
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), str(en_file)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert "confidence=" in line
        value = float(line.split("confidence=")[1].split()[0])
        assert 0.0 <= value <= 1.0

    def test_segment_mixed_file_human_output(self, trained_model, capsys, tmp_path):
        from repro.corpus.generator import MixedDocumentGenerator

        _, model_path = trained_model
        mixed = MixedDocumentGenerator(("en", "fr"), seed=8, words_per_segment=100).generate(0)
        mixed_file = tmp_path / "mixed.txt"
        mixed_file.write_text(mixed.text, encoding="latin-1")
        capsys.readouterr()
        assert main(["segment", "--model", str(model_path), str(mixed_file)]) == 0
        output = capsys.readouterr().out
        assert "span(s), dominant=" in output.splitlines()[0]
        assert "confidence=" in output

    def test_segment_json_output_tiles_document(self, trained_model, capsys, tmp_path):
        import json

        from repro.corpus.generator import MixedDocumentGenerator

        _, model_path = trained_model
        mixed = MixedDocumentGenerator(("en", "fr"), seed=9, words_per_segment=100).generate(1)
        mixed_file = tmp_path / "mixed.txt"
        mixed_file.write_text(mixed.text, encoding="latin-1")
        capsys.readouterr()
        assert main(
            ["segment", "--model", str(model_path), "--json", str(mixed_file)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["file"] == str(mixed_file)
        spans = payload["spans"]
        assert spans[0]["start"] == 0 and spans[-1]["end"] == len(mixed.text)
        for left, right in zip(spans, spans[1:]):
            assert left["end"] == right["start"]

    def test_segment_reads_stdin(self, trained_model, capsys, monkeypatch):
        corpus_dir, model_path = trained_model
        fr_text = sorted((corpus_dir / "fr").glob("*.txt"))[0].read_text(encoding="latin-1")
        monkeypatch.setattr("sys.stdin", io.StringIO(fr_text))
        capsys.readouterr()
        assert main(["segment", "--model", str(model_path), "-"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("<stdin>: 1 span(s), dominant=fr")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--switch-penalty", "nan"],
            ["--switch-penalty", "-1"],
            ["--window", "100", "--stride", "400"],
        ],
        ids=["nan-penalty", "negative-penalty", "stride-beyond-window"],
    )
    def test_segment_reports_an_invalid_setting_in_one_line(
        self, flags, trained_model, capsys, tmp_path
    ):
        # the settings are checked before any input file is read, so a missing
        # input never gets a chance to fail first
        _, model_path = trained_model
        missing = tmp_path / "missing.txt"
        capsys.readouterr()
        assert main(["segment", "--model", str(model_path), *flags, str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_model_artifact_is_versioned(self, trained_model):
        _, model_path = trained_model
        raw = model_path.read_bytes()
        assert raw[:8] == b"RLIDFLT1"  # the flat container's magic
        header_len = int.from_bytes(raw[8:16], "little")
        meta = json.loads(raw[16 : 16 + header_len])["meta"]
        assert meta["format"] == "repro-langid-model"
        assert meta["version"] == 1
        assert set(meta["languages"]) == {"en", "fr"}
        assert meta["config"]["backend"] == "bloom"

    def test_train_flat_format_and_classify(self, trained_model, capsys):
        corpus_dir, _ = trained_model
        flat_path = corpus_dir.parent / "model_flat"
        assert main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(flat_path),
                "--profile-size", "800",
            ]
        ) == 0
        assert flat_path.is_file()  # --output is written verbatim, no suffix added
        assert flat_path.read_bytes()[:8] == b"RLIDFLT1"
        assert f"model saved to {flat_path}" in capsys.readouterr().out
        en_file = sorted((corpus_dir / "en").glob("*.txt"))[0]
        assert main(["classify", "--model", str(flat_path), str(en_file)]) == 0
        assert ": en" in capsys.readouterr().out
        with pytest.raises(SystemExit):  # one container: there is nothing to choose
            build_parser().parse_args(
                ["train", "--corpus", "c", "--output", "o", "--format", "flat"]
            )

    #: small fast evaluation-matrix invocation shared by the evaluate tests
    EVALUATE_ARGS = [
        "evaluate",
        "--languages", "en,fi",
        "--docs-per-language", "6",
        "--words-per-document", "150",
        "--train-fraction", "0.34",
        "--profile-size", "800",
        "--lengths", "10,40",
        "--scenarios", "clean,typo:0.1",
    ]

    def test_evaluate_prints_accuracy_matrix(self, capsys):
        exit_code = main(self.EVALUATE_ARGS)
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "average accuracy" in output
        assert "%" in output
        assert "Evaluation matrix" in output
        assert "Degradation curves" in output
        assert "Confidence calibration" in output
        # default backend trio appears as matrix columns
        for backend in ("bloom", "exact", "mguesser"):
            assert backend in output

    def test_evaluate_with_exact_backend(self, capsys):
        exit_code = main(self.EVALUATE_ARGS + ["--backend", "exact"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "average accuracy" in output
        assert "mguesser" not in output  # --backend narrows the matrix to one engine

    def test_evaluate_json_output(self, capsys):
        import json

        exit_code = main(self.EVALUATE_ARGS + ["--backends", "bloom,exact", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backends"] == ["bloom", "exact"]
        assert payload["lengths"] == [10, 40]
        assert len(payload["cells"]) == 2 * 2 * 2
        assert "curves" in payload and "calibrators" in payload

    def test_evaluate_golden_round_trip(self, tmp_path, capsys):
        golden_path = tmp_path / "golden.json"
        assert main(self.EVALUATE_ARGS + ["--write-golden", str(golden_path)]) == 0
        assert golden_path.exists()
        capsys.readouterr()
        # same seeded configuration → no drift, exit 0
        assert main(self.EVALUATE_ARGS + ["--check-golden", str(golden_path)]) == 0
        # a different noise matrix → structural drift, exit 1
        drifted = [
            arg if arg != "clean,typo:0.1" else "clean,typo:0.3"
            for arg in self.EVALUATE_ARGS
        ]
        capsys.readouterr()
        assert main(drifted + ["--check-golden", str(golden_path)]) == 1
        assert "GOLDEN DRIFT" in capsys.readouterr().err

    def test_evaluate_without_clean_scenario_still_renders(self, capsys):
        args = [
            arg if arg != "clean,typo:0.1" else "typo:0.1,typo:0.3"
            for arg in self.EVALUATE_ARGS
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        # the baseline falls back to the first scenario instead of crashing
        assert "typo:0.1" in output
        assert "average accuracy" in output

    def test_evaluate_rejects_bad_axis_specs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--backends", "bloom,nope"])
        assert "unknown backends" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--lengths", "10,0"])
        assert "positive integers" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--backends", "bloom,bloom"])
        assert "duplicate" in capsys.readouterr().err

    def test_tables_prints_model_vs_paper(self, capsys):
        assert main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "Table 2" in output and "Table 3" in output
        assert "1.4 GB/s" in output or "GB/s" in output


#: a corpus small enough that a command fails on its settings in well under a second
SMALL_CORPUS = ["--languages", "en,fi", "--docs-per-language", "3", "--words-per-document", "60"]


class TestBadInput:
    """Bad input is one ``error:`` line on stderr and exit code 2, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bad-input")
        corpus_dir = root / "corpus"
        assert main(
            ["generate-corpus", "--languages", "en,fr", "--docs-per-language", "2",
             "--words-per-document", "80", "--seed", "3", "--output", str(corpus_dir)]
        ) == 0
        assert main(
            ["train", "--corpus", str(corpus_dir), "--output", str(root / "model.bin"),
             "--profile-size", "300"]
        ) == 0
        (root / "bad.bin").write_bytes(b"not a model artifact")
        (root / "registry").mkdir()
        for name, line in {
            "array.jsonl": "[1, 2]",
            "nan.jsonl": '{"text": "a document", "ts": NaN}',
            "inf.jsonl": '{"text": "a document", "ts": Infinity}',
            "minus-inf.jsonl": '{"text": "a document", "ts": -Infinity}',
        }.items():
            (root / name).write_text(line + "\n", encoding="utf-8")
        return root

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--model", "missing.bin", "corpus/en/en-00000.txt"],
            ["classify", "--model", "bad.bin", "corpus/en/en-00000.txt"],
            ["segment", "--model", "missing.bin", "corpus/en/en-00000.txt"],
            ["segment", "--model", "bad.bin", "corpus/en/en-00000.txt"],
            ["analyze", "--model", "missing.bin", "corpus"],
            ["analyze", "--model", "bad.bin", "corpus"],
            ["serve", "--model", "missing.bin", "--port", "0"],
            ["serve", "--model", "bad.bin", "--port", "0"],
            ["serve", "--port", "0"],
            ["serve", "--registry", "registry", "--port", "0"],
            ["models", "inspect", "--registry", "registry"],
            ["classify", "--model", "model.bin", "missing.txt"],
            ["segment", "--model", "model.bin", "missing.txt"],
            ["analyze", "--model", "model.bin", "missing.jsonl"],
            ["evaluate", *SMALL_CORPUS, "--train-fraction", "1.5"],
            ["evaluate", *SMALL_CORPUS, "--scenarios", "typo:abc"],
            ["sweep", *SMALL_CORPUS, "--train-fraction", "0"],
            ["generate-corpus", "--languages", "xx", "--output", "out"],
            ["analyze", "--model", "model.bin", "array.jsonl"],
            ["analyze", "--model", "model.bin", "nan.jsonl", "--timestamp-field", "ts"],
            ["analyze", "--model", "model.bin", "inf.jsonl", "--timestamp-field", "ts"],
            ["analyze", "--model", "model.bin", "minus-inf.jsonl", "--timestamp-field", "ts"],
        ],
        ids=[
            "classify-missing-model", "classify-malformed-model",
            "segment-missing-model", "segment-malformed-model",
            "analyze-missing-model", "analyze-malformed-model",
            "serve-missing-model", "serve-malformed-model", "serve-no-model",
            "serve-empty-registry", "models-empty-registry",
            "classify-missing-input", "segment-missing-input", "analyze-missing-input",
            "evaluate-train-fraction", "evaluate-scenario-level", "sweep-train-fraction",
            "generate-corpus-language", "analyze-record-not-an-object",
            "analyze-nan-timestamp", "analyze-infinite-timestamp",
            "analyze-minus-infinite-timestamp",
        ],
    )
    def test_reports_bad_input_in_one_line(self, argv, workdir, capsys, monkeypatch):
        monkeypatch.chdir(workdir)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "Traceback" not in err


class TestBatchSizeFlag:
    def test_train_persists_batch_size_in_config(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        model_path = tmp_path / "model.bin"
        assert main(
            [
                "generate-corpus",
                "--languages", "en,fr",
                "--docs-per-language", "4",
                "--words-per-document", "150",
                "--seed", "3",
                "--output", str(corpus_dir),
            ]
        ) == 0
        assert main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model_path),
                "--profile-size", "800",
                "--batch-size", "17",
            ]
        ) == 0
        from repro.api import LanguageIdentifier

        assert LanguageIdentifier.load(model_path).config.stream_batch_size == 17

    def test_classify_accepts_batch_size_override(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        model_path = tmp_path / "model.bin"
        main(
            [
                "generate-corpus",
                "--languages", "en,fr",
                "--docs-per-language", "4",
                "--words-per-document", "150",
                "--seed", "3",
                "--output", str(corpus_dir),
            ]
        )
        main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model_path),
                "--profile-size", "800",
            ]
        )
        files = [str(p) for p in sorted((corpus_dir / "en").glob("*.txt"))]
        capsys.readouterr()
        assert main(
            ["classify", "--model", str(model_path), "--batch-size", "2", *files]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(files)
        assert all(": en" in line for line in lines)

    @pytest.mark.parametrize("command", ["train", "classify"])
    def test_batch_size_must_be_positive(self, command, capsys):
        argv = {
            "train": ["train", "--corpus", "c", "--output", "o", "--batch-size", "0"],
            "classify": ["classify", "--model", "m", "--batch-size", "-3", "f.txt"],
        }[command]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "positive" in capsys.readouterr().err


class TestServeParser:
    def test_serve_defaults(self):
        parsed = build_parser().parse_args(["serve", "--model", "m.bin"])
        assert parsed.command == "serve"
        assert parsed.port == 8000
        assert parsed.max_batch == 64
        assert parsed.max_delay_ms == 2.0
        assert parsed.replicas == 1
        assert parsed.executor == "thread"
        assert parsed.cache_size == 1024
        assert parsed.max_pending == 1024

    def test_serve_overrides(self):
        parsed = build_parser().parse_args(
            [
                "serve", "--model", "m.bin", "--port", "0", "--max-batch", "128",
                "--max-delay-ms", "0.5", "--replicas", "4",
                "--executor", "process", "--cache-size", "0", "--max-pending", "32",
            ]
        )
        assert (parsed.max_batch, parsed.replicas) == (128, 4)
        assert parsed.max_delay_ms == 0.5 and parsed.cache_size == 0
        assert parsed.executor == "process"

    def test_serve_rejects_unknown_executor(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--model", "m.bin", "--executor", "fiber"]
            )
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--max-batch", "0"), ("--replicas", "-1"), ("--max-pending", "0")]
    )
    def test_serve_rejects_non_positive_knobs(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--model", "m.bin", flag, value])
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--replicas", "2"], "--executor process"),
            (["--trace-sample-rate", "2"], "sample_rate"),
            (["--max-delay-ms", "-1"], "max_delay_ms"),
        ],
        ids=["replicas", "trace-sample-rate", "max-delay-ms"],
    )
    def test_serve_reports_an_invalid_setting_in_one_line(
        self, flags, message, tmp_path, capsys
    ):
        # the settings are checked before the model is opened, so a missing
        # model file never gets a chance to fail first
        missing = tmp_path / "missing.bin"
        assert main(["serve", "--model", str(missing), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]


class TestServeShutdown:
    def test_sigterm_drains_and_leaves_no_model_files(self, train_corpus, tmp_path):
        """``kill`` ends ``repro serve`` the way Ctrl-C does: exit 0, temp dir clean.

        The process tier keeps its model file in a ``repro-pool-*`` directory
        under the temp dir, which only a graceful close removes.
        """
        model = LanguageIdentifier(t=800).train(train_corpus).save(tmp_path / "model.bin")
        private_tmp = tmp_path / "tmp"
        private_tmp.mkdir()
        env = {
            **os.environ,
            "TMPDIR": str(private_tmp),
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--model", str(model),
             "--port", "0", "--executor", "process"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            # the banner names the bound port once the service is up
            assert select.select([server.stdout], [], [], 120)[0], "no banner"
            port = int(re.search(r"http://[^:]+:(\d+)", server.stdout.readline()).group(1))
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            connection.request(
                "POST", "/classify", body=json.dumps({"text": "the first document here"}),
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 200
            connection.close()
            assert list(private_tmp.glob("repro-pool-*"))
            server.send_signal(signal.SIGTERM)
            _out, err = server.communicate(timeout=120)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, err
        assert list(private_tmp.glob("repro-pool-*")) == []


class TestEnsembleCLI:
    @pytest.fixture()
    def ensemble_model(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        model_path = tmp_path / "ensemble.bin"
        priors_path = tmp_path / "priors.json"
        main(
            [
                "generate-corpus",
                "--languages", "en,fr",
                "--docs-per-language", "4",
                "--words-per-document", "150",
                "--seed", "3",
                "--output", str(corpus_dir),
            ]
        )
        # the payload `repro analyze --priors` writes from live traffic
        priors_path.write_text(
            json.dumps(
                {
                    "schema": "repro.analytics.priors/v1",
                    "sources": {"wire": {"languages": {"en": 0.9, "fr": 0.1}}},
                }
            ),
            encoding="utf-8",
        )
        assert main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model_path),
                "--profile-size", "800",
                "--backend", "ensemble",
                "--members", "bloom,exact",
                "--min-ngrams", "3",
                "--priors", str(priors_path),
            ]
        ) == 0
        return corpus_dir, model_path

    def test_members_cannot_include_the_ensemble_itself(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--corpus", "c", "--output", "o",
                 "--backend", "ensemble", "--members", "bloom,ensemble"]
            )
        assert "member" in capsys.readouterr().err

    def test_train_reports_members_and_priors(self, ensemble_model, capsys):
        # re-train to capture the summary line (the fixture swallowed it)
        corpus_dir, model_path = ensemble_model
        assert main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model_path),
                "--profile-size", "800",
                "--backend", "ensemble",
                "--members", "bloom,exact",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "ensemble members=bloom,exact" in output
        assert "calibrated=True" in output

    def test_classify_with_source_tag(self, ensemble_model, capsys):
        corpus_dir, model_path = ensemble_model
        en_file = sorted((corpus_dir / "en").glob("*.txt"))[0]
        capsys.readouterr()
        assert main(
            ["classify", "--model", str(model_path),
             "--source", "wire", str(en_file)]
        ) == 0
        assert ": en" in capsys.readouterr().out

    def test_classify_gated_document_prints_abstention(
        self, ensemble_model, tmp_path, capsys
    ):
        _, model_path = ensemble_model
        stub = tmp_path / "stub.txt"
        stub.write_text("okay", encoding="latin-1")
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), str(stub)]) == 0
        output = capsys.readouterr().out
        assert ": und" in output and "abstained=too_short" in output

    def test_classify_priors_require_prior_aware_backend(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        model_path = tmp_path / "model.bin"
        priors_path = tmp_path / "priors.json"
        main(
            [
                "generate-corpus",
                "--languages", "en,fr",
                "--docs-per-language", "4",
                "--words-per-document", "150",
                "--seed", "3",
                "--output", str(corpus_dir),
            ]
        )
        main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model_path),
                "--profile-size", "800",
            ]
        )
        priors_path.write_text(
            json.dumps({"schema": "repro.analytics.priors/v1", "sources": {}}),
            encoding="utf-8",
        )
        en_file = sorted((corpus_dir / "en").glob("*.txt"))[0]
        capsys.readouterr()
        assert main(
            ["classify", "--model", str(model_path),
             "--priors", str(priors_path), str(en_file)]
        ) == 2
        assert "prior-aware" in capsys.readouterr().err
