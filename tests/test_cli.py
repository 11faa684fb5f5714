"""Command line: argument handling, file outputs, stage errors, determinism."""

import hashlib
import json
import math
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mallowmix import generator, pairs
from mallowmix.cli import main
from mallowmix.generator import (
    ITEM_LIMIT,
    USER_LIMIT,
    generate,
    read_corpus,
    read_model,
    write_corpus,
)
from mallowmix.mallows import MallowsComponent, build_ranking_matrix
from mallowmix.permutations import Permutation
from test_generator import write_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestGenerate:
    def test_writes_corpus_and_truth(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        truth_path = tmp_path / "truth.json"
        code, out, err = run(
            capsys, "generate", "--items", "6", "--components", "2",
            "--users", "40", "--comparisons", "10", "--phi", "0.2",
            "--alpha", "0.3", "--seed", "5",
            "-o", str(corpus_path), "--truth", str(truth_path))
        assert code == 0 and err == ""
        assert "wrote 400 records" in out

        corpus = read_corpus(corpus_path)
        assert corpus.Q == 6 and corpus.M == 40 and corpus.N == 10
        assert corpus.n_records == 400

        meta = json.loads(corpus_path.read_text().splitlines()[0])["meta"]
        assert meta["Q"] == 6 and meta["M"] == 40 and meta["N"] == 10
        assert meta["seed"] == 5
        assert meta["config"]["command"] == "generate"
        assert meta["config"]["phi"] == [0.2, 0.2]

        truth = read_json(truth_path)
        assert truth["Q"] == 6 and truth["K"] == 2
        assert truth["seed"] == 5
        assert truth["prior"] == {"type": "dirichlet", "alpha0": 0.3}
        assert len(truth["weights"]) == 40
        assert all(abs(sum(wv) - 1.0) < 1e-9 for wv in truth["weights"])
        assert truth["config"]["output"] == str(corpus_path)

    def test_rerun_with_same_flags_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        flags = ["generate", "--items", "5", "--components", "2",
                 "--users", "30", "--comparisons", "8", "--phi", "0.1",
                 "--seed", "9", "-o", "corpus.jsonl", "--truth", "truth.json"]
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            code, _, _ = run(capsys, *flags)
            assert code == 0
            blobs.append((d.joinpath("corpus.jsonl").read_bytes(),
                          d.joinpath("truth.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_different_seed_changes_corpus(self, tmp_path, capsys):
        outs = []
        for seed in ("1", "2"):
            code, _, _ = run(
                capsys, "generate", "--items", "5", "--components", "1",
                "--users", "20", "--comparisons", "6", "--phi", "0.3",
                "--seed", seed, "-o", str(tmp_path / f"c{seed}.jsonl"),
                "--truth", str(tmp_path / f"t{seed}.json"))
            assert code == 0
            outs.append((tmp_path / f"c{seed}.jsonl").read_text().splitlines()[1:])
        assert outs[0] != outs[1]

    def test_zero_dispersion_corpus_respects_drawn_reference(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--items", "7", "--components", "1",
            "--users", "25", "--comparisons", "12", "--phi", "0",
            "--seed", "4", "-o", str(tmp_path / "c.jsonl"),
            "--truth", str(tmp_path / "t.json"))
        assert code == 0
        ref = Permutation.from_ranking(read_json(tmp_path / "t.json")["components"][0]["ranking"])
        corpus = read_corpus(tmp_path / "c.jsonl")
        for w, l in zip(corpus.winner, corpus.loser):
            assert ref.position_of(int(w)) < ref.position_of(int(l))

    def test_model_file_input(self, tmp_path, capsys):
        from mallowmix.generator import DirichletPrior, MixedMembershipModel
        model = MixedMembershipModel(
            [MallowsComponent(Permutation.from_ranking([3, 1, 2]), 0.2)],
            DirichletPrior(1.0))
        write_model(model, tmp_path / "model.json")
        code, out, _ = run(
            capsys, "generate", "-i", str(tmp_path / "model.json"),
            "--users", "10", "--comparisons", "4",
            "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json"))
        assert code == 0
        assert read_json(tmp_path / "t.json")["components"][0]["ranking"] == [3, 1, 2]

    def test_config_errors_exit_2(self, tmp_path, capsys):
        base = ["--users", "10", "-o", str(tmp_path / "c.jsonl"),
                "--truth", str(tmp_path / "t.json")]
        # fewer than two comparisons per user cannot be split later
        code, _, err = run(capsys, "generate", "--items", "4", "--components", "1",
                           "--phi", "0.1", "--comparisons", "1", *base)
        assert code == 2 and "error in config stage" in err
        # alpha and vertex prior are mutually exclusive
        code, _, err = run(capsys, "generate", "--items", "4", "--components", "1",
                           "--phi", "0.1", "--comparisons", "4", "--alpha", "0.5",
                           "--vertex-prior", "1.0", *base)
        assert code == 2 and "error in config stage" in err
        # one phi per component, or a single shared value
        code, _, err = run(capsys, "generate", "--items", "4", "--components", "3",
                           "--phi", "0.1", "--phi", "0.2", "--comparisons", "4", *base)
        assert code == 2 and "error in config stage" in err
        code, _, err = run(capsys, "generate", "--items", "4", "--components", "1",
                           "--phi", "0.1", "--comparisons", "4", *base, "--users", "0")
        assert code == 2 and err == "error in config stage: --users must be at least 1\n"
        assert os.listdir(tmp_path) == []
        # a negative seed, in every command that takes one, before any work
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"Q": 4, "K": 1, "components": [{"ranking": [1, 2, 3, 4],
                                                                     "phi": 0.1}],
                                     "prior": {"type": "dirichlet", "alpha0": 0.1}}))
        for argv in (["generate", "--items", "5", "--components", "1", "--phi", "0.1",
                      "--comparisons", "4", *base],
                     ["generate", "-i", str(model), "--comparisons", "4", *base],
                     ["oracle", "--items", "3", "--components", "1", "--phi", "0.1"],
                     ["estimate", "-i", str(model), "-o", str(tmp_path / "e.json"),
                      "--components", "1"],
                     ["separability", "--items", "5", "--components", "2", "--phi", "0.1",
                      "--lambda", "0.2"]):
            for seed in ("-1", "-3"):
                code, out, err = run(capsys, *argv, "--seed", seed)
                assert code == 2 and out == "", argv
                assert err == f"error in config stage: --seed must be non-negative, got {seed}\n"
        assert os.listdir(tmp_path) == ["m.json"]

    @pytest.mark.parametrize("command", ["generate", "oracle"])
    @pytest.mark.parametrize("components", ["0", "-2"])
    def test_no_components_is_a_config_error(self, tmp_path, capsys, command, components):
        out = ["--users", "10", "--comparisons", "4", "-o", str(tmp_path / "c.jsonl"),
               "--truth", str(tmp_path / "t.json")] if command == "generate" else []
        code, _, err = run(capsys, command, "--items", "4", "--components", components,
                           "--phi", "0.1", *out)
        assert code == 2
        assert err == "error in config stage: need at least one component\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["generate", "oracle"])
    def test_one_item_is_a_config_error(self, tmp_path, capsys, command):
        out = ["--users", "10", "--comparisons", "4", "-o", str(tmp_path / "c.jsonl"),
               "--truth", str(tmp_path / "t.json")] if command == "generate" else []
        code, stdout, err = run(capsys, command, "--items", "1", "--components", "1",
                                "--phi", "0.1", *out)
        assert code == 2 and stdout == ""
        assert err == "error in config stage: need at least two items\n"
        assert os.listdir(tmp_path) == []
        # a model file with one item fails at read, naming the file
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"Q": 1, "K": 1, "components": [{"ranking": [1], "phi": 0.1}],
                                    "prior": {"type": "dirichlet", "alpha0": 0.1}}))
        code, _, err = run(capsys, command, "-i", str(path), *out)
        assert code == 2
        assert err == f"error in read stage: {path}: need at least two items\n"
        assert os.listdir(tmp_path) == ["one.json"]

    @pytest.mark.parametrize("command", ["generate", "oracle"])
    def test_items_and_users_past_the_corpus_limits(self, tmp_path, capsys, command):
        out = ["--users", "10", "--comparisons", "4", "-o", str(tmp_path / "c.jsonl"),
               "--truth", str(tmp_path / "t.json")] if command == "generate" else []
        code, _, err = run(capsys, command, "--items", "32768", "--components", "1",
                           "--phi", "0.1", *out)
        assert code == 2 and err == f"error in config stage: --items 32768: {ITEM_LIMIT}\n"
        if command == "generate":
            code, _, err = run(capsys, command, "--items", "4", "--components", "1",
                               "--phi", "0.1", *out, "--users", str(2**31))
            assert code == 2
            assert err == f"error in config stage: --users {2**31}: {USER_LIMIT}\n"
        assert os.listdir(tmp_path) == []

    def test_write_errors_name_the_requested_path(self, tmp_path, capsys):
        base = ["generate", "--items", "4", "--components", "1", "--phi", "0.1",
                "--users", "10", "--comparisons", "4"]
        missing = tmp_path / "missing"
        for paths in ([missing / "c.jsonl", tmp_path / "t.json"],
                      [tmp_path / "c.jsonl", missing / "t.json"]):
            code, _, err = run(capsys, *base, "-o", str(paths[0]), "--truth", str(paths[1]))
            assert code == 2
            bad = next(path for path in paths if path.parent == missing)
            assert err == (f"error in write stage: [Errno 2] No such file or directory: "
                           f"'{bad}'\n")
            assert not any(name.startswith(".tmp-") for name in os.listdir(tmp_path))

    def test_output_that_is_not_a_regular_file_exits_2(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        code, _, err = run(capsys, "generate", "--items", "4", "--components", "1",
                           "--phi", "0.1", "--users", "10", "--comparisons", "4",
                           "-o", str(fifo), "--truth", str(tmp_path / "t.json"))
        assert code == 2
        assert err == f"error in write stage: [Errno 22] not a regular file: '{fifo}'\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]

    def test_files_are_those_of_generate_and_write_corpus(self, tmp_path, capsys):
        flags = ["generate", "--items", "5", "--components", "3", "--users", "23",
                 "--comparisons", "5", "--phi", "0.2", "--alpha", "0.4", "--seed", "3",
                 "--truth", str(tmp_path / "t.json")]
        # 7 records per block: write_corpus's blocks end mid-user, and
        # generate_corpus_file draws and writes one user per block
        for chunk in (generator._WRITE_CHUNK, 7):
            path = tmp_path / f"c{chunk}.jsonl"
            with mock.patch.object(generator, "_WRITE_CHUNK", chunk):
                code, _, _ = run(capsys, *flags, "-o", str(path))
            assert code == 0
            meta = json.loads(path.read_bytes().split(b"\n", 1)[0])["meta"]
            for split in (generator._WRITE_CHUNK, 7):
                with mock.patch.object(generator, "_WRITE_CHUNK", split):
                    corpus, thetas = generate(read_model(tmp_path / "t.json"), 23, 5, 3)
                    write_corpus(corpus, tmp_path / "want.jsonl",
                                 {"seed": 3, "config": meta["config"]})
                assert path.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
                assert read_json(tmp_path / "t.json")["weights"] == thetas.tolist()

    def test_a_failed_block_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        record_bytes = generator._record_bytes
        calls = []

        def fail_second(*columns):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return record_bytes(*columns)

        monkeypatch.setattr(generator, "_record_bytes", fail_second)
        monkeypatch.setattr(generator, "_WRITE_CHUNK", 20)  # one user of 20 records a block
        code, _, err = run(capsys, "generate", "--items", "4", "--components", "2",
                           "--phi", "0.1", "--users", "5", "--comparisons", "20",
                           "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json"))
        assert code == 2 and err == "error in write stage: formatter failed\n"
        assert len(calls) == 2 and os.listdir(tmp_path) == []

    def test_memory_does_not_grow_with_the_users(self, tmp_path, capsys):
        # each block of users is written before the next is drawn, so past
        # one block only the (M, K) weights grow with M
        peaks = []
        for users in (400, 4000):
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "generate", "--items", "10", "--components", "2",
                                 "--phi", "0.2", "--users", str(users), "--comparisons", "100",
                                 "-o", str(tmp_path / "c.jsonl"),
                                 "--truth", str(tmp_path / "t.json"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_out_of_range_phi_exits_2(self, tmp_path, capsys):
        base = ["generate", "--items", "4", "--components", "2",
                "--users", "10", "--comparisons", "4",
                "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json")]
        for phi in ("nan", "1", "-0.1"):
            code, _, err = run(capsys, *base, "--phi", phi)
            assert code == 2 and "error in config stage" in err and "dispersion" in err
            assert not (tmp_path / "t.json").exists()

    def test_non_finite_prior_exits_2(self, tmp_path, capsys):
        # a NaN concentration used to pass validation and hang the sampler
        base = ["generate", "--items", "4", "--components", "2", "--phi", "0.1",
                "--users", "10", "--comparisons", "4",
                "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json")]
        for prior in (["--alpha", "nan"], ["--alpha", "inf"], ["--vertex-prior", "nan,nan"]):
            code, _, err = run(capsys, *base, *prior)
            assert code == 2 and "error in config stage" in err
            assert not (tmp_path / "t.json").exists()

    def test_vertex_prior(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--items", "5", "--components", "2",
            "--users", "30", "--comparisons", "6", "--phi", "0.1",
            "--vertex-prior", "0.5,0.5", "--seed", "0",
            "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json"))
        assert code == 0
        truth = read_json(tmp_path / "t.json")
        assert truth["prior"] == {"type": "vertex", "probs": [0.5, 0.5]}
        for wv in truth["weights"]:
            assert sorted(wv) == [0.0, 1.0]


class TestEstimateAndEvaluate:
    def generate_corpus(self, tmp_path, capsys, Q=8, K=2, phi="0.1",
                        users=3000, comparisons=40, seed=3):
        code, _, _ = run(
            capsys, "generate", "--items", str(Q), "--components", str(K),
            "--users", str(users), "--comparisons", str(comparisons),
            "--phi", phi, "--alpha", "0.2", "--seed", str(seed),
            "-o", str(tmp_path / "corpus.jsonl"), "--truth", str(tmp_path / "truth.json"))
        assert code == 0

    def test_end_to_end_recovery(self, tmp_path, capsys):
        self.generate_corpus(tmp_path, capsys)
        code, out, err = run(
            capsys, "estimate", "-i", str(tmp_path / "corpus.jsonl"),
            "-o", str(tmp_path / "est.json"), "--components", "2", "--seed", "0")
        assert code == 0
        assert "estimated 2 components over 8 items" in out
        m = re.fullmatch(r"estimate: (\d+) candidate rows, sigma_2 (\S+) and sigma_3 at least "
                         r"(\S+) \(ratio at most (\S+)\) after (\d+) subspace iterations, "
                         r"scorer window at most (\d+) rows, solid-angle margin (\S+) "
                         r"\((\d+) of (\d+) projections\); regression at most (\d+) "
                         r"iterations, worst residual (\S+); (\d+) clamped dispersions; "
                         r"dispersions refitted on the records after (\d+) weight cycles and "
                         r"(\d+) Newton steps, log-likelihood (\S+) per record read "
                         r"\(log 1/2 = -0\.6931\)\n", err)
        assert m, err
        assert int(m[1]) >= 2 and m[12] == "0"
        assert int(m[13]) >= 1 and int(m[14]) >= 1
        # the records' order carries information that a coin flip lacks
        assert math.log(0.5) < float(m[15]) < 0
        # two components stand well clear of the noise
        assert float(m[2]) > 5 * float(m[3]) > 0
        assert float(m[4]) == pytest.approx(float(m[2]) / float(m[3]), rel=1e-3)
        assert int(m[5]) >= 1 and 2 <= int(m[6]) <= int(m[1])
        # the margin is a whole number of the P = 150K projections
        assert m[9] == "300" and float(m[7]) * 300 == pytest.approx(int(m[8]), abs=1e-3)
        assert int(m[10]) >= 1 and 0 <= float(m[11]) < 1e-3

        est = read_json(tmp_path / "est.json")
        assert est["K"] == 2 and est["Q"] == 8
        assert est["prior"] is None
        assert est["seed"] == 0
        assert est["config"]["command"] == "estimate"
        assert est["config"]["projections"] == 300
        assert len(est["diagnostics"]["selected_pairs"]) == 2

        code, out, _ = run(
            capsys, "evaluate", "--truth", str(tmp_path / "truth.json"),
            "-i", str(tmp_path / "est.json"), "-o", str(tmp_path / "report.json"))
        assert code == 0
        report = read_json(tmp_path / "report.json")
        assert report == json.loads(out)
        assert report["normalized_kendall"] == 0.0
        assert report["per_component"] == [0, 0]
        assert max(report["phi_errors"]) < 0.05
        assert sorted(report["matching"]) == [0, 1]
        assert report["config"]["command"] == "evaluate"

    def test_estimate_deterministic(self, tmp_path, capsys):
        self.generate_corpus(tmp_path, capsys, users=500, comparisons=20)
        blobs = []
        for name in ("e1.json", "e2.json"):
            code, _, _ = run(
                capsys, "estimate", "-i", str(tmp_path / "corpus.jsonl"),
                "-o", str(tmp_path / name), "--components", "2", "--seed", "7")
            assert code == 0
        a = read_json(tmp_path / "e1.json")
        b = read_json(tmp_path / "e2.json")
        a["config"].pop("output"), b["config"].pop("output")
        assert a == b

    def test_exact_moments_mode(self, tmp_path, capsys):
        self.generate_corpus(tmp_path, capsys, Q=10, K=3, phi="0.2", users=10,
                             comparisons=4, seed=1)
        code, _, _ = run(
            capsys, "estimate", "--exact-moments", str(tmp_path / "truth.json"),
            "-o", str(tmp_path / "est.json"), "--components", "3")
        assert code == 0
        code, out, _ = run(
            capsys, "evaluate", "--truth", str(tmp_path / "truth.json"),
            "-i", str(tmp_path / "est.json"))
        assert code == 0
        report = json.loads(out)
        assert report["normalized_kendall"] == 0.0
        # dispersion carries a bias of the order of the mixing of the
        # selected rows, so only rankings are pinned exactly here
        assert max(report["phi_errors"]) < 0.05

    def test_detection_failure_names_stage(self, tmp_path, capsys):
        self.generate_corpus(tmp_path, capsys, Q=3, K=1, users=40, comparisons=6)
        code, _, err = run(
            capsys, "estimate", "-i", str(tmp_path / "corpus.jsonl"),
            "-o", str(tmp_path / "est.json"), "--components", "10")
        assert code == 2
        assert "error in detection stage" in err

    def test_bad_zeta_and_epsilon_exit_2(self, tmp_path, capsys):
        self.generate_corpus(tmp_path, capsys, Q=4, K=1, users=40, comparisons=6)
        base = ["estimate", "-i", str(tmp_path / "corpus.jsonl"),
                "-o", str(tmp_path / "est.json"), "--components", "1"]
        code, _, err = run(capsys, *base, "--zeta", "nan")
        assert code == 2 and "error in config stage" in err and "zeta" in err
        code, _, err = run(capsys, *base, "--epsilon", "-1")
        assert code == 2 and "error in config stage" in err and "epsilon" in err
        assert not (tmp_path / "est.json").exists()

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("source", ["-i", "--exact-moments"])
    def test_bad_epsilon_fails_before_any_input_is_read(self, tmp_path, capsys, epsilon,
                                                        source):
        # the input does not exist, so reading it would fail in the read stage
        code, out, err = run(capsys, "estimate", source, str(tmp_path / "missing"),
                             "-o", str(tmp_path / "est.json"), "--components", "1",
                             "--epsilon", epsilon)
        assert code == 2 and out == ""
        assert err == ("error in config stage: epsilon must be finite and nonnegative, "
                       f"got {float(epsilon)}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [["estimate", "--doubled-distance-rule"],
                                      ["estimate", "--threads", "2"],
                                      ["generate", "--threads", "2"]],
                             ids=["estimate-doubled", "estimate-threads", "generate-threads"])
    def test_removed_options_are_refused(self, tmp_path, capsys, monkeypatch, argv):
        # detection has one separation rule and neither command has threads
        monkeypatch.chdir(tmp_path)
        command, *flags = argv
        required = (["-i", "c.jsonl", "-o", "e.json", "--components", "2"]
                    if command == "estimate" else
                    ["--items", "4", "--components", "1", "--phi", "0.1", "--users", "10",
                     "--comparisons", "4", "-o", "c.jsonl", "--truth", "t.json"])
        with pytest.raises(SystemExit) as exit_info:
            main([command, *required, *flags])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        assert "--threads" not in text and "--doubled-distance-rule" not in text
        assert os.listdir(tmp_path) == []

    def test_estimate_requires_an_input(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "-o", str(tmp_path / "e.json"),
                           "--components", "2")
        assert code == 2
        assert "error in config stage" in err


class TestOtherCommands:
    def test_separability_output(self, tmp_path, capsys):
        out_path = tmp_path / "sep.json"
        code, out, _ = run(
            capsys, "separability", "--items", "5", "--components", "2",
            "--phi", "0.1", "--lambda", "0.2", "--runs", "200", "--seed", "3",
            "-o", str(out_path))
        assert code == 0
        obj = read_json(out_path)
        assert obj == json.loads(out)
        assert 0.0 <= obj["prob"] <= 1.0
        assert obj["runs"] == 200
        assert obj["config"]["command"] == "separability"
        # same seed, same answer
        code, out2, _ = run(
            capsys, "separability", "--items", "5", "--components", "2",
            "--phi", "0.1", "--lambda", "0.2", "--runs", "200", "--seed", "3")
        assert json.loads(out2)["prob"] == obj["prob"]

    def test_oracle_matches_closed_form(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, _, _ = run(
            capsys, "oracle", "--items", "4", "--components", "2",
            "--phi", "0.3", "--seed", "2", "-o", str(out_path))
        assert code == 0
        obj = read_json(out_path)
        comps = [MallowsComponent(Permutation.from_ranking(c["ranking"]), c["phi"])
                 for c in obj["components"]]
        want = build_ranking_matrix(comps)
        assert np.allclose(np.array(obj["beta"]), want, atol=1e-10)
        I, J = pairs.pair_arrays(4)
        assert obj["pairs"] == [[int(i), int(j)] for i, j in zip(I, J)]

    @pytest.mark.parametrize("phi", ["nan", "-0.2", "1.0", "1.5"])
    def test_separability_rejects_a_dispersion_outside_0_1(self, capsys, phi):
        code, out, err = run(capsys, "separability", "--items", "5", "--components", "2",
                             "--phi", phi, "--lambda", "0.2")
        assert code == 2 and out == ""
        assert err == (f"error in separability stage: dispersion must lie in [0, 1), "
                       f"got {float(phi)}\n")

    def test_separability_rejects_zero_components(self, capsys):
        code, _, err = run(capsys, "separability", "--items", "5", "--components", "0",
                           "--phi", "0.1", "--lambda", "0.2")
        assert code == 2
        assert err == "error in separability stage: need at least one component\n"

    def test_oracle_has_no_prior_options(self, capsys):
        # the oracle uses no weight prior, so it takes no prior flags
        for flag in (["--alpha", "0.3"], ["--vertex-prior", "1.0"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["oracle", "--items", "3", "--components", "1", "--phi", "0.2", *flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_oracle_refuses_large_items(self, capsys):
        code, _, err = run(capsys, "oracle", "--items", "9", "--components", "1",
                           "--phi", "0.1")
        assert code == 2
        assert "error in oracle stage" in err

    def test_predict_scores_corpus(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--items", "5", "--components", "2",
            "--users", "50", "--comparisons", "10", "--phi", "0.2",
            "--seed", "6", "-o", str(tmp_path / "c.jsonl"),
            "--truth", str(tmp_path / "t.json"))
        assert code == 0
        code, out, err = run(
            capsys, "predict", "--model", str(tmp_path / "t.json"),
            "-i", str(tmp_path / "c.jsonl"), "-o", str(tmp_path / "p.json"))
        assert code == 0
        assert re.fullmatch(r"weights: EM \d+ iterations, converged, last relative "
                            r"log-likelihood change \d\.\d{3}e-\d+\n", err), err
        obj = read_json(tmp_path / "p.json")
        assert obj["n"] == 500 and obj["zero_events"] == 0
        assert obj["avg_loglik"] < 0
        assert len(obj["theta"]) == 50
        assert "avg_loglik" in out
        assert obj["config"]["command"] == "predict"

    def test_predict_mismatched_items(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "generate", "--items", "5", "--components", "1",
            "--users", "10", "--comparisons", "4", "--phi", "0.2",
            "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json"))
        assert code == 0
        code, _, _ = run(
            capsys, "generate", "--items", "6", "--components", "1",
            "--users", "10", "--comparisons", "4", "--phi", "0.2",
            "-o", str(tmp_path / "c6.jsonl"), "--truth", str(tmp_path / "t6.json"))
        assert code == 0
        code, _, err = run(
            capsys, "predict", "--model", str(tmp_path / "t.json"),
            "-i", str(tmp_path / "c6.jsonl"))
        assert code == 2
        assert "error in read stage" in err


    def test_model_files_are_checked_at_read(self, tmp_path, capsys):
        # a vertex prior of 3 classes for 2 components, a ranking entry of
        # 1.7, a missing field, a value that is not a JSON object or list
        # and a short pair_dist entry each fail the read stage of every
        # command that reads them, naming the file and the rule
        code, _, _ = run(
            capsys, "generate", "--items", "4", "--components", "2",
            "--users", "10", "--comparisons", "4", "--phi", "0.2",
            "--vertex-prior", "0.5,0.5",
            "-o", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.json"))
        assert code == 0
        truth = read_json(tmp_path / "t.json")
        bad_prior = dict(truth, prior={"type": "vertex", "probs": [0.2, 0.3, 0.5]})
        bad_ranking = json.loads(json.dumps(truth))
        bad_ranking["components"][0]["ranking"][0] += 0.7
        no_phi = json.loads(json.dumps(truth))
        del no_phi["components"][0]["phi"]
        for obj, message in ((bad_prior, "class probabilities do not match K"),
                             (bad_ranking, "ranking entry must be a JSON integer"),
                             ({"Q": 3}, "model has no 'components' field"),
                             (no_phi, "component 0 has no 'phi' field"),
                             (dict(truth, prior={"type": "dirichlet"}),
                              "prior has no 'alpha0' field"),
                             ([], "model is not a JSON object"),
                             (dict(truth, components=5), "components is not a JSON list"),
                             (dict(truth, pair_dist=0), "pair_dist is not a JSON list"),
                             (dict(truth, pair_dist=[[1, 2]]),
                              "pair_dist entry [1, 2] must be [i, j, p]")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(obj))
            for argv in (["predict", "--model", str(path), "-i", str(tmp_path / "c.jsonl"),
                          "-o", str(tmp_path / "p.json")],
                         ["generate", "-i", str(path), "--users", "10", "--comparisons", "4",
                          "-o", str(tmp_path / "c2.jsonl"), "--truth", str(tmp_path / "t2.json")]):
                code, _, err = run(capsys, *argv)
                assert code == 2
                assert err.startswith(f"error in read stage: {path}: ") and message in err, err


class TestGoldenPipeline:
    def test_toy_pipeline_bytes(self, tmp_path, capsys, monkeypatch):
        # Pins the bytes of a fixed-seed generate run and the integer
        # outputs of estimate on it, so a change that means to keep every
        # output byte fails here when it does not.
        monkeypatch.chdir(tmp_path)  # the files record their relative paths
        code, _, _ = run(capsys, "generate", "--items", "6", "--components", "2",
                         "--users", "200", "--comparisons", "20", "--phi", "0.2",
                         "--alpha", "0.5", "--seed", "11",
                         "-o", "corpus.jsonl", "--truth", "truth.json")
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("corpus.jsonl", "truth.json")}
        assert digests == {
            "corpus.jsonl": "5e4cebd94fada81509152e20b20a70c34586dcf4197aaceec20c4a84d4ddb9e2",
            "truth.json": "9e2760aa5ce76542f69c8387df049a6cc2c18ebe28606fadaa41dd1c00d94173",
        }
        code, _, _ = run(capsys, "estimate", "-i", "corpus.jsonl", "-o", "est.json",
                         "--components", "2")
        assert code == 0
        est = read_json(tmp_path / "est.json")
        assert est["diagnostics"]["selected_rows"] == [1, 24]
        # the fields that no option sets any more keep their values
        assert est["config"]["threads"] == 1 and est["config"]["doubled_distance_rule"] is False
        assert [c["ranking"] for c in est["components"]] == [
            [1, 3, 6, 2, 4, 5], [4, 3, 2, 5, 1, 6]]
