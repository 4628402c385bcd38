"""Tests for the command-line interface (invoked in-process)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    return root


@pytest.fixture(scope="module")
def trained_bank_dir(workspace):
    """A small trained bank, independent of test ordering."""
    bank_dir = workspace / "rollup-bank"
    assert main(["train", "--out", str(bank_dir),
                 "--scale", "0.03", "--trees", "4", "--seed", "4"]) == 0
    return bank_dir


class TestCliWorkflow:
    def test_export_then_train_then_classify_then_campus(self, workspace,
                                                         capsys):
        dataset_dir = workspace / "dataset"
        bank_dir = workspace / "bank"

        assert main(["export-dataset", "--out", str(dataset_dir),
                     "--scale", "0.03", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "flows.pcap" in out
        assert (dataset_dir / "flows.pcap").exists()

        assert main(["train", "--out", str(bank_dir),
                     "--dataset", str(dataset_dir),
                     "--trees", "5", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Trained 5 scenarios" in out

        assert main(["classify", "--bank", str(bank_dir),
                     "--pcap", str(dataset_dir / "flows.pcap"),
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "Classified" in out
        assert "video flows" in out

        assert main(["campus", "--bank", str(bank_dir),
                     "--sessions", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Campus insight summary" in out
        assert "YT" in out
        assert "distinct sessions" in out

    def test_campus_rollup_retention_then_report(self, workspace,
                                                 trained_bank_dir,
                                                 capsys):
        rollup_dir = workspace / "rollup"
        capsys.readouterr()  # drop fixture training output
        assert main(["campus", "--bank", str(trained_bank_dir),
                     "--sessions", "40", "--seed", "3",
                     "--retention", "rollup",
                     "--save-rollup", str(rollup_dir)]) == 0
        out = capsys.readouterr().out
        assert "Campus insight summary" in out
        assert "Saved rollup snapshot" in out
        assert (rollup_dir / "rollup.json").exists()
        assert (rollup_dir / "rollup.npz").exists()

        assert main(["report", "--rollup", str(rollup_dir)]) == 0
        out = capsys.readouterr().out
        assert "Rollup snapshot:" in out
        assert "engagement per provider" in out
        assert "per-device detail" in out

    def test_campus_rollup_and_raw_reports_agree(self, trained_bank_dir,
                                                 capsys):
        """retention=rollup answers the summary from the cube alone;
        the headline table must match the raw-store run."""
        capsys.readouterr()  # drop fixture training output

        def summary(retention):
            assert main(["campus", "--bank", str(trained_bank_dir),
                         "--sessions", "40", "--seed", "3",
                         "--retention", retention]) == 0
            out = capsys.readouterr().out
            return out[out.index("Campus insight summary"):]

        raw = summary("raw")
        rollup = summary("rollup")
        # Watch hours and session counts are exact across retention
        # modes; median Mbps is sketch-backed (rank-bounded, and on
        # small cells an observed value rather than an interpolated
        # percentile — whole-Mbps divergence is possible). Compare
        # only the provider and watch-hour columns.
        for line_raw, line_rollup in zip(raw.splitlines(),
                                         rollup.splitlines()):
            assert line_raw.split("|")[:3] == line_rollup.split("|")[:3]

    def test_save_rollup_requires_rollup_retention(self, workspace,
                                                   capsys):
        assert main(["campus", "--bank", str(workspace / "bank"),
                     "--sessions", "5",
                     "--save-rollup", str(workspace / "r")]) == 2
        assert "--save-rollup requires" in capsys.readouterr().err

    def test_classify_bulk_and_eager_ingest_agree(self, workspace,
                                                  trained_bank_dir,
                                                  capsys):
        dataset_dir = workspace / "ingest-dataset"
        assert main(["export-dataset", "--out", str(dataset_dir),
                     "--scale", "0.03", "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["classify", "--bank", str(trained_bank_dir),
                     "--pcap", str(dataset_dir / "flows.pcap")]) == 0
        default_out = capsys.readouterr().out
        assert main(["classify", "--bank", str(trained_bank_dir),
                     "--pcap", str(dataset_dir / "flows.pcap"),
                     "--ingest", "bulk"]) == 0
        assert capsys.readouterr().out == default_out  # the default
        assert main(["classify", "--bank", str(trained_bank_dir),
                     "--pcap", str(dataset_dir / "flows.pcap"),
                     "--ingest", "eager"]) == 0
        assert capsys.readouterr().out == default_out
        assert "Classified" in default_out

    def test_removed_replay_knobs_are_argparse_errors(self, capsys):
        """``--ingest raw`` and ``--transport`` went with the paths
        they selected; the caller's surface picks the transport."""
        replay = ["--bank", "b", "--pcap", "x.pcap"]
        for argv, message in (
                (["classify", *replay, "--ingest", "raw"],
                 "invalid choice: 'raw'"),
                (["classify", *replay, "--transport", "shm"],
                 "unrecognized arguments: --transport"),
                (["campus", *replay, "--transport", "queue"],
                 "unrecognized arguments: --transport"),
                (["serve", "--bank", "b", "--source", "tail:x.pcap",
                  "--transport", "shm"],
                 "unrecognized arguments: --transport")):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err

    def test_campus_replays_pcap_through_packet_path(self, workspace,
                                                     trained_bank_dir,
                                                     capsys):
        dataset_dir = workspace / "replay-dataset"
        assert main(["export-dataset", "--out", str(dataset_dir),
                     "--scale", "0.03", "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["campus", "--bank", str(trained_bank_dir),
                     "--pcap", str(dataset_dir / "flows.pcap")]) == 0
        out = capsys.readouterr().out
        assert "Campus insight summary" in out
        assert "video flows" in out

    def test_classify_workers_matches_in_process(self, workspace,
                                                 trained_bank_dir,
                                                 capsys):
        """--workers N (multiprocess) must print exactly what the
        in-process runtimes print on the same capture — composed with
        --ingest, --batch-size, and --idle-timeout."""
        dataset_dir = workspace / "workers-dataset"
        assert main(["export-dataset", "--out", str(dataset_dir),
                     "--scale", "0.03", "--seed", "4"]) == 0
        capsys.readouterr()
        pcap = str(dataset_dir / "flows.pcap")
        base = ["classify", "--bank", str(trained_bank_dir),
                "--pcap", pcap, "--batch-size", "8",
                "--idle-timeout", "3600"]
        assert main(base + ["--shards", "2"]) == 0
        sharded_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        workers_out = capsys.readouterr().out
        assert workers_out == sharded_out
        assert main(base + ["--workers", "2", "--ingest", "eager"]) == 0
        assert capsys.readouterr().out == sharded_out

    def test_campus_workers_runs_synthetic_workload(self, workspace,
                                                    trained_bank_dir,
                                                    capsys):
        args = ["campus", "--bank", str(trained_bank_dir),
                "--sessions", "30", "--seed", "3"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_workers_and_shards_are_exclusive(self, workspace,
                                              trained_bank_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campus", "--bank", str(trained_bank_dir),
                  "--sessions", "5", "--workers", "2", "--shards", "2"])
        # Usage errors exit 2, like every other CLI validation failure.
        assert excinfo.value.code == 2
        assert "pick one" in capsys.readouterr().err

    def test_train_synthesizes_when_no_dataset(self, workspace, capsys):
        bank_dir = workspace / "bank2"
        assert main(["train", "--out", str(bank_dir),
                     "--scale", "0.03", "--trees", "4"]) == 0
        out = capsys.readouterr().out
        assert "Synthesizing lab dataset" in out
        assert (bank_dir / "manifest.json").exists()

    def test_train_rejects_zero_trees(self, workspace, capsys):
        bank_dir = workspace / "bank-zero"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", str(bank_dir), "--trees", "0"])
        assert exc.value.code != 0
        assert "--trees: must be a positive integer" in \
            capsys.readouterr().err
        assert not bank_dir.exists()

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_bank_fails_cleanly(self, workspace):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["campus", "--bank", str(workspace / "nope")])
