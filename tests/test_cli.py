"""The command-line interface."""

import pytest

from repro.cli import main


def test_datasets_lists_all_six(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("jackson", "miami", "tucson", "dashcam", "park", "airport"):
        assert name in out


def test_focus_command(capsys):
    assert main(["focus", "--selectivity", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "r = 3" in out


def test_configure_command(capsys):
    assert main(["configure", "--operators", "Motion,License,OCR"]) == 0
    out = capsys.readouterr().out
    assert "SFg" in out
    assert "ingest cost" in out


def test_configure_with_storage_budget(capsys):
    assert main([
        "configure", "--operators", "Motion,License",
        "--storage-budget-tb", "1.0",
    ]) == 0
    out = capsys.readouterr().out
    assert "decay factor" in out


def test_query_command(capsys):
    assert main([
        "query", "B", "--operators", "Motion,License,OCR",
        "--dataset", "dashcam", "--accuracy", "0.8",
    ]) == 0
    out = capsys.readouterr().out
    assert "x realtime" in out
    assert "Motion" in out


def test_ingest_and_execute_roundtrip(tmp_path, capsys):
    workdir = str(tmp_path / "store")
    assert main([
        "ingest", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--segments", "4",
    ]) == 0
    assert main([
        "execute", "B", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam",
        "--accuracy", "0.8", "--t0", "0", "--t1", "32",
    ]) == 0
    out = capsys.readouterr().out
    assert "ingested 4 segments" in out
    assert "executed query" in out


def test_trace_summary_and_metrics_commands(tmp_path, capsys):
    workdir = str(tmp_path / "store")
    assert main([
        "ingest", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--segments", "4",
    ]) == 0
    assert main([
        "trace", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--query", "B",
        "--accuracy", "0.8", "--t1", "32", "--queries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "bound by" in out  # critical-path table
    assert "peak wait" in out  # queue-depth table
    assert "executor.runs" in out  # metrics table
    assert main([
        "metrics", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--query", "B",
        "--accuracy", "0.8", "--t1", "32", "--queries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "query.latency_seconds" in out
    assert "p99" in out


def test_trace_export_command(tmp_path, capsys):
    workdir = str(tmp_path / "store")
    outdir = tmp_path / "bundle"
    assert main([
        "ingest", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--segments", "4",
    ]) == 0
    assert main([
        "trace", "export", "--operators", "Motion,License,OCR",
        "--workdir", workdir, "--dataset", "dashcam", "--query", "B",
        "--accuracy", "0.8", "--t1", "32", "--queries", "2",
        "--outdir", str(outdir),
    ]) == 0
    out = capsys.readouterr().out
    assert "chrome_trace" in out
    assert (outdir / "chrome_trace.json").exists()
    assert (outdir / "trace_events.jsonl").exists()


def test_unknown_command_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_serve_through_a_failure_campaign(tmp_path, capsys):
    store = ["--operators", "Motion,License,OCR", "--shards", "4",
             "--replication", "2", "--workdir", str(tmp_path / "store")]
    assert main(["ingest", *store, "--segments", "4"]) == 0
    capsys.readouterr()
    assert main(["serve", *store,
                 "--failures", "fail@5:0,recover@15:0"]) == 0
    out = capsys.readouterr().out
    assert "Open-loop run:" in out and "miss%" in out  # SLO table
    assert "availability" in out and "replicas rebuilt" in out
    assert "executor [heap]:" in out
    assert "host time:" in out
    for phase in ("workload", "plan", "admit", "lower", "run", "observe"):
        assert f"{phase} " in out.split("host time:")[1]


@pytest.mark.parametrize("command", [["serve"], ["execute", "A"],
                                     ["trace", "summary"], ["metrics"]])
def test_commands_on_a_workdir_without_segments_say_to_ingest(
        tmp_path, command):
    workdir = str(tmp_path / "empty")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--workdir", workdir, "--dataset", "dashcam"])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert workdir in message
    assert (f"repro ingest --workdir {workdir} --dataset dashcam "
            f"--segments N") in message


def test_lost_replicas_still_surface_from_serve(tmp_path):
    """The ingest hint is no blanket catch of StorageError: a campaign
    that loses every copy of a segment still raises its own error."""
    from repro.errors import ReplicaUnavailableError

    store = ["--operators", "Motion,License,OCR", "--shards", "2",
             "--workdir", str(tmp_path / "store")]
    assert main(["ingest", *store, "--segments", "2"]) == 0
    with pytest.raises(ReplicaUnavailableError):
        main(["serve", *store, "--horizon", "5", "--failures", "fail@0:0"])


@pytest.mark.parametrize("command", ["execute", "serve", "trace", "metrics"])
def test_core_flag_is_gone(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--workdir", "w", "--core", "heap"])
    assert exc.value.code == 2  # argparse: unrecognized arguments
