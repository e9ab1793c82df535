"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bridge_defaults(self):
        args = build_parser().parse_args(["bridge"])
        assert args.variant == "initial"
        assert args.cars == 1 and args.trips == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bridge_budget_flags(self):
        args = build_parser().parse_args(
            ["bridge", "--max-states", "500", "--max-seconds", "1.5"])
        assert args.max_states == 500
        assert args.max_seconds == 1.5

    def test_resilience_requires_known_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resilience", "teapot"])


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "Send ports" in out
        assert "syn_blocking_send" in out

    def test_bridge_initial_reports_violation(self, capsys):
        assert main(["bridge", "--variant", "initial"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "counterexample" in out

    def test_bridge_fixed_passes(self, capsys):
        assert main(["bridge", "--variant", "fixed"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bridge_atmostn_passes(self, capsys):
        assert main(["bridge", "--variant", "atmostn"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_export_stdout(self, capsys):
        assert main(["export"]) == 0
        out = capsys.readouterr().out
        assert "proctype AsynBlSendPort" in out

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "model.pml"
        assert main(["export", "--out", str(target)]) == 0
        assert "proctype" in target.read_text()

    def test_graph_block(self, capsys):
        assert main(["graph", "syn_blocking_send"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "SynBlSendPort"')

    def test_graph_bridge_to_file(self, tmp_path, capsys):
        target = tmp_path / "bridge.dot"
        assert main(["graph", "bridge", "--out", str(target)]) == 0
        assert "BlueController" in target.read_text()

    def test_graph_unknown_block_exits_3(self, capsys):
        # Internal failures (bad input to the tool, not the model) are
        # trapped at the top level and mapped to exit code 3.
        assert main(["graph", "warp_drive"]) == 3
        assert "internal failure" in capsys.readouterr().err

    def test_graph_fault_block(self, capsys):
        assert main(["graph", "lossy_channel"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_catalog_lists_fault_blocks(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "Fault injection (channels)" in out
        assert "lossy_channel" in out
        assert "retry_send" in out


class TestBudgetExitCodes:
    def test_bridge_exhausted_budget_exits_2(self, capsys):
        assert main(["bridge", "--variant", "fixed",
                     "--max-states", "100"]) == 2
        assert "incomplete" in capsys.readouterr().out

    def test_bridge_within_budget_exits_0(self, capsys):
        assert main(["bridge", "--variant", "fixed",
                     "--max-states", "1000000"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_bridge_writes_full_report(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        assert main(["verify", "bridge", "--report", str(out_json),
                     "--progress"]) == 0
        assert "report written" in capsys.readouterr().out
        import json
        payload = json.loads(out_json.read_text())
        run = payload["run"]
        assert run["verdict"].startswith("FAIL")
        assert run["statistics"]["states_stored"] > 0
        assert run["msc"]
        assert run["explanation"]
        assert payload["events"]  # --report buffers the event stream
        assert payload["command"].startswith("repro verify bridge")

    def test_report_rerenders_byte_identically(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        assert main(["verify", "bridge", "--report", str(out_json)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_json)]) == 0
        first = capsys.readouterr().out
        assert main(["report", str(out_json)]) == 0
        second = capsys.readouterr().out
        assert first == second
        from repro.obs.report import RunReport
        assert first == RunReport.load(str(out_json)).to_markdown()

    def test_report_formats_and_out_file(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        main(["verify", "abp", "--report", str(out_json)])
        capsys.readouterr()
        assert main(["report", str(out_json), "--format", "html"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")
        target = tmp_path / "r.md"
        assert main(["report", str(out_json), "--format", "md",
                     "--out", str(target)]) == 0
        assert target.read_text().startswith("# Verification of")

    def test_verify_abp_passes(self, capsys):
        assert main(["verify", "abp"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_bridge_fixed_within_budget(self, capsys):
        assert main(["verify", "bridge", "--variant", "fixed"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_log_jsonl_appends_events(self, tmp_path, capsys):
        import json
        log = tmp_path / "events.jsonl"
        assert main(["verify", "bridge", "--variant", "fixed",
                     "--log-jsonl", str(log)]) == 0
        lines = [json.loads(line) for line in
                 log.read_text().splitlines()]
        assert lines[0]["type"] == "run_started"
        assert lines[-1]["type"] == "run_finished"

    def test_progress_goes_to_stderr(self, capsys):
        assert main(["verify", "bridge", "--variant", "fixed",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "exploring" in captured.err
        assert "exploring" not in captured.out


class TestExploreCommand:
    def _explore_pc(self, tmp_path, *extra):
        return ["explore", "pc", "--messages", "1",
                "--cache-dir", str(tmp_path / "cache"), *extra]

    def test_pc_exploration_prints_ranked_table(self, tmp_path, capsys):
        assert main(self._explore_pc(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "design-space exploration: producer_consumer" in out
        assert "best:" in out
        assert "PASS" in out
        assert "cache: 0 hits, 20 misses" in out

    def test_warm_run_serves_from_cache(self, tmp_path, capsys):
        assert main(self._explore_pc(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._explore_pc(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "cache: 20 hits, 0 misses" in out
        assert "hit" in out

    def test_no_cache_touches_nothing(self, tmp_path, capsys):
        assert main(["explore", "pc", "--messages", "1", "--no-cache",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert not (tmp_path / "cache").exists()
        assert "cache:" not in capsys.readouterr().out

    def test_cache_dir_env_var_is_honored(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from_env"))
        assert main(["explore", "pc", "--messages", "1"]) == 0
        # Fresh directories default to the sqlite backend.
        assert (tmp_path / "from_env" / "cache.sqlite").exists()

    def test_first_pass_stops_early(self, tmp_path, capsys):
        assert main(self._explore_pc(tmp_path, "--first-pass")) == 0
        out = capsys.readouterr().out
        assert "SKIPPED" in out
        assert "stopped at the first PASS" in out

    def test_budget_exhaustion_exits_2(self, tmp_path, capsys):
        assert main(self._explore_pc(tmp_path, "--max-states", "10")) == 2
        assert "UNKNOWN" in capsys.readouterr().out

    def test_jobs_flag_matches_serial_table(self, tmp_path, capsys):
        assert main(["explore", "pc", "--messages", "1", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["explore", "pc", "--messages", "1", "--no-cache",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def strip(text):
            return [line for line in text.splitlines()
                    if "jobs=" not in line]

        assert strip(parallel) == strip(serial)

    def test_report_round_trips_through_report_command(self, tmp_path,
                                                       capsys):
        out_json = tmp_path / "exploration.json"
        assert main(self._explore_pc(tmp_path, "--report",
                                     str(out_json))) == 0
        capsys.readouterr()
        assert main(["report", str(out_json)]) == 0
        md = capsys.readouterr().out
        assert md.startswith("# Design-space exploration")
        assert "best" in md.lower()


class TestExitCodeContract:
    """The documented exit-code table: 0 ok, 1 violation, 2 partial,
    3 internal failure.  Pinned here so scripts can rely on it."""

    def test_internal_failure_exits_3_with_stderr_note(self, capsys):
        assert main(["graph", "warp_drive"]) == 3
        err = capsys.readouterr().err
        assert "internal failure" in err

    def test_keyboard_interrupt_exits_2(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_catalog", boom)
        assert main(["catalog"]) == 2
        assert "interrupted" in capsys.readouterr().err

    def test_unknown_resume_run_id_exits_3(self, tmp_path, capsys):
        assert main(["explore", "pc", "--messages", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "no-such-run"]) == 3
        assert "no journal for run" in capsys.readouterr().err


class TestCacheCommand:
    def _populate(self, tmp_path, *extra):
        cache_dir = tmp_path / "cache"
        assert main(["explore", "pc", "--messages", "1",
                     "--cache-dir", str(cache_dir),
                     "--run-id", "r1", *extra]) == 0
        return cache_dir

    def test_info_lists_records_and_runs(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        # 20 variants, one deduplicated fingerprint pair -> 19 records.
        assert "records: 19" in out
        assert "runs journaled: 1" in out
        assert "r1" in out

    def test_verify_clean_cache_exits_0(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "corrupt records: 0" in out
        assert out.rstrip().endswith("ok")

    def _journal(self, cache_dir, *fingerprints):
        from repro.design import CACHE_SCHEMA
        from repro.design.journal import append_entry

        cache_dir.mkdir(exist_ok=True)
        with open(cache_dir / "results.jsonl", "a") as fh:
            for fp in fingerprints:
                append_entry(fh, {"schema": CACHE_SCHEMA, "fingerprint": fp,
                                  "verdict": "PASS"})

    def test_unmigrated_journal_exits_3_naming_migrate(self, tmp_path,
                                                        capsys):
        cache_dir = tmp_path / "cache"
        self._journal(cache_dir, "a" * 64)
        for argv in (["explore", "pc", "--messages", "1"], ["cache", "info"]):
            assert main([*argv, "--cache-dir", str(cache_dir)]) == 3
            assert "repro cache migrate" in capsys.readouterr().err
        assert [p.name for p in cache_dir.iterdir()] == ["results.jsonl"]

    def test_migrate_merges_a_journal_left_beside_a_store(self, tmp_path,
                                                          capsys):
        from repro.design import open_cache

        cache_dir = tmp_path / "cache"
        with open_cache(cache_dir) as cache:
            cache.put("c" * 64, {"verdict": "FAIL"})
        self._journal(cache_dir, "a" * 64, "b" * 64)
        assert main(["cache", "migrate", "--cache-dir", str(cache_dir)]) == 0
        assert "migrated: 2" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "records: 3" in capsys.readouterr().out
        assert not (cache_dir / "results.jsonl").exists()
        assert (cache_dir / "results.jsonl.migrated").exists()

    def test_verify_damaged_sqlite_cache_exits_3(self, tmp_path, capsys):
        import sqlite3

        cache_dir = self._populate(tmp_path)
        conn = sqlite3.connect(cache_dir / "cache.sqlite")
        conn.execute("UPDATE records SET record = '{torn' WHERE rowid = 1")
        conn.commit()
        conn.close()
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 3
        out = capsys.readouterr().out
        assert "corrupt records: 1" in out
        assert "NOT OK" in out

    def test_compact_rewrites_journal(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        # A second exploration with a different budget adds 20 records.
        assert main(["explore", "pc", "--messages", "1", "--max-states",
                     "10", "--cache-dir", str(cache_dir)]) == 2
        capsys.readouterr()
        assert main(["cache", "compact", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "38 -> 38" in capsys.readouterr().out  # distinct fingerprints
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0


class TestResumeFlags:
    def test_run_id_is_printed_and_resumable(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["explore", "pc", "--messages", "1",
                     "--cache-dir", str(cache_dir),
                     "--run-id", "nightly"]) == 0
        out = capsys.readouterr().out
        assert "run id: nightly" in out
        # Resuming the finished run re-verifies nothing and touches no
        # cache entries: everything is served from the journal.
        assert main(["explore", "pc", "--messages", "1",
                     "--cache-dir", str(cache_dir),
                     "--resume", "nightly"]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits, 0 misses" in out


class TestResilienceCommand:
    def test_bridge_sweep_prints_matrix(self, capsys):
        assert main(["resilience", "bridge"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "DEGRADED" in out
        assert "overall:" in out

    def test_abp_sweep_with_budget_exits_2(self, capsys):
        assert main(["resilience", "abp", "--max-states", "2000"]) == 2
        out = capsys.readouterr().out
        assert "UNKNOWN" in out
        assert "incomplete" in out
