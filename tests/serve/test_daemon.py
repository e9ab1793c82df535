"""The HTTP layer: routes, streaming, error mapping, drain."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.serve import ServiceError

SPEC = {"kind": "verify", "system": "gas",
        "options": {"customers": 2, "selective": True}}


class TestRoutes:
    def test_health_carries_the_version(self, service):
        health = service.client.health()
        assert health["ok"] is True
        assert health["repro_version"] == __version__

    def test_submit_wait_returns_a_terminal_view(self, service):
        view = service.client.submit(SPEC, wait=True, timeout=60)
        assert view["status"] == "done"
        assert view["verdict"] == "PASS"
        assert view["exit_code"] == 0
        assert view["command"] == ("repro verify gas --customers 2 "
                                   "--selective")

    def test_job_listing_and_single_view_agree(self, service):
        view = service.client.submit(SPEC, wait=True, timeout=60)
        listed = service.client.jobs()
        assert [v["job_id"] for v in listed] == [view["job_id"]]
        assert service.client.job(view["job_id"]) == listed[0]

    def test_report_matches_the_record(self, service):
        view = service.client.submit(SPEC, wait=True, timeout=60)
        report = service.client.report(view["job_id"])
        assert report["kind"] == "verification"
        assert report["repro_version"] == __version__
        assert report["run"]["verdict"] == "PASS"

    def test_event_stream_brackets_engine_events(self, service):
        view = service.client.submit(SPEC, wait=True, timeout=60)
        events = list(service.client.events(view["job_id"]))
        types = [e["type"] for e in events]
        assert types[0] == "job_queued"
        assert types[-1] == "job_finished"
        assert "job_started" in types
        assert "run_started" in types and "run_finished" in types

    def test_snapshot_stream_does_not_follow(self, service):
        view = service.client.submit(SPEC, wait=True, timeout=60)
        snapshot = list(service.client.events(view["job_id"],
                                              follow=False))
        assert snapshot[-1]["type"] == "job_finished"


class TestErrorMapping:
    def test_bad_spec_is_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.submit({"kind": "verify", "system": "nonsense"})
        assert err.value.status == 400

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.job("jdoesnotexist")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.client._request("GET", "/v2/everything")
        assert err.value.status == 404

    def test_report_before_completion_is_409(self, service, inject):
        inject("serve.run=sleep:1")
        view = service.client.submit(SPEC)
        with pytest.raises(ServiceError) as err:
            service.client.report(view["job_id"])
        assert err.value.status == 409
        service.client.wait(view["job_id"], timeout=60)

    def test_non_json_body_is_400(self, service):
        from http.client import HTTPConnection
        conn = HTTPConnection(service.client.host, service.client.port,
                              timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            payload = json.loads(response.read().decode("utf-8"))
            assert "error" in payload
        finally:
            conn.close()


class TestDrain:
    def test_drain_refuses_new_submissions_with_503(self, service):
        summary = service.client.drain(timeout=5)
        assert summary["drained"] is True
        with pytest.raises(ServiceError) as err:
            service.client.submit(SPEC)
        assert err.value.status == 503

    def test_drain_lets_inflight_jobs_finish(self, service, inject):
        inject("serve.run=sleep:1")
        view = service.client.submit(SPEC)
        summary = service.client.drain(timeout=30)
        assert summary["drained"] is True
        assert summary["finished"] == 1
        done = service.client.job(view["job_id"])
        assert done["status"] == "done"
        assert done["verdict"] == "PASS"


#: Runs ``repro serve`` with a stdout that SIGTERMs the daemon the moment
#: the ready line is written: a supervisor that reacts with zero latency.
_SIGNAL_ON_READY = """
import os, signal, sys
from repro.cli import main

class SignalOnReady:
    def __init__(self, out):
        self.out = out

    def write(self, text):
        written = self.out.write(text)
        if "listening on" in text:
            self.out.flush()
            os.kill(os.getpid(), signal.SIGTERM)
        return written

    def flush(self):
        self.out.flush()

sys.stdout = SignalOnReady(sys.stdout)
sys.exit(main(sys.argv[1:]))
"""


class TestSignals:
    def test_sigterm_on_reading_the_ready_line_drains(self, tmp_path):
        src = Path(__file__).parents[2] / "src"
        daemon = subprocess.run(
            [sys.executable, "-c", _SIGNAL_ON_READY, "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache"), "--inline"],
            env={"PYTHONPATH": str(src)}, timeout=60,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        assert daemon.returncode == 0, daemon.stdout
        assert "listening on" in daemon.stdout
        assert "drained cleanly" in daemon.stdout
