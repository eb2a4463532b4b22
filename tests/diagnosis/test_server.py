"""End-to-end service tests: registry -> serve -> query over a socket.

Covers the v1 routes, the JSON error envelope, the retired
unversioned names (plain 404s) and the reload endpoint.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.diagnosis import (DiagnosisDB, DictionaryRegistry,
                             compile_dictionary)
from repro.diagnosis.server import serve
from repro.faultsim import (CurrentMechanism, VoltageSignature,
                            signature_feature_names)
from repro.macrotest.coverage import DetectionRecord

N = len(signature_feature_names())


def _record(count=5, voltage=False, sig=None, mechs=(), keys=()):
    return DetectionRecord(count=count, voltage_detected=voltage,
                           voltage_signature=sig,
                           mechanisms=frozenset(mechs),
                           violated_keys=frozenset(keys))


def _build_dictionary():
    labeled = [
        ("comparator:cat:0", "comparator", 1.0, _record(
            count=4, voltage=True,
            sig=VoltageSignature.OUTPUT_STUCK_AT,
            mechs=(CurrentMechanism.IVDD,),
            keys=[("ivdd", "sampling", "above")])),
        ("comparator:cat:1", "comparator", 1.0, _record(
            count=2, mechs=(CurrentMechanism.IDDQ,),
            keys=[("iddq", "latching", "below")])),
    ]
    return compile_dictionary(labeled)


def _other_dictionary():
    """A distinguishable second build (one extra class)."""
    labeled = [
        ("comparator:cat:0", "comparator", 1.0, _record(
            count=4, voltage=True,
            sig=VoltageSignature.OUTPUT_STUCK_AT)),
        ("comparator:cat:1", "comparator", 1.0, _record(
            count=2, mechs=(CurrentMechanism.IDDQ,),
            keys=[("iddq", "latching", "below")])),
        ("comparator:cat:2", "comparator", 1.0, _record(
            count=1, mechs=(CurrentMechanism.IVDD,),
            keys=[("ivdd", "amplification", "above")])),
    ]
    return compile_dictionary(labeled)


def _start(registry=None, db=None):
    if registry is None:
        registry = DictionaryRegistry()
        registry.register("adc", dictionary=_build_dictionary())
    srv = serve(registry=registry, port=0, db=db)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


@pytest.fixture
def server():
    """A live server on an ephemeral port; torn down after the test."""
    srv, thread = _start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _url(srv, path):
    host, port = srv.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(srv, path):
    try:
        with urllib.request.urlopen(_url(srv, path), timeout=5) as r:
            return r.status, json.loads(r.read()), dict(r.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _post(srv, path, body: bytes):
    request = urllib.request.Request(
        _url(srv, path), data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=5) as r:
            return r.status, json.loads(r.read()), dict(r.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestEndToEnd:
    def test_health(self, server):
        status, payload, _ = _get(server, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["classes"] == 2
        assert payload["features"] == N
        assert payload["macros"] == ["comparator"]
        assert payload["default"] == "adc"
        assert payload["dictionaries"][0]["name"] == "adc"

    def test_diagnose_query_vectors(self, server):
        entries = server.registry.get().dictionary.entries
        queries = [list(e.vector) for e in entries]
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"queries": queries}).encode())
        assert status == 200
        assert payload["dictionary"] == "adc"
        assert payload["version"] == 1
        diagnoses = payload["diagnoses"]
        assert len(diagnoses) == 2
        for entry, diagnosis in zip(entries, diagnoses):
            assert diagnosis["verdict"] == "matched"
            assert diagnosis["candidates"][0]["label"] == entry.label

    def test_diagnose_record_dicts(self, server):
        from repro.core.serialize import record_to_dict
        record = _record(count=2,
                         mechs=(CurrentMechanism.IDDQ,),
                         keys=[("iddq", "latching", "below")])
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"records": [record_to_dict(record)]}).encode())
        assert status == 200
        top = payload["diagnoses"][0]["candidates"][0]
        assert top["label"] == "comparator:cat:1"

    def test_diagnose_named_dictionary(self, server):
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"queries": [[0.0] * N],
                        "dictionary": "adc"}).encode())
        assert status == 200
        assert payload["diagnoses"][0]["verdict"] == "pass"

    def test_metrics_accumulate(self, server):
        _post(server, "/v1/diagnose",
              json.dumps({"queries": [[0.0] * N]}).encode())
        status, payload, _ = _get(server, "/v1/metrics")
        assert status == 200
        assert payload["batches"] == 1
        assert payload["queries"] == 1
        assert payload["passed"] == 1
        assert payload["dictionary_classes"] == 2
        assert payload["wall_time"] >= 0.0
        assert payload["requests"]["/v1/diagnose"] == 1
        assert payload["batching"]["adc"]["blocks"] == 1

    def test_list_and_get_dictionaries(self, server):
        status, payload, _ = _get(server, "/v1/dictionaries")
        assert status == 200
        assert [d["name"] for d in payload["dictionaries"]] == ["adc"]
        status, payload, _ = _get(server, "/v1/dictionaries/adc")
        assert status == 200
        assert payload["classes"] == 2
        assert payload["default"] is True


class TestErrorEnvelope:
    """Every failure is {"error": {"code", "message"}}."""

    def test_malformed_json_is_400(self, server):
        status, payload, _ = _post(server, "/v1/diagnose",
                                   b"{not json")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "JSON" in payload["error"]["message"]

    def test_missing_keys_is_400(self, server):
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"nope": 1}).encode())
        assert status == 400
        assert "queries" in payload["error"]["message"]

    def test_wrong_width_is_400(self, server):
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"queries": [[1.0, 2.0]]}).encode())
        assert status == 400
        assert "width" in payload["error"]["message"]

    def test_bad_record_is_400(self, server):
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"records": [{"bogus": True}]}).encode())
        assert status == 400
        assert "records[0]" in payload["error"]["message"]

    def test_unknown_paths_are_404(self, server):
        status, payload, _ = _get(server, "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert _post(server, "/v1/nope", b"{}")[0] == 404
        # the retired unversioned names are unknown paths too
        for path in ("/health", "/metrics"):
            assert _get(server, path)[0] == 404
        assert _post(server, "/diagnose", b"{}")[0] == 404

    def test_wrong_method_is_405_with_allow(self, server):
        status, payload, headers = _get(server, "/v1/diagnose")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert headers.get("Allow") == "POST"
        status, payload, _ = _post(server, "/v1/health", b"{}")
        assert status == 405

    def test_unknown_dictionary_is_404(self, server):
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"queries": [[0.0] * N],
                        "dictionary": "nope"}).encode())
        assert status == 404
        assert payload["error"]["code"] == "unknown_dictionary"
        assert "adc" in payload["error"]["message"]


class TestLegacyAliases:
    """The unversioned names (``/diagnose``, ``/health``,
    ``/metrics``) are no longer routes; nothing is deprecated."""

    def test_v1_routes_are_not_deprecated(self, server):
        _, _, headers = _get(server, "/v1/health")
        assert "Deprecation" not in headers

    def test_legacy_errors_share_the_envelope(self, server):
        status, payload, headers = _post(server, "/diagnose",
                                         b"{not json")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "Deprecation" not in headers


class TestReloadEndpoint:
    def test_reload_from_path(self, server, tmp_path):
        path = tmp_path / "next.json"
        _other_dictionary().save(path)
        status, payload, _ = _post(
            server, "/v1/dictionaries/adc/reload",
            json.dumps({"path": str(path)}).encode())
        assert status == 200
        assert payload == {"reloaded": True, "name": "adc",
                           "version": 2, "classes": 3}
        status, payload, _ = _get(server, "/v1/dictionaries/adc")
        assert payload["version"] == 2
        assert payload["classes"] == 3

    def test_reload_unknown_name_is_404(self, server):
        status, payload, _ = _post(
            server, "/v1/dictionaries/nope/reload", b"")
        assert status == 404
        assert payload["error"]["code"] == "unknown_dictionary"

    def test_failed_reload_is_409_and_keeps_serving(self, server,
                                                    tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        status, payload, _ = _post(
            server, "/v1/dictionaries/adc/reload",
            json.dumps({"path": str(bad)}).encode())
        assert status == 409
        assert payload["error"]["code"] == "reload_failed"
        # the old snapshot still serves
        status, payload, _ = _post(
            server, "/v1/diagnose",
            json.dumps({"queries": [[0.0] * N]}).encode())
        assert status == 200


class TestResultsBackend:
    def test_served_batches_land_in_sqlite(self, tmp_path):
        db = DiagnosisDB(tmp_path / "diag.sqlite")
        registry = DictionaryRegistry()
        registry.register("adc", dictionary=_build_dictionary())
        srv, thread = _start(registry=registry, db=db)
        try:
            entries = registry.get("adc").dictionary.entries
            _post(srv, "/v1/diagnose", json.dumps(
                {"queries": [list(entries[0].vector),
                             [0.0] * N]}).encode())
            status, payload, _ = _get(srv, "/v1/metrics")
            assert payload["db"]["queries"] == 2
            assert payload["db"]["per_dictionary"][0]["dictionary"] \
                == "adc"
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
            db.close()
        reopened = DiagnosisDB(tmp_path / "diag.sqlite")
        try:
            summary = reopened.summary()
            assert summary["batches"] == 1
            assert summary["queries"] == 2
            assert summary["matched"] == 1
            assert summary["passed"] == 1
        finally:
            reopened.close()


class TestEmptyDictionary:
    def test_diagnose_answers_503_health_stays_up(self):
        registry = DictionaryRegistry()
        registry.register("adc", dictionary=compile_dictionary([]))
        srv, thread = _start(registry=registry)
        try:
            status, payload, _ = _post(
                srv, "/v1/diagnose",
                json.dumps({"queries": [[0.0] * N]}).encode())
            assert status == 503
            assert payload["error"]["code"] == "empty_dictionary"
            assert "no detectable classes" in \
                payload["error"]["message"]
            assert _get(srv, "/v1/health")[0] == 200
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)


class TestMonotonicClocks:
    """Regression: uptime and snapshot age survive wall-clock steps.

    ``/v1/metrics`` used to compute uptime as ``time.time() -
    started``, so an NTP step made it jump or go negative; it now
    runs on the monotonic clock, with the wall-clock birth stamp
    reported separately as ``started_at``.
    """

    def test_uptime_ignores_wall_clock_step(self, server,
                                            monkeypatch):
        import time as time_module

        from repro.diagnosis import server as server_module

        before = server.local_metrics()
        assert before["uptime"] >= 0.0
        # step the wall clock an hour backwards
        real_time = time_module.time
        monkeypatch.setattr(server_module.time, "time",
                            lambda: real_time() - 3600.0)
        after = server.local_metrics()
        assert after["uptime"] >= before["uptime"] >= 0.0
        assert after["uptime"] < 600.0  # not an hour-sized jump
        # the wall-clock stamp is separate and untouched by uptime
        assert after["started_at"] == server.started_at

    def test_metrics_route_reports_sane_uptime(self, server):
        status, payload, _ = _get(server, "/v1/metrics")
        assert status == 200
        assert 0.0 <= payload["uptime"] < 600.0
        assert payload["started_at"] > 0

    def test_snapshot_age_is_monotonic(self, server, monkeypatch):
        import time as time_module

        from repro.diagnosis import registry as registry_module

        snapshot = server.registry.get("adc")
        age = snapshot.age()
        assert age >= 0.0
        real_time = time_module.time
        monkeypatch.setattr(registry_module.time, "time",
                            lambda: real_time() - 3600.0)
        assert snapshot.age() >= age >= 0.0
        assert snapshot.age() < 600.0
        # metrics report the age per served dictionary
        status, payload, _ = _get(server, "/v1/metrics")
        assert payload["batching"]["adc"]["age"] >= 0.0


class TestDrainBeforeServe:
    def test_drain_before_serve_forever_does_not_hang(self):
        """Regression: drain() used to call shutdown()
        unconditionally, which blocks forever when serve_forever()
        has not started yet — a SIGTERM landing in a fleet worker's
        startup window hung the draining thread."""
        registry = DictionaryRegistry()
        registry.register("adc", dictionary=_build_dictionary())
        srv = serve(registry=registry, port=0)
        try:
            done = threading.Event()
            results = []

            def call():
                results.append(srv.drain(timeout=1.0))
                done.set()

            threading.Thread(target=call, daemon=True).start()
            assert done.wait(5.0), \
                "drain() hung before serve_forever() started"
            assert results == [True]
            # a serve_forever() racing in after the drain must not
            # start accepting — it returns immediately
            t = threading.Thread(target=srv.serve_forever,
                                 daemon=True)
            t.start()
            t.join(timeout=5.0)
            assert not t.is_alive()
        finally:
            srv.server_close()

    def test_drain_still_stops_a_serving_server(self):
        registry = DictionaryRegistry()
        registry.register("adc", dictionary=_build_dictionary())
        srv, thread = _start(registry=registry)
        try:
            assert srv.drain(timeout=5.0) is True
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            srv.server_close()
