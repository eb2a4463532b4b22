"""The ``python -m repro diagnose`` command surface."""

import json

import numpy as np
import pytest

from repro.cli import main as repro_main
from repro.diagnosis import (DiagnosisDB, DictionaryMatcher,
                             RegistryError, compile_dictionary)
from repro.diagnosis.cli import build_registry, parse_dictionary_specs
from repro.faultsim import (CurrentMechanism, VoltageSignature,
                            signature_feature_names)
from repro.macrotest.coverage import DetectionRecord

N = len(signature_feature_names())


def _record(count=5, voltage=False, sig=None, mechs=(), keys=()):
    return DetectionRecord(count=count, voltage_detected=voltage,
                           voltage_signature=sig,
                           mechanisms=frozenset(mechs),
                           violated_keys=frozenset(keys))


@pytest.fixture
def dictionary_path(tmp_path):
    labeled = [
        ("comparator:cat:0", "comparator", 1.0, _record(
            count=4, voltage=True,
            sig=VoltageSignature.OUTPUT_STUCK_AT)),
        ("comparator:cat:1", "comparator", 1.0, _record(
            count=2, mechs=(CurrentMechanism.IDDQ,),
            keys=[("iddq", "latching", "below")])),
    ]
    path = tmp_path / "dict.json"
    compile_dictionary(labeled).save(path)
    return str(path)


class TestDispatch:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            repro_main(["diagnose", "bogus"])


class TestQuery:
    def test_self_test_passes(self, dictionary_path, capsys):
        code = repro_main(["diagnose", "query",
                           "--dictionary", dictionary_path,
                           "--self-test", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["classes"] == 2
        assert payload["top1"] == 2
        assert payload["failures"] == []

    def test_query_file_json_output(self, dictionary_path, tmp_path,
                                    capsys):
        queries = tmp_path / "queries.json"
        queries.write_text(json.dumps({"queries": [[0.0] * N]}))
        code = repro_main(["diagnose", "query",
                           "--dictionary", dictionary_path,
                           "--input", str(queries), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["diagnoses"][0]["verdict"] == "pass"

    def test_malformed_input_is_an_error(self, dictionary_path,
                                         tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = repro_main(["diagnose", "query",
                           "--dictionary", dictionary_path,
                           "--input", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_dictionary_is_an_error(self, tmp_path, capsys):
        code = repro_main(["diagnose", "query", "--dictionary",
                           str(tmp_path / "nope.json"),
                           "--self-test"])
        assert code == 2


class TestDictionarySpecs:
    """The registry-building half of ``diagnose serve``."""

    def test_named_specs(self, dictionary_path):
        specs = parse_dictionary_specs(
            [f"adc={dictionary_path}", f"dac={dictionary_path}"])
        assert specs == [("adc", dictionary_path),
                         ("dac", dictionary_path)]

    def test_bare_path_is_rejected(self, dictionary_path):
        with pytest.raises(RegistryError, match="expected NAME=PATH"):
            parse_dictionary_specs([dictionary_path])

    def test_duplicate_names_rejected(self, dictionary_path):
        with pytest.raises(RegistryError):
            parse_dictionary_specs([f"adc={dictionary_path}",
                                    f"adc={dictionary_path}"])

    def test_malformed_spec_rejected(self):
        with pytest.raises(RegistryError):
            parse_dictionary_specs(["=path.json"])
        with pytest.raises(RegistryError):
            parse_dictionary_specs(["name="])

    def test_build_registry(self, dictionary_path):
        registry = build_registry([f"adc={dictionary_path}",
                                   f"dac={dictionary_path}"],
                                  top_k=3, default="dac")
        assert registry.names() == ["adc", "dac"]
        assert registry.default_name == "dac"
        assert registry.get("adc").matcher.top_k == 3

    def test_build_registry_bad_default(self, dictionary_path):
        with pytest.raises(RegistryError):
            build_registry([f"adc={dictionary_path}"],
                           default="nope")

    def test_build_registry_lazy_defers_loading(self, tmp_path):
        # a lazy registry registers a missing path without touching it
        registry = build_registry(
            [f"adc={tmp_path / 'not-yet.json'}"], lazy=True)
        assert registry.describe()[0]["loaded"] is False

    def test_serve_rejects_bad_dictionary(self, tmp_path, capsys):
        code = repro_main(["diagnose", "serve", "--dictionary",
                           f"adc={tmp_path / 'nope.json'}",
                           "--port", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestReportDB:
    @pytest.fixture
    def db_path(self, tmp_path, dictionary_path):
        from repro.diagnosis import FaultDictionary
        dictionary = FaultDictionary.load(dictionary_path)
        matcher = DictionaryMatcher(dictionary)
        diagnoses = matcher.diagnose_batch(np.vstack(
            [dictionary.entries[0].vector, np.zeros(N)]))
        path = tmp_path / "diag.sqlite"
        with DiagnosisDB(path) as db:
            db.record_batch("adc", 1, diagnoses, wall=0.05)
        return str(path)

    def test_report_db_json(self, db_path, capsys):
        code = repro_main(["diagnose", "report", "--db", db_path,
                           "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["summary"]["queries"] == 2
        assert payload["summary"]["matched"] == 1
        assert payload["per_dictionary"][0]["dictionary"] == "adc"
        assert payload["top_classes"][0]["label"] == \
            "comparator:cat:0"

    def test_report_db_plain(self, db_path, capsys):
        code = repro_main(["diagnose", "report", "--db", db_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "served: 2 queries" in out
        assert "adc v1" in out

    def test_report_needs_a_source(self, capsys):
        code = repro_main(["diagnose", "report"])
        assert code == 2
        assert "--dictionary or --db" in capsys.readouterr().err

    def test_report_db_unreadable(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.sqlite"
        garbage.write_text("not a database")
        code = repro_main(["diagnose", "report", "--db",
                           str(garbage)])
        assert code == 2


class TestReport:
    def test_report_plain(self, dictionary_path, capsys):
        code = repro_main(["diagnose", "report",
                           "--dictionary", dictionary_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "expected resolution" in out

    def test_report_json(self, dictionary_path, capsys):
        code = repro_main(["diagnose", "report",
                           "--dictionary", dictionary_path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["classes"] == 2
        assert payload["resolution"] == pytest.approx(1.0)
        assert payload["min_pair_distance"] > 0.0
