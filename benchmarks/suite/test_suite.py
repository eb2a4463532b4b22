"""Smoke test of the benchmark: every workload at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

Each workload runs once untraced and once traced (about a minute in
all on a 2-core host).  The test asserts that every metric
``BENCHMARK.json`` names is reported with its unit, that the
workload's correctness checks pass, and that every span's self time
is non-negative and no larger than the span.  It lives outside
``tests/``, so the tier-1 suite does not collect it.
"""

import json

import pytest

import run

run.prepare_environment()

import spans  # noqa: E402  (after the source path is set)
import workloads  # noqa: E402
from repro.campaign.tasks import ANALOG_MACROS  # noqa: E402
from repro.testgen.dft import NO_DFT  # noqa: E402

#: not the fixtures' seed: at tiny sizes only the invariants apply
SEED = 7

TINY = {
    "campaign_cold": dict(n_defects=400, max_classes=1,
                          include_noncat=False, dfts=(NO_DFT,)),
    "recount_warm": dict(n_defects=400, max_classes=1,
                         magnitude_defects=2000, dfts=(NO_DFT,)),
    "fullchip_march": dict(n_bits=4, tstop=2e-11),
    "diagnose_serving": dict(n_defects=400, max_classes=1,
                             campaign_macros=ANALOG_MACROS,
                             pool_rows=512),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload(name, tmp_path):
    spec = run.load_spec()
    wl = workloads.WORKLOADS[name](SEED, tmp_path)
    for attr, value in TINY[name].items():
        setattr(wl, attr, value)
    record = run.run_workload(wl, seconds=0.2, traced=True, spec=spec,
                              setup_reps=1)

    assert record["failures"] == []
    assert record["result"]["correct"]
    for kind in ("end_to_end", "per_layer"):
        reported = record[kind]
        assert set(reported) == {m["name"] for m in spec[kind]}
        for m in spec[kind]:
            assert reported[m["name"]]["unit"] == m["unit"]
    assert all(m["value"] > 0 for m in record["end_to_end"].values())

    payload = json.loads((run.ROOT / record["trace_pass"]["trace_file"])
                         .read_text())
    recorded = [spans.Span(**s) for s in payload["spans"]]
    assert recorded
    own = spans.self_times(recorded)
    for span in recorded:
        assert -1e-9 <= own[span.span_id] <= span.duration + 1e-9
