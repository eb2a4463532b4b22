"""Dense-vs-sparse equivalence sweep over the macro engines.

The sparse backend is not bit-identical to the dense family (SuperLU
and LAPACK round differently), but every *verdict* the methodology
ships — the :class:`DetectionRecord` per fault class — is a
discretized comparison against the good-space windows and must come
out identical.  This sweep plans each analog macro twice, dense and
sparse, simulates the same fault classes through both backends and
asserts record equality; the digital decoder engine rounds out the
five macros (it performs no linear solves, which the sweep documents
structurally).

Also covers the solver knob's store-keying contract: ``auto`` and
``dense`` share content keys, sparse keys separately.
"""

import dataclasses

import pytest

from repro.campaign.plan import plan_macro
from repro.campaign.store import content_key
from repro.campaign.tasks import EngineSpec, simulate_class
from repro.circuit.backend import HAVE_SPARSE
from repro.core.path import PathConfig
from repro.defects import ShortFault
from repro.defects.collapse import FaultClass
from repro.faultsim.macro_engines import DecoderFaultEngine

needs_scipy = pytest.mark.skipif(not HAVE_SPARSE,
                                 reason="scipy not installed")

ANALOG_MACROS = ("comparator", "ladder", "clockgen", "biasgen")


def _config(solver: str) -> PathConfig:
    return PathConfig(n_defects=600, max_classes=2, seed=1995,
                      solver=solver)


@needs_scipy
@pytest.mark.parametrize("macro", ANALOG_MACROS)
def test_records_identical_dense_vs_sparse(macro):
    """Same plan, same classes, same verdicts — backend invisible."""
    plans = {solver: plan_macro(macro, _config(solver))
             for solver in ("dense", "sparse")}
    assert [c.representative for c in plans["dense"].classes] == \
        [c.representative for c in plans["sparse"].classes]
    assert plans["dense"].classes, "plan produced no classes"
    for dense_cls, sparse_cls in zip(plans["dense"].classes,
                                     plans["sparse"].classes):
        dense_record = simulate_class(dense_cls, plans["dense"].spec)
        sparse_record = simulate_class(sparse_cls,
                                       plans["sparse"].spec)
        assert dense_record == sparse_record, dense_cls.representative


def test_decoder_engine_is_solver_free():
    """The fifth macro is digital: no linear solves, no solver knob —
    its records cannot depend on the backend by construction."""
    fields = {f.name for f in dataclasses.fields(DecoderFaultEngine)}
    assert "solver" not in fields
    engine = DecoderFaultEngine(n_bridge_sample=5, n_stuck_sample=5,
                                seed=3)
    again = DecoderFaultEngine(n_bridge_sample=5, n_stuck_sample=5,
                               seed=3)
    assert engine.run() == again.run()


class TestSolverStoreKeys:
    def _class(self) -> FaultClass:
        fault = ShortFault(nets=frozenset({"lp", "ln"}),
                           layer="metal1", resistance=0.2)
        return FaultClass(representative=fault, count=2)

    def test_dense_family_shares_keys(self):
        """auto and dense name the same kernel — a cached record from
        either is valid for both."""
        fc = self._class()
        keys = {content_key(fc, EngineSpec(macro="comparator",
                                           solver=solver))
                for solver in ("auto", "dense")}
        assert len(keys) == 1

    def test_sparse_keys_separately(self):
        fc = self._class()
        dense = content_key(fc, EngineSpec(macro="comparator",
                                           solver="dense"))
        sparse = content_key(fc, EngineSpec(macro="comparator",
                                            solver="sparse"))
        assert dense != sparse
