"""End-to-end integration tests across package boundaries.

These exercise the same chains the examples and benchmarks use, at
small Monte Carlo budgets so the whole file stays under ~2 minutes.
"""

import numpy as np
import pytest

from repro.adc.comparator import comparator_layout
from repro.campaign import ivdd_halfwidth
from repro.core import PathConfig
from repro.defects import analyze_defects, collapse, sprinkle
from repro.faultsim import (ComparatorFaultEngine, CurrentMechanism,
                            VoltageSignature, derive_noncatastrophic)
from repro.macrotest import macro_breakdown
from repro.testgen import DfTConfig, NO_DFT


@pytest.fixture(scope="module")
def comparator_campaign():
    cell = comparator_layout()
    defects = sprinkle(cell, 12000, seed=2024)
    faults = analyze_defects(cell, defects)
    return cell, defects, faults, collapse(faults)


class TestDefectCampaign:
    def test_fault_yield_low(self, comparator_campaign):
        """Most defects are harmless (paper: ~2 % fault yield)."""
        _, defects, faults, _ = comparator_campaign
        assert 0.005 < len(faults) / len(defects) < 0.10

    def test_shorts_dominate(self, comparator_campaign):
        _, _, faults, _ = comparator_campaign
        shorts = sum(1 for f in faults if f.fault_type == "short")
        assert shorts / len(faults) > 0.9

    def test_collapsing_compresses(self, comparator_campaign):
        _, _, faults, classes = comparator_campaign
        assert len(classes) < len(faults) / 2
        assert sum(fc.count for fc in classes) == len(faults)

    def test_shared_line_faults_majority(self, comparator_campaign):
        """Paper: only 27.8 % of comparator faults stay local; the rest
        touch the clock/bias/supply distribution."""
        from repro.macrotest import fault_shared_nets
        _, _, faults, _ = comparator_campaign
        shared = sum(1 for f in faults if fault_shared_nets(f))
        assert shared / len(faults) > 0.5

    def test_noncat_derivation_mirrors_bridges(self, comparator_campaign):
        _, _, _, classes = comparator_campaign
        noncat = derive_noncatastrophic(classes)
        bridge_classes = [fc for fc in classes
                          if fc.fault_type in ("short", "extra_contact")]
        assert 0 < len(noncat) <= len(bridge_classes)


class TestSignatureChain:
    """One fault followed through the entire pipeline by hand."""

    def test_clock_short_full_chain(self):
        from repro.defects import ShortFault
        from repro.defects.collapse import FaultClass
        from repro.macrotest import propagate_comparator_fault

        fault = ShortFault(nets=frozenset({"phi1", "gnd"}),
                           layer="metal1", resistance=0.2)
        engine = ComparatorFaultEngine()
        result = engine.simulate_class_signature(
            FaultClass(representative=fault, count=1))
        # a grounded sampling clock freezes the comparator
        assert result.signature.voltage == \
            VoltageSignature.OUTPUT_STUCK_AT
        # and loads the clock generator: IDDQ
        assert CurrentMechanism.IDDQ in result.signature.mechanisms
        # the stuck signature propagates to missing codes
        assert propagate_comparator_fault(result.signature, fault)


class TestDfTPath:
    def test_dft_shrinks_ivdd_window(self):
        cfg_std = PathConfig(n_defects=1000, max_classes=2,
                             include_noncat=False, dft=NO_DFT)
        cfg_dft = PathConfig(n_defects=1000, max_classes=2,
                             include_noncat=False,
                             dft=DfTConfig(flipflop_redesign=True))
        w_std = ivdd_halfwidth(cfg_std)
        w_dft = ivdd_halfwidth(cfg_dft)
        assert w_dft < w_std / 2.0

    def test_bias_reorder_removes_twin_bridges(self):
        from repro.testgen import comparator_layout_for
        cfg = DfTConfig(bias_line_reorder=True)
        twin = frozenset({"vbn1", "vbn2"})

        def twin_faults(cell):
            faults = analyze_defects(cell, sprinkle(cell, 15000, seed=9))
            return sum(1 for f in faults
                       if getattr(f, "nets", None) == twin)

        std = twin_faults(comparator_layout_for(NO_DFT))
        dft = twin_faults(comparator_layout_for(cfg))
        assert std > 0
        assert dft < std


class TestReproducibility:
    def test_same_seed_same_classes(self):
        cell = comparator_layout()
        a = collapse(analyze_defects(cell, sprinkle(cell, 5000, seed=3)))
        b = collapse(analyze_defects(cell, sprinkle(cell, 5000, seed=3)))
        assert [(fc.representative.collapse_key(), fc.count)
                for fc in a] == \
               [(fc.representative.collapse_key(), fc.count) for fc in b]
