"""The defect-oriented test path (paper Fig. 1): its knobs, its
results and the facade that runs it.

For each macro cell: layout -> Monte Carlo defect sprinkling -> fault
extraction -> fault collapsing (-> optional large-campaign magnitude
rescaling) -> circuit-level fault models -> analog fault simulation ->
fault signatures -> sensitisation / propagation -> detection records.
The per-macro results are then area-scaled into global coverage.  The
steps themselves live in :mod:`repro.campaign`;
:meth:`DefectOrientedTestPath.run` hands the config to its
:class:`~repro.campaign.runner.CampaignRunner`.

Runtime knobs: ``n_defects`` sizes the class-discovery campaign,
``magnitude_defects`` optionally re-sprinkles a larger campaign for
statistically significant class magnitudes (the paper's 25 000 /
10 000 000 split), and ``max_classes`` caps how many classes are
simulated (largest magnitudes first — they dominate the coverage mass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..adc.process import Process, typical
from ..defects.collapse import FaultClass
from ..defects.statistics import DefectStatistics
from ..macrotest.coverage import MacroResult, global_breakdown
from ..testgen.dft import DfTConfig, NO_DFT


@dataclass(frozen=True)
class PathConfig:
    """Configuration of one full path run.

    Attributes:
        n_defects: class-discovery Monte Carlo budget per macro.
        magnitude_defects: optional larger campaign for magnitudes.
        seed: RNG seed (defect sprinkling is deterministic per seed).
        dft: which DfT measures are applied.
        include_noncat: also derive and simulate non-catastrophic
            faults.
        max_classes: cap on simulated classes per macro (largest
            first); None simulates everything.
        process: corner for the faulty-instance simulations.
        dynamic_test: additionally run the at-speed missing-code test
            during propagation (our extension: catches the 'clock
            value' fault population at no extra tester time).
        dt: transient timestep of the analog fault engines.
        big_probe: comparator above/below input offset (volts).
        small_probe: comparator offset-detection probe (volts).
        corners: good-space corner set (None: the reduced corners).
        warm_start: reuse the good-circuit baseline and warm-start
            faulty Newton solves from it (results identical;
            ``--cold-start`` disables).
        drop: stop a class's stimulus schedule once its signature has
            left the good space (results identical; ``--no-drop``
            disables).
        solver: linear backend for the analog solves
            (:data:`repro.circuit.backend.SOLVERS`; ``--solver``).
            ``auto`` and ``dense`` name the same bit-identical dense
            kernel; ``sparse`` agrees within Newton tolerance and
            scales to full-chip systems.
    """

    n_defects: int = 25000
    magnitude_defects: Optional[int] = None
    seed: int = 1995
    dft: DfTConfig = NO_DFT
    include_noncat: bool = True
    max_classes: Optional[int] = None
    process: Process = field(default_factory=typical)
    statistics: DefectStatistics = field(
        default_factory=DefectStatistics)
    dynamic_test: bool = False
    dt: float = 1e-9
    big_probe: float = 0.1
    small_probe: float = 8e-3
    corners: Optional[Tuple[Process, ...]] = None
    warm_start: bool = True
    drop: bool = True
    solver: str = "auto"

    def to_dict(self) -> Dict:
        """Stable JSON-able form of the run's knobs.

        ``process``, ``statistics`` and ``corners`` are not encoded —
        they revert to their defaults on :meth:`from_dict` — so the
        dictionary stays flat, diffable and version-stable.
        """
        return {
            "n_defects": self.n_defects,
            "magnitude_defects": self.magnitude_defects,
            "seed": self.seed,
            "dft": {"flipflop_redesign": self.dft.flipflop_redesign,
                    "bias_line_reorder": self.dft.bias_line_reorder,
                    "label": self.dft.label},
            "include_noncat": self.include_noncat,
            "max_classes": self.max_classes,
            "dynamic_test": self.dynamic_test,
            "dt": self.dt,
            "big_probe": self.big_probe,
            "small_probe": self.small_probe,
            "warm_start": self.warm_start,
            "drop": self.drop,
            "solver": self.solver,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PathConfig":
        """Inverse of :meth:`to_dict` (defaults fill absent knobs)."""
        dft = data.get("dft") or {}
        magnitude = data.get("magnitude_defects")
        max_classes = data.get("max_classes")
        return cls(
            n_defects=int(data["n_defects"]),
            magnitude_defects=(int(magnitude)
                               if magnitude is not None else None),
            seed=int(data.get("seed", 1995)),
            dft=DfTConfig(
                flipflop_redesign=bool(dft.get("flipflop_redesign",
                                               False)),
                bias_line_reorder=bool(dft.get("bias_line_reorder",
                                               False))),
            include_noncat=bool(data.get("include_noncat", True)),
            max_classes=(int(max_classes)
                         if max_classes is not None else None),
            dynamic_test=bool(data.get("dynamic_test", False)),
            dt=float(data.get("dt", 1e-9)),
            big_probe=float(data.get("big_probe", 0.1)),
            small_probe=float(data.get("small_probe", 8e-3)),
            warm_start=bool(data.get("warm_start", True)),
            drop=bool(data.get("drop", True)),
            solver=str(data.get("solver", "auto")))


@dataclass(frozen=True)
class MacroAnalysis:
    """Everything the path produced for one macro type.

    Attributes:
        result: catastrophic-fault MacroResult (records + weights).
        noncat_result: near-miss MacroResult (None when disabled).
        classes: the collapsed catastrophic fault classes.
    """

    result: MacroResult
    noncat_result: Optional[MacroResult]
    classes: Tuple[FaultClass, ...]

    def to_dict(self) -> Dict:
        """Measurables only, keyed ``cat`` / ``noncat`` (the layout
        :func:`~repro.core.serialize.load_macro_results` reads).  The
        FaultClass list is not serialised: classes are re-derivable
        from the config via the campaign planner."""
        return {
            "cat": self.result.to_dict(),
            "noncat": (self.noncat_result.to_dict()
                       if self.noncat_result else None),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MacroAnalysis":
        """Inverse of :meth:`to_dict` (``classes`` comes back
        empty)."""
        noncat = data.get("noncat")
        return cls(
            result=MacroResult.from_dict(data["cat"]),
            noncat_result=(MacroResult.from_dict(noncat)
                           if noncat else None),
            classes=tuple())


@dataclass(frozen=True)
class PathResult:
    """Output of a full path run over all macros."""

    config: PathConfig
    macros: Dict[str, MacroAnalysis]

    def macro_results(self, noncat: bool = False) -> List[MacroResult]:
        out = []
        for analysis in self.macros.values():
            r = analysis.noncat_result if noncat else analysis.result
            if r is not None and r.total_faults > 0:
                out.append(r)
        return out

    def global_coverage(self, noncat: bool = False):
        return global_breakdown(self.macro_results(noncat))

    def to_dict(self) -> Dict:
        """Stable JSON-able form: config knobs + per-macro
        measurables.  This is the one encoding every persistence path
        (CLI ``--out``, campaign exports, ``BENCH_*.json``) goes
        through."""
        return {
            "config": self.config.to_dict(),
            "macros": {name: analysis.to_dict()
                       for name, analysis in self.macros.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PathResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            config=PathConfig.from_dict(data["config"]),
            macros={name: MacroAnalysis.from_dict(d)
                    for name, d in data["macros"].items()})


class DefectOrientedTestPath:
    """The methodology over the five-macro partition: a facade over
    :class:`~repro.campaign.runner.CampaignRunner`."""

    def __init__(self, config: Optional[PathConfig] = None) -> None:
        self.config = config or PathConfig()

    def run(self, macros: Optional[Sequence[str]] = None,
            options=None, bus=None) -> PathResult:
        """Run the path over the requested macros (default: all five).

        Serial and in-memory by default; parallel, cached or
        resumable when ``options`` (a
        :class:`~repro.campaign.runner.CampaignOptions`) says so.
        ``bus`` receives the campaign's progress events.
        """
        from ..campaign.runner import CampaignOptions, CampaignRunner

        if options is None:
            options = CampaignOptions(jobs=1)
        runner = CampaignRunner(self.config, options, bus=bus)
        return runner.run(macros).path_result
