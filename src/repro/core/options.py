"""Shared CLI argument group for the analog engine knobs.

Every entry point that runs fault simulations — ``python -m repro``
(path artifacts and campaigns), ``scripts/run_full_experiments.py``
and the kernel benchmark — exposes the same engine knobs through
:func:`add_engine_arguments`.  The defaults are read off
:class:`~repro.faultsim.engine.EngineConfig` itself, so the CLI can
never drift from the engine's actual defaults, and
:func:`engine_knobs` turns the parsed namespace back into the keyword
overrides :class:`~repro.core.path.PathConfig` (and through it every
:class:`~repro.campaign.tasks.EngineSpec`) accepts.
"""

from __future__ import annotations

import argparse
from dataclasses import fields
from typing import Dict

from ..adc.process import CORNER_SETS
from ..circuit.backend import SOLVERS
from ..faultsim.engine import EngineConfig

_ENGINE_DEFAULTS = {f.name: f.default for f in fields(EngineConfig)}


def add_engine_arguments(parser: argparse.ArgumentParser):
    """Attach the engine-knob argument group to a parser.

    Returns the group so callers can extend it.
    """
    group = parser.add_argument_group(
        "engine", "analog fault-engine knobs (defaults come from "
                  "EngineConfig)")
    group.add_argument("--dt", type=float,
                       default=_ENGINE_DEFAULTS["dt"],
                       help="transient timestep in seconds "
                            "(default: %(default)g)")
    group.add_argument("--big-probe", type=float,
                       default=_ENGINE_DEFAULTS["big_probe"],
                       help="comparator above/below input offset in "
                            "volts (default: %(default)g)")
    group.add_argument("--small-probe", type=float,
                       default=_ENGINE_DEFAULTS["small_probe"],
                       help="comparator offset-detection probe in "
                            "volts (default: %(default)g)")
    group.add_argument("--corners", choices=CORNER_SETS, default=None,
                       help="good-space corner set "
                            "(default: reduced)")
    group.add_argument("--cold-start", dest="warm_start",
                       action="store_false",
                       default=_ENGINE_DEFAULTS["warm_start"],
                       help="disable baseline reuse and warm-start "
                            "Newton continuation (results identical; "
                            "exhaustive-mode reference)")
    group.add_argument("--no-drop", dest="drop", action="store_false",
                       default=_ENGINE_DEFAULTS["drop"],
                       help="disable detection-driven fault dropping "
                            "— run every stimulus for every class "
                            "(results identical; exhaustive-mode "
                            "reference)")
    group.add_argument("--solver", choices=SOLVERS,
                       default=_ENGINE_DEFAULTS["solver"],
                       help="linear-solve backend: auto and dense "
                            "are the same stacked LAPACK kernel; "
                            "sparse factorises through SuperLU (needs "
                            "scipy) and scales to full-chip systems "
                            "(default: %(default)s)")
    return group


def engine_knobs(args: argparse.Namespace) -> Dict:
    """Parsed namespace -> PathConfig/EngineSpec keyword overrides.

    Absent attributes fall back to the EngineConfig defaults, so a
    parser that never called :func:`add_engine_arguments` still works.
    """
    corners = None
    if getattr(args, "corners", None):
        from ..adc.process import corner_set
        corners = tuple(corner_set(args.corners))
    return {
        "dt": getattr(args, "dt", _ENGINE_DEFAULTS["dt"]),
        "big_probe": getattr(args, "big_probe",
                             _ENGINE_DEFAULTS["big_probe"]),
        "small_probe": getattr(args, "small_probe",
                               _ENGINE_DEFAULTS["small_probe"]),
        "corners": corners,
        "warm_start": getattr(args, "warm_start",
                              _ENGINE_DEFAULTS["warm_start"]),
        "drop": getattr(args, "drop", _ENGINE_DEFAULTS["drop"]),
        "solver": getattr(args, "solver", _ENGINE_DEFAULTS["solver"]),
    }
