"""Small-signal AC analysis.

Linearises the circuit at its DC operating point and solves the complex
system ``(G + j*omega*C) x = b`` over a frequency list.  Used for the
fault signatures that only show up in the frequency domain (the paper's
"clock value" faults degrade high-frequency behaviour) and by the
specification-oriented baseline tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .dc import DCResult, operating_point
from .mna import MNASystem, StampContext
from .netlist import Circuit


@dataclass
class ACResult:
    """Complex node responses over frequency.

    Attributes:
        freqs: analysis frequencies in Hz.
        compiled: index map.
        xs: complex solution matrix, shape (len(freqs), n_unknowns).
    """

    freqs: np.ndarray
    compiled: "object"
    xs: np.ndarray

    def response(self, node: str) -> np.ndarray:
        """Complex voltage response of *node* across frequency."""
        idx = self.compiled.index_of(node)
        if idx < 0:
            return np.zeros(len(self.freqs), dtype=complex)
        return self.xs[:, idx]

    def magnitude_db(self, node: str) -> np.ndarray:
        """Response magnitude in dB (floored at -300 dB)."""
        mag = np.abs(self.response(node))
        return 20.0 * np.log10(np.maximum(mag, 1e-15))

    def phase_deg(self, node: str) -> np.ndarray:
        """Response phase in degrees."""
        return np.degrees(np.angle(self.response(node)))


def ac_analysis(circuit: Circuit, freqs: Sequence[float],
                op: Optional[DCResult] = None) -> ACResult:
    """Run AC analysis at the given frequencies.

    Args:
        circuit: netlist; exactly the sources with a nonzero ``ac``
            magnitude drive the small-signal system.
        freqs: frequencies in Hz.
        op: optional pre-computed operating point.
    """
    if op is None:
        op = operating_point(circuit)
    compiled = op.compiled
    system = MNASystem(compiled, dtype=complex)
    ctx = StampContext(mode="ac")
    xs = np.zeros((len(freqs), compiled.size), dtype=complex)
    for k, f in enumerate(freqs):
        omega = 2.0 * math.pi * f
        system.assemble_ac(circuit, op.x, omega, ctx)
        xs[k] = system.solve()
    return ACResult(freqs=np.asarray(freqs, dtype=float),
                    compiled=compiled, xs=xs)


def log_frequencies(f_start: float, f_stop: float,
                    points_per_decade: int = 10) -> np.ndarray:
    """Logarithmically spaced frequency grid (inclusive of endpoints)."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = math.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(math.log10(f_start), math.log10(f_stop), n)


def bandwidth_3db(result: ACResult, node: str) -> float:
    """-3 dB bandwidth of a node response relative to its lowest
    analysed frequency; returns the last frequency if never reached."""
    mags = np.abs(result.response(node))
    if mags[0] <= 0:
        return float(result.freqs[0])
    target = mags[0] / math.sqrt(2.0)
    below = np.nonzero(mags < target)[0]
    if len(below) == 0:
        return float(result.freqs[-1])
    k = below[0]
    if k == 0:
        return float(result.freqs[0])
    # log-linear interpolation between the straddling points
    f0, f1 = result.freqs[k - 1], result.freqs[k]
    m0, m1 = mags[k - 1], mags[k]
    if m0 == m1:
        return float(f0)
    frac = (m0 - target) / (m0 - m1)
    return float(f0 * (f1 / f0) ** frac)
