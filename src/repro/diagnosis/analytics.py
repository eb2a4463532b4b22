"""Resolution analytics: what a measurement set can distinguish.

The paper's closing observation — "the overlap between different
detection mechanisms gives room for the optimization of the test
method" — cuts both ways: dropping measurements saves tester seconds
but merges fault classes into ambiguity groups.  This module
quantifies that trade so :func:`repro.optimize.greedy_test_plan`
can weigh diagnostic power against cost:

* :func:`feature_mask` — which signature features a test plan's
  measurement selection actually observes;
* :func:`distinguishability_matrix` — pairwise weighted distances
  between dictionary entries under a mask;
* :func:`expected_resolution` — the prior-weighted probability that a
  detected fault is diagnosed to a unique class, plus the ambiguity
  groups the plan induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faultsim.goodspace import mechanism_of
from .dictionary import FaultDictionary

#: the test-plan pseudo-measurement for the whole missing-code test
#: (mirrors repro.testgen.optimize.MISSING_CODE without importing it —
#: repro.optimize imports this module lazily, keeping the layering
#: acyclic)
_MISSING_CODE = ("missing_codes", "*", "*")

Measure = Tuple[str, str, str]


def feature_mask(features: Sequence[str],
                 measurements: Sequence[Measure]) -> np.ndarray:
    """Boolean mask of the signature features a plan observes.

    The missing-code pseudo-measurement observes every voltage-domain
    feature (the verdict and its signature classification both come
    from that test); a current measurement ``(quantity, phase,
    polarity)`` observes its own fine-grained feature plus the coarse
    mechanism bit its quantity belongs to.
    """
    observed = np.zeros(len(features), dtype=bool)
    chosen = set(tuple(m) for m in measurements)
    has_missing_code = _MISSING_CODE in chosen
    mechanisms = {mechanism_of(m).value for m in chosen
                  if m != _MISSING_CODE}
    for k, name in enumerate(features):
        parts = name.split(":")
        if parts[0] == "voltage":
            observed[k] = has_missing_code
        elif parts[0] == "mechanism":
            observed[k] = parts[1] in mechanisms
        else:  # current:<quantity>:<phase>:<polarity>
            observed[k] = tuple(parts[1:]) in chosen
    return observed


def distinguishability_matrix(dictionary: FaultDictionary,
                              mask: Optional[np.ndarray] = None
                              ) -> np.ndarray:
    """Pairwise tolerance-weighted distances between entries.

    Returns an (n, n) symmetric matrix in entry order; ``mask``
    restricts the distance to the observed features (an all-False mask
    makes every pair indistinguishable).  A zero off-diagonal element
    means the two classes form an ambiguity group under the mask.
    """
    V = dictionary.matrix()
    w = np.array(dictionary.tolerance)
    if mask is not None:
        w = np.where(np.asarray(mask, dtype=bool), w, 0.0)
    wsum = w.sum()
    if wsum <= 0:
        return np.zeros((len(dictionary), len(dictionary)))
    wn = w / wsum
    v2 = (V ** 2) @ wn
    d2 = v2[:, None] + v2[None, :] - 2.0 * (V * wn) @ V.T
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


@dataclass(frozen=True)
class ResolutionReport:
    """Expected diagnostic resolution of one measurement selection.

    Attributes:
        resolution: prior-weighted expected probability that a
            detected fault is pinned to exactly its own class —
            ``sum_e prior_e / |group(e)|``; 1.0 when every class is
            uniquely distinguishable.
        expected_group_size: prior-weighted mean ambiguity-group size
            (1.0 = perfect resolution).
        n_groups: distinct signature groups under the mask.
        groups: the ambiguity groups (label tuples), largest first;
            singleton groups are included.
    """

    resolution: float
    expected_group_size: float
    n_groups: int
    groups: Tuple[Tuple[str, ...], ...]

    def to_dict(self) -> Dict:
        return {"resolution": self.resolution,
                "expected_group_size": self.expected_group_size,
                "n_groups": self.n_groups,
                "groups": [list(g) for g in self.groups]}


def expected_resolution(dictionary: FaultDictionary,
                        measurements: Optional[Sequence[Measure]] = None
                        ) -> ResolutionReport:
    """Diagnostic resolution of a measurement selection.

    Groups entries whose signatures are identical on the observed
    (tolerance-carrying) features; ``measurements=None`` evaluates the
    full measurement set.  An empty dictionary reports zero
    resolution.
    """
    n = len(dictionary)
    if n == 0:
        return ResolutionReport(resolution=0.0,
                                expected_group_size=0.0,
                                n_groups=0, groups=())
    V = dictionary.matrix()
    w = np.array(dictionary.tolerance)
    if measurements is not None:
        mask = feature_mask(dictionary.features, measurements)
        w = np.where(mask, w, 0.0)
    observed = w > 0
    priors = dictionary.priors()
    if priors.sum() <= 0:
        priors = np.full(n, 1.0 / n)

    grouped: Dict[Tuple[float, ...], List[int]] = {}
    for idx in range(n):
        signature = tuple(V[idx, observed])
        grouped.setdefault(signature, []).append(idx)

    resolution = 0.0
    expected_size = 0.0
    groups: List[Tuple[str, ...]] = []
    labels = dictionary.labels
    for members in grouped.values():
        size = len(members)
        group_prior = float(priors[members].sum())
        resolution += group_prior / size
        expected_size += group_prior * size
        groups.append(tuple(sorted(labels[idx] for idx in members)))
    groups.sort(key=lambda g: (-len(g), g))
    return ResolutionReport(resolution=resolution,
                            expected_group_size=expected_size,
                            n_groups=len(groups),
                            groups=tuple(groups))
