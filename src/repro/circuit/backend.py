"""Linear-solve backends for the MNA kernels.

Every Newton iteration ends in a linear solve.  The ``solver`` knob
picks how the batched kernel (:mod:`repro.circuit.batch`) performs it:

``dense``
    The ``(B, n, n)`` stacked LAPACK solve with per-lane fallback.
    Bit-identical to the scalar reference path
    (:class:`~repro.circuit.mna.MNASystem`, one ``numpy.linalg.solve``
    per system); it is what ``auto`` resolves to.

``sparse``
    CSR/CSC assembly driven by the compiled contribution program:
    the stamp-order COO triplets collapse onto a **fixed sparsity
    pattern** computed once per structure signature
    (:class:`SparsePattern`), a reverse-Cuthill-McKee ordering is
    computed once and reused across all lanes, Newton iterations and
    timepoints, and each iterate only refreshes the numeric values
    before a ``scipy.sparse.linalg.splu`` factorization with
    ``permc_spec="MMD_AT_PLUS_A"`` (minimum degree on ``A + A.T`` —
    the right heuristic for structurally-symmetric MNA matrices with
    global supply/clock hub nodes).  Singular or ill-conditioned lanes
    fall back to the dense path per lane, exactly like the batched
    kernel's ``_solve_stack``.

``scipy`` is optional: without it ``HAVE_SPARSE`` is ``False`` and
``resolve_solver`` degrades ``sparse`` requests to the pure-numpy
``dense`` path, so every entry point keeps working.

The module also hosts the per-phase timing counters (``assemble`` /
``factor`` / ``solve`` / ``convergence_check``) that the campaign
event bus surfaces through ``--metrics-out`` and the bench JSONs, plus
the matrix-shape record (backend, n, nnz, B) the benchmarks embed so
the perf trajectory distinguishes macro-scale from full-chip runs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

try:  # optional sparse stack; every dense path is pure numpy
    from scipy.sparse import csc_matrix, csr_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    from scipy.sparse.linalg import splu

    HAVE_SPARSE = True
except Exception:  # pragma: no cover - exercised only without scipy
    HAVE_SPARSE = False

__all__ = [
    "HAVE_SPARSE",
    "SOLVERS",
    "resolve_solver",
    "SparsePattern",
    "record_phase",
    "phase_timer",
    "snapshot_timings",
    "reset_timings",
    "record_matrix",
    "snapshot_matrix",
    "reset_matrix",
]

#: the valid values of every ``solver`` knob in the system
SOLVERS = ("auto", "dense", "sparse")


def resolve_solver(solver: str) -> str:
    """Validate a solver knob and resolve it to an available backend.

    ``auto`` resolves to ``dense`` (the bit-identical default);
    ``sparse`` degrades to ``dense`` when scipy is absent so a
    pure-numpy install keeps working end to end.
    """
    if solver not in SOLVERS:
        raise ValueError(
            f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if solver == "sparse" and HAVE_SPARSE:
        return "sparse"
    return "dense"


# ---------------------------------------------------------------------------
# per-phase timing counters (campaign observability)

#: accumulated seconds per solver phase in this process
_PHASE_TOTALS: Dict[str, float] = {}

#: shape of the largest system factored since the last reset
_MATRIX_INFO: Dict[str, object] = {}


def record_phase(phase: str, seconds: float) -> None:
    """Accumulate ``seconds`` under ``phase`` for this process."""
    _PHASE_TOTALS[phase] = _PHASE_TOTALS.get(phase, 0.0) + seconds


class phase_timer:
    """Context manager accumulating its elapsed time under a phase.

    >>> with phase_timer("assemble"):
    ...     program.assemble(system, X, ctx)
    """

    __slots__ = ("phase", "_t0")

    def __init__(self, phase: str):
        self.phase = phase

    def __enter__(self) -> "phase_timer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        record_phase(self.phase, perf_counter() - self._t0)


def snapshot_timings() -> Dict[str, float]:
    """Current per-phase totals (seconds) for this process."""
    return dict(_PHASE_TOTALS)


def reset_timings() -> None:
    """Zero the per-phase totals (start of a campaign task)."""
    _PHASE_TOTALS.clear()


def record_matrix(backend: str, n: int, nnz: int, nlanes: int) -> None:
    """Remember the largest system solved since the last reset."""
    if int(n) >= int(_MATRIX_INFO.get("n", -1)):
        _MATRIX_INFO.update(backend=backend, n=int(n), nnz=int(nnz),
                            nlanes=int(nlanes))


def snapshot_matrix() -> Dict[str, object]:
    """Shape of the largest system factored since the last reset."""
    return dict(_MATRIX_INFO)


def reset_matrix() -> None:
    _MATRIX_INFO.clear()


# ---------------------------------------------------------------------------
# the batched sparse machinery


class SparsePattern:
    """Fixed sparsity pattern + reusable ordering of a compiled program.

    The compiled contribution program stamps every element into flat
    ``row * n + col`` slots whose **union is static**: resistive
    stamps never move, and a MOSFET's region swap only toggles each
    device between two precomputed slot sets (``FN``/``FS``), both of
    which are folded into the pattern up front.  That makes the
    sparsity pattern a pure function of the structure signature, so
    the expensive symbolic work — unique pattern, fill-reducing
    reverse-Cuthill-McKee ordering, permuted CSC structure — happens
    exactly once and every Newton iterate is a numeric-only refresh:
    program-maintained positions (``searchsorted`` runs at bind time
    only; the MOSFET refresh keeps the position table in step with
    the swap toggles), one weighted ``bincount`` per lane (sequential
    accumulation, same summation order as the dense kernel), then
    ``splu`` of a reused CSC template with
    ``permc_spec="MMD_AT_PLUS_A"`` (RCM pre-permutation plus minimum
    degree gives measurably less fill than either alone on circuits
    with global supply/clock hubs).

    The program's ground-guard slot ``dump_g`` (== ``n * n``) is kept
    as a trailing sentinel: contributions redirected there land in a
    scratch bin that is dropped, mirroring the dense kernel's dump
    column.
    """

    def __init__(self, n: int, candidates: np.ndarray, dump_g: int):
        self.n = int(n)
        flat = np.asarray(candidates, dtype=np.intp).ravel()
        pattern = np.unique(flat)
        pattern = pattern[(pattern >= 0) & (pattern < self.n * self.n)]
        self.pattern = pattern
        self.nnz = int(pattern.size)
        #: searchsorted table; the dump slot is a trailing sentinel
        self.lookup = np.append(pattern, np.intp(dump_g))
        rows = pattern // self.n
        cols = pattern % self.n
        self._rows = rows
        self._cols = cols
        if HAVE_SPARSE:
            ones = np.ones(self.nnz)
            graph = csr_matrix((ones, (rows, cols)),
                               shape=(self.n, self.n))
            # symmetrize: MNA matrices carry asymmetric source/VCVS
            # stamps, and RCM wants an undirected adjacency
            perm = np.asarray(
                reverse_cuthill_mckee(graph + graph.T,
                                      symmetric_mode=True),
                dtype=np.intp)
        else:  # pattern still usable for densify/fallback paths
            perm = np.arange(self.n, dtype=np.intp)
        self.perm = perm
        inv = np.empty(self.n, dtype=np.intp)
        inv[perm] = np.arange(self.n, dtype=np.intp)
        rowp = inv[rows]
        colp = inv[cols]
        #: gather order mapping pattern-order data to CSC-order data
        self.order = np.lexsort((rowp, colp))
        self.csc_indices = rowp[self.order].astype(np.int32)
        counts = np.bincount(colp, minlength=self.n)
        self.csc_indptr = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int32)
        #: reusable CSC template; ``factor`` refreshes its data in
        #: place (SuperLU copies the values into its own storage, so
        #: the previous factorization never aliases the template)
        self._csc = None

    def positions(self, IG: np.ndarray) -> np.ndarray:
        """Map program slot indices to pattern positions.

        Every slot the program can emit is in ``lookup`` by
        construction; the dump slot maps to position ``nnz`` (the
        scratch bin).
        """
        return np.searchsorted(self.lookup, IG)

    def scatter(self, pos: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Accumulate one lane's contributions onto the pattern.

        ``bincount`` sums duplicates sequentially in input order —
        the same summation order as the dense kernel's bincount onto
        ``G.flat`` — so shared-slot sums are bit-identical.
        """
        return np.bincount(pos, weights=values,
                           minlength=self.nnz + 1)[:self.nnz]

    def factor(self, data: np.ndarray):
        """Numeric ``splu`` factorization of pattern-order ``data``."""
        A = self._csc
        if A is None:
            A = self._csc = csc_matrix(
                (np.empty(self.nnz), self.csc_indices,
                 self.csc_indptr), shape=(self.n, self.n))
        np.take(data, self.order, out=A.data)
        return splu(A, permc_spec="MMD_AT_PLUS_A")

    def solve_lane(self, data: np.ndarray,
                   b: np.ndarray) -> Tuple[Optional[np.ndarray], bool]:
        """Solve one lane; ``(x, True)`` or ``(None, False)``.

        A ``False`` verdict (singular factorization or non-finite
        solution) tells the caller to fall back to the dense path for
        this lane, preserving the batched kernel's per-lane fallback
        contract.
        """
        t0 = perf_counter()
        try:
            lu = self.factor(data)
        except RuntimeError:  # SuperLU: singular/ill-conditioned
            record_phase("factor", perf_counter() - t0)
            return None, False
        record_phase("factor", perf_counter() - t0)
        t0 = perf_counter()
        xp = lu.solve(b[self.perm])
        record_phase("solve", perf_counter() - t0)
        if not np.all(np.isfinite(xp)):
            return None, False
        x = np.empty_like(b)
        x[self.perm] = xp
        return x, True

    def densify(self, data: np.ndarray) -> np.ndarray:
        """Expand pattern-order ``data`` to a dense ``(n, n)`` matrix
        (the per-lane fallback path)."""
        G = np.zeros((self.n, self.n), dtype=data.dtype)
        G[self._rows, self._cols] = data
        return G
