"""Gate library for the gate-level substrate.

Each gate type is a named boolean function plus a transistor-count
estimate (used for area scaling of the digital decoder macro in the
global coverage compilation).

Gate functions are bitwise over *lane words*: a Python int whose bit k
is the input's value under vector k.  ``mask`` has one bit set per
lane, so a function evaluates every vector of a packed set at once
(inversion is ``mask ^ x``: the result never has bits outside the
lanes).  A single vector is the 1-lane case, ``mask == 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence


@dataclass(frozen=True)
class GateType:
    """A combinational gate type.

    Attributes:
        name: type name (``"NAND2"`` ...).
        arity: number of inputs.
        func: the gate over lane words, ``func(inputs, mask)``.
        transistors: CMOS transistor count (for area estimates).
    """

    name: str
    arity: int
    func: Callable[[Sequence[int], int], int]
    transistors: int

    def evaluate(self, inputs: Sequence[bool]) -> bool:
        """Evaluate the gate on one vector; validates arity."""
        if len(inputs) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} inputs, "
                f"got {len(inputs)}")
        return bool(self.func([1 if v else 0 for v in inputs], 1))


def _make_library() -> Dict[str, GateType]:
    lib = {}

    def add(name, arity, func, transistors):
        lib[name] = GateType(name, arity, func, transistors)

    add("BUF", 1, lambda v, m: v[0], 4)
    add("INV", 1, lambda v, m: m ^ v[0], 2)
    add("AND2", 2, lambda v, m: v[0] & v[1], 6)
    add("AND3", 3, lambda v, m: v[0] & v[1] & v[2], 8)
    add("OR2", 2, lambda v, m: v[0] | v[1], 6)
    add("OR3", 3, lambda v, m: v[0] | v[1] | v[2], 8)
    add("NAND2", 2, lambda v, m: m ^ (v[0] & v[1]), 4)
    add("NAND3", 3, lambda v, m: m ^ (v[0] & v[1] & v[2]), 6)
    add("NOR2", 2, lambda v, m: m ^ (v[0] | v[1]), 4)
    add("NOR3", 3, lambda v, m: m ^ (v[0] | v[1] | v[2]), 6)
    add("XOR2", 2, lambda v, m: v[0] ^ v[1], 8)
    add("XNOR2", 2, lambda v, m: m ^ v[0] ^ v[1], 8)
    add("MUX2", 3, lambda v, m: (v[1] & v[2]) | (v[0] & (m ^ v[2])), 12)
    add("AOI21", 3, lambda v, m: m ^ ((v[0] & v[1]) | v[2]), 6)
    return lib


LIBRARY: Dict[str, GateType] = _make_library()


def gate_type(name: str) -> GateType:
    """Look up a gate type by name.

    Raises:
        KeyError: for unknown gate names, listing the known library.
    """
    try:
        return LIBRARY[name]
    except KeyError:
        raise KeyError(f"unknown gate type {name!r}; known: "
                       f"{sorted(LIBRARY)}")
