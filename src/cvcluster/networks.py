"""Four-mode cluster networks: literal unitaries and their factor decompositions.

Each of the three cluster networks (linear chain, square, T shape) is available
both as a hand-transcribed constant matrix and as a short program of elementary
factors: single-mode Fourier rotations F_k (a_k -> i a_k), two-mode beam
splitters B_ij(t) with a sign convention on the reflected port, and mode swaps.
Three beam splitters suffice for each network.

A program stores its factors in matrix-product order, so the LAST element of
the list acts on the input first.  The netlist text format mirrors that order
line by line.  The constant matrices are built once, on first use, and shared.

Mode indices are 1-based everywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np

from cvcluster.gaussian import ComplexUnitary, as_integer, is_real

_SQRT2 = math.sqrt(2.0)
_SQRT5 = math.sqrt(5.0)
_SQRT10 = math.sqrt(10.0)

# Largest `MODES <n>` a netlist may declare.  Every element and the network
# product are dense n x n complex matrices, so the header alone would
# otherwise set the memory a run asks for (16 n^2 bytes per matrix).
MAX_NETLIST_MODES = 64

# Most netlist texts (and, in `cvcluster.scenarios`, custom graphs) a process
# keeps built, the least recently used dropped first.  A netlist entry holds its
# text, the n x n unitary and, once used, the 2n x 2n symplectic: 192 KiB at 64
# modes; a graph entry its 16 n^2-byte nullifier table.  Both caches full hold
# 8 MiB beside the texts; unbounded, a process fed new netlists would grow without end.
NETWORK_CACHE_SIZE = 32

# element kind -> (mode count, what follows the kind on a netlist line)
_ONE, _TWO, _BS = (1, "one mode index"), (2, "two mode indices"), (2, "two mode indices and a transmittance")
_ARITY = {"F": _ONE, "Finv": _ONE, "SWAP": _TWO, "BS+": _BS, "BS-": _BS}


@dataclass(frozen=True)
class NetworkElement:
    """One elementary factor: kind in {F, Finv, BS+, BS-, SWAP}.

    Beam splitters carry a real transmittance parameter t in (0, 1); the
    other kinds have t = None.  Modes are 1-based integers and must be
    distinct for two-mode elements.  A field of the wrong type is a
    ValueError naming it, never coerced.
    """

    kind: str
    modes: tuple[int, ...]
    t: float | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown element kind {self.kind!r}")
        want, takes = _ARITY[self.kind]
        try:
            modes = tuple(as_integer(m) for m in self.modes)
        except TypeError:
            modes = (None,)
        if len(modes) != want:
            raise ValueError(f"{self.kind} expects {takes}, got modes {self.modes!r}")
        if None in modes:
            raise ValueError(f"modes: expected integer mode indices, got {self.modes!r}")
        object.__setattr__(self, "modes", modes)
        if any(m < 1 for m in modes):
            raise ValueError(f"mode indices are 1-based, got {modes}")
        if len(modes) == 2 and modes[0] == modes[1]:
            raise ValueError(f"two-mode element needs distinct modes, got {modes}")
        if self.kind.startswith("BS"):
            if not is_real(self.t) or not (0.0 < self.t < 1.0):
                raise ValueError(f"t: {self.kind} expects {takes}, a real number in (0, 1); got {self.t!r}")
            object.__setattr__(self, "t", float(self.t))
        elif self.t is not None:
            raise ValueError(f"t: {self.kind} takes no transmittance parameter")


def fourier(mode: int) -> NetworkElement:
    """90-degree phase-space rotation of one mode, a -> i a."""
    return NetworkElement("F", (mode,))


def inverse_fourier(mode: int) -> NetworkElement:
    """-90-degree rotation, a -> -i a."""
    return NetworkElement("Finv", (mode,))


def beam_splitter(i: int, j: int, t: float, sign: int) -> NetworkElement:
    """Beam splitter on modes (i, j) with transmittance t and reflection sign +/-1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return NetworkElement("BS+" if sign == 1 else "BS-", (i, j), t)


def swap(i: int, j: int) -> NetworkElement:
    """Exchange of two modes."""
    return NetworkElement("SWAP", (i, j))


def beam_splitter_block(t: float, sign: int) -> np.ndarray:
    """The 2x2 action of B_ij on (a_i, a_j): [[t, sqrt(1-t^2)], [+/-sqrt(1-t^2), -/+t]].

    The block determinant is -1 for the + sign and +1 for the - sign.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    refl = math.sqrt(1.0 - t * t)
    return np.array([[t, refl], [sign * refl, -sign * t]])


def element_matrix(element: NetworkElement, n_modes: int) -> ComplexUnitary:
    """The n x n unitary of one element, identity outside its modes."""
    if any(m > n_modes for m in element.modes):
        raise ValueError(f"element {element.kind} on modes {element.modes} exceeds {n_modes} modes")
    m = np.eye(n_modes, dtype=complex)
    if element.kind == "F":
        m[element.modes[0] - 1, element.modes[0] - 1] = 1j
    elif element.kind == "Finv":
        m[element.modes[0] - 1, element.modes[0] - 1] = -1j
    elif element.kind == "SWAP":
        i, j = (k - 1 for k in element.modes)
        m[[i, j]] = m[[j, i]]
    else:
        i, j = (k - 1 for k in element.modes)
        sign = 1 if element.kind == "BS+" else -1
        block = beam_splitter_block(element.t, sign)
        m[i, i], m[i, j] = block[0, 0], block[0, 1]
        m[j, i], m[j, j] = block[1, 0], block[1, 1]
    return ComplexUnitary(m)


@dataclass(frozen=True)
class NetworkProgram:
    """Ordered factor sequence; the list is in matrix-product order.

    `elements[0]` is the leftmost factor of the product, so it acts on the
    input last; `elements[-1]` acts first.  `n_modes` is an integer >= 1,
    checked like `NetworkElement`'s modes.
    """

    n_modes: int
    elements: tuple[NetworkElement, ...] = ()

    def __post_init__(self):
        n_modes = as_integer(self.n_modes)
        if n_modes is None or n_modes < 1:
            raise ValueError(f"n_modes: expected an integer >= 1, got {self.n_modes!r}")
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "elements", tuple(self.elements))
        for e in self.elements:
            if any(m > self.n_modes for m in e.modes):
                raise ValueError(f"element {e.kind} on modes {e.modes} exceeds {self.n_modes} modes")


def program_matrix(program: NetworkProgram) -> ComplexUnitary:
    """Multiply the factors in list order; the empty program is the identity."""
    mats = (element_matrix(e, program.n_modes).matrix for e in program.elements)
    product = reduce(np.matmul, mats, np.eye(program.n_modes, dtype=complex))
    return ComplexUnitary(product)


@cache
def linear_cluster_unitary() -> ComplexUnitary:
    """Constant network producing the four-mode linear cluster state."""
    return ComplexUnitary(np.array([
        [1 / _SQRT2,   1 / _SQRT10,   2j / _SQRT10,  0],
        [1j / _SQRT2, -1j / _SQRT10,  2 / _SQRT10,   0],
        [0,           -2 / _SQRT10,   1j / _SQRT10,  1j / _SQRT2],
        [0,           -2j / _SQRT10, -1 / _SQRT10,   1 / _SQRT2],
    ]))


@cache
def square_cluster_unitary() -> ComplexUnitary:
    """Constant network producing the four-mode square cluster state."""
    return ComplexUnitary(np.array([
        [-1 / _SQRT2, -1 / _SQRT10,  -2j / _SQRT10,  0],
        [1 / _SQRT2,  -1 / _SQRT10,  -2j / _SQRT10,  0],
        [0,           -2j / _SQRT10, -1 / _SQRT10,  -1 / _SQRT2],
        [0,           -2j / _SQRT10, -1 / _SQRT10,   1 / _SQRT2],
    ]))


@cache
def tshape_cluster_unitary() -> ComplexUnitary:
    """Constant network producing the four-mode T-shape cluster state."""
    return ComplexUnitary(np.array([
        [1j / _SQRT2, 0.5,   0.5j,  0],
        [1 / _SQRT2,  0.5j, -0.5,   0],
        [0,           0.5j,  0.5,   1 / _SQRT2],
        [0,           0.5j,  0.5,  -1 / _SQRT2],
    ]))


@cache
def linear_to_square_phases() -> ComplexUnitary:
    """Mode-wise phases diag(-1, -i, i, 1) turning the linear network into the square one.

    Composing these local rotations after the linear-cluster network yields
    exactly the square-cluster unitary.
    """
    return ComplexUnitary(np.diag([-1, -1j, 1j, 1]).astype(complex))


def linear_program() -> NetworkProgram:
    """Factor sequence for the linear-cluster network.

    Two symmetric beam splitters and one 1:4 beam splitter, plus Fourier
    rotations and one swap.
    """
    return NetworkProgram(4, (
        fourier(4),
        swap(1, 2),
        inverse_fourier(1),
        beam_splitter(3, 4, 1 / _SQRT2, +1),
        beam_splitter(2, 1, 1 / _SQRT2, +1),
        beam_splitter(2, 3, 1 / _SQRT5, -1),
        fourier(3),
        fourier(4),
    ))


def tshape_program() -> NetworkProgram:
    """Factor sequence for the T-shape network: three symmetric beam splitters."""
    return NetworkProgram(4, (
        inverse_fourier(1),
        beam_splitter(3, 4, 1 / _SQRT2, +1),
        beam_splitter(2, 1, 1 / _SQRT2, +1),
        beam_splitter(3, 2, 1 / _SQRT2, -1),
        fourier(2),
    ))


def emit_netlist(program: NetworkProgram) -> str:
    """Serialize a program, one element per line, in matrix-product order.

    Transmittances are written with repr precision so that parsing the output
    reproduces the program bit-exactly.
    """
    lines = [f"MODES {program.n_modes}"]
    for e in program.elements:
        fields = [e.kind, *(str(m) for m in e.modes)]
        if e.t is not None:
            fields.append(repr(e.t))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> NetworkProgram:
    """Parse the netlist format emitted by :func:`emit_netlist`.

    Blank lines and lines starting with '#' are ignored.  The first
    significant line must be `MODES <n>` with n at most `MAX_NETLIST_MODES`.
    """
    n_modes = None
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n_modes is None:
            if fields[0] != "MODES" or len(fields) != 2:
                raise ValueError(f"netlist line {lineno}: expected 'MODES <n>' header, got {line!r}")
            try:
                n_modes = int(fields[1])
            except ValueError:
                raise ValueError(f"netlist line {lineno}: bad mode count {fields[1]!r}") from None
            if n_modes > MAX_NETLIST_MODES:
                raise ValueError(f"netlist line {lineno}: {n_modes} modes exceed the cap of {MAX_NETLIST_MODES}")
            continue
        kind, *args = fields
        # a beam-splitter line's transmittance follows its two modes; the element checks the rest
        t = _number(args.pop(2), float) if kind.startswith("BS") and len(args) > 2 else None
        try:
            elements.append(NetworkElement(kind, tuple(_number(a, int) for a in args), t))
        except ValueError as exc:
            raise ValueError(f"netlist line {lineno}: {exc}") from None
    if n_modes is None:
        raise ValueError("netlist is empty; a 'MODES <n>' header is required")
    return NetworkProgram(n_modes, tuple(elements))


def _number(field: str, kind):
    """A netlist field as a `kind` number, or the text itself for `NetworkElement` to reject."""
    try:
        return kind(field)
    except ValueError:
        return field


@lru_cache(maxsize=NETWORK_CACHE_SIZE)
def _netlist_unitary(text: str) -> ComplexUnitary:
    """The checked unitary of a netlist text, built once per text."""
    return program_matrix(parse_netlist(text))


def load_netlist(path) -> ComplexUnitary:
    """The unitary of a netlist file's program; the file is read on every call, the network built once per text."""
    with open(path, "r", encoding="utf-8") as fh:
        return _netlist_unitary(fh.read())
