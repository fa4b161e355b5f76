"""Synchronous monotone circuits: parsing, validation, evaluation, generation.

A circuit is a DAG of fan-in-2 AND/OR gates over boolean inputs ``i0..i{k-1}``,
with a single designated output gate.  The circuits handled here are
*synchronous*: every path from an input to the output has the same length, so
each node sits on a well-defined layer (inputs at 0, output at the top).
Monotonicity is structural (no negations), which makes flipping any input from
0 to 1 never flip the circuit value from 1 to 0.

The text format is line oriented::

    # optional comment lines
    inputs 3
    gate g0 OR i0 i1
    gate g1 AND i1 i2
    gate g2 AND g0 g1
    output g2

Declarations are topologically ordered; ``i<j>`` tokens refer to inputs and
every other source token refers to a previously declared gate.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

AND = "AND"
OR = "OR"

_INPUT_REF_RE = re.compile(r"i(0|[1-9][0-9]*)")
# generate_random refuses a circuit of more inputs and gates than this with
# InvalidParamsError, instead of running the host out of memory.
MAX_SIZE = 100_000


class CircuitError(Exception):
    """Base class for circuit format and validity errors."""


class CircuitSyntaxError(CircuitError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateIdError(CircuitError):
    pass


class UnknownRefError(CircuitError):
    pass


class OutputIsInputError(CircuitError):
    pass


class NotTopologicalError(CircuitError):
    pass


class NotSynchronousError(CircuitError):
    def __init__(self, gate_id: str):
        super().__init__(f"gate {gate_id}: children lie on different layers")
        self.gate_id = gate_id


class UnreachableGateError(CircuitError):
    def __init__(self, gate_id: str):
        super().__init__(f"gate {gate_id}: not reachable from the output gate")
        self.gate_id = gate_id


class LengthMismatchError(CircuitError):
    pass


class InvalidParamsError(CircuitError):
    pass


def input_ref(index: int) -> str:
    return f"i{index}"


def is_input_ref(ref: str) -> bool:
    return _INPUT_REF_RE.fullmatch(ref) is not None


def input_index(ref: str) -> int:
    m = _INPUT_REF_RE.fullmatch(ref)
    if m is None:
        raise UnknownRefError(f"{ref!r} is not an input reference")
    return int(m.group(1))


@dataclass(frozen=True)
class Gate:
    """A single fan-in-2 monotone gate."""

    id: str
    kind: str
    left: str
    right: str


@dataclass(frozen=True)
class Circuit:
    """An immutable, structurally validated monotone circuit.

    Construction checks the structural invariants (unique ids, topological
    child references, output names a gate).  Synchrony and reachability are
    checked separately by :func:`validate_layers` so that parsing and layer
    diagnostics stay distinct.
    """

    num_inputs: int
    gates: tuple[Gate, ...]
    output: str
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_inputs < 1:
            raise InvalidParamsError("a circuit needs at least one input")
        index: dict[str, int] = {}
        for pos, gate in enumerate(self.gates):
            if gate.kind not in (AND, OR):
                raise InvalidParamsError(f"gate {gate.id}: bad kind {gate.kind!r}")
            if is_input_ref(gate.id):
                raise DuplicateIdError(f"gate id {gate.id!r} shadows input syntax")
            if gate.id in index:
                raise DuplicateIdError(f"gate id {gate.id!r} declared twice")
            for ref in (gate.left, gate.right):
                self._check_ref(ref, index, at_gate=gate.id, declared_at=pos)
            index[gate.id] = pos
        if is_input_ref(self.output):
            raise OutputIsInputError("the output must name a gate, not an input")
        if self.output not in index:
            raise UnknownRefError(f"output names unknown gate {self.output!r}")
        object.__setattr__(self, "_index", index)

    def _check_ref(self, ref: str, index: dict[str, int], at_gate: str, declared_at: int):
        if is_input_ref(ref):
            if input_index(ref) >= self.num_inputs:
                raise UnknownRefError(f"gate {at_gate}: input {ref} out of range")
            return
        if ref in index:
            return
        if any(g.id == ref for g in self.gates[declared_at:]):
            raise NotTopologicalError(
                f"gate {at_gate}: child {ref!r} is declared later"
            )
        raise UnknownRefError(f"gate {at_gate}: unknown child {ref!r}")

    def gate(self, gate_id: str) -> Gate:
        try:
            return self.gates[self._index[gate_id]]
        except KeyError:
            raise UnknownRefError(f"unknown gate {gate_id!r}") from None

    def has_gate(self, gate_id: str) -> bool:
        return gate_id in self._index


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format into a :class:`Circuit`.

    Raises :class:`CircuitSyntaxError` with a line number for malformed
    declarations, and the structural errors (:class:`DuplicateIdError`,
    :class:`UnknownRefError`, :class:`NotTopologicalError`,
    :class:`OutputIsInputError`) for well-formed but invalid circuits.
    """
    num_inputs = None
    gates: list[Gate] = []
    output = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "inputs":
            if num_inputs is not None:
                raise CircuitSyntaxError(lineno, "duplicate inputs declaration")
            if gates or output is not None:
                raise CircuitSyntaxError(lineno, "inputs must come first")
            if len(tokens) != 2 or not re.fullmatch(r"[0-9]+", tokens[1]):
                raise CircuitSyntaxError(lineno, "expected: inputs <count>")
            num_inputs = int(tokens[1])
            if num_inputs < 1:
                raise CircuitSyntaxError(lineno, "need at least one input")
        elif keyword == "gate":
            if num_inputs is None:
                raise CircuitSyntaxError(lineno, "inputs must be declared before gates")
            if output is not None:
                raise CircuitSyntaxError(lineno, "gate after output declaration")
            if len(tokens) != 5:
                raise CircuitSyntaxError(lineno, "expected: gate <id> <AND|OR> <src> <src>")
            _, gid, kind, left, right = tokens
            if kind not in (AND, OR):
                raise CircuitSyntaxError(lineno, f"unknown gate kind {kind!r}")
            if is_input_ref(gid):
                raise CircuitSyntaxError(lineno, f"gate id {gid!r} shadows input syntax")
            gates.append(Gate(gid, kind, left, right))
        elif keyword == "output":
            if num_inputs is None:
                raise CircuitSyntaxError(lineno, "inputs must be declared before output")
            if output is not None:
                raise CircuitSyntaxError(lineno, "duplicate output declaration")
            if len(tokens) != 2:
                raise CircuitSyntaxError(lineno, "expected: output <id>")
            output = tokens[1]
        else:
            raise CircuitSyntaxError(lineno, f"unknown keyword {keyword!r}")
    if num_inputs is None:
        raise CircuitSyntaxError(0, "missing inputs declaration")
    if output is None:
        raise CircuitSyntaxError(0, "missing output declaration")
    return Circuit(num_inputs, tuple(gates), output)


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit in canonical form (one declaration per line,
    single spaces, trailing newline).  ``parse_circuit`` inverts this exactly.
    """
    lines = [f"inputs {circuit.num_inputs}"]
    for g in circuit.gates:
        lines.append(f"gate {g.id} {g.kind} {g.left} {g.right}")
    lines.append(f"output {circuit.output}")
    return "\n".join(lines) + "\n"


def validate_layers(circuit: Circuit) -> dict[str, int]:
    """Return the layer of every node reachable from the output gate.

    Inputs sit at layer 0 and each gate one layer above its children.  Raises
    :class:`NotSynchronousError` if a gate's children lie on different layers
    and :class:`UnreachableGateError` if some declared gate is not in the
    output's cone.
    """
    # Gates are declared children first, so one backward pass finds the
    # output's cone and one forward pass lays it out.
    cone = {circuit.output}
    for gate in reversed(circuit.gates):
        if gate.id in cone:
            cone.update((gate.left, gate.right))
    # The cone's inputs in index order, without a walk over every declared
    # input: a circuit may declare billions and use two.
    inputs = sorted((ref for ref in cone if is_input_ref(ref)), key=input_index)
    layers = {ref: 0 for ref in inputs}
    for gate in circuit.gates:
        if gate.id not in cone:
            continue
        left = layers[gate.left]
        if left != layers[gate.right]:
            raise NotSynchronousError(gate.id)
        layers[gate.id] = left + 1
    for gate in circuit.gates:
        if gate.id not in layers:
            raise UnreachableGateError(gate.id)
    return layers


def _normalize_bits(circuit: Circuit, bits) -> tuple[int, ...]:
    if isinstance(bits, str):
        if not re.fullmatch(r"[01]*", bits):
            raise InvalidParamsError(f"assignment {bits!r} is not a 0/1 string")
        values = tuple(int(b) for b in bits)
    else:
        values = tuple(int(bool(b)) for b in bits)
    if len(values) != circuit.num_inputs:
        raise LengthMismatchError(
            f"assignment has {len(values)} bits, circuit has {circuit.num_inputs} inputs"
        )
    return values


def evaluate(circuit: Circuit, bits) -> tuple[int, dict[str, bool]]:
    """Evaluate the circuit on an assignment.

    ``bits`` is a 0/1 string (index 0 leftmost) or a sequence of booleans.
    Returns the output bit together with the value of every node.
    """
    values_in = _normalize_bits(circuit, bits)
    values: dict[str, bool] = {
        input_ref(i): bool(b) for i, b in enumerate(values_in)
    }
    for gate in circuit.gates:
        left = values[gate.left]
        right = values[gate.right]
        values[gate.id] = (left and right) if gate.kind == AND else (left or right)
    return int(values[circuit.output]), values


def layer_widths(layers: int, width: int, num_inputs: int = 0) -> list[int]:
    """Gates per layer, bottom first, of ``generate_random``'s circuits.

    Raises InvalidParamsError, before building anything, when the
    ``num_inputs`` inputs and the gates would exceed ``MAX_SIZE``.
    """
    # Widths taper toward the single output gate so that every gate can be
    # wired into some parent (a parent layer of w gates exposes 2w child
    # slots): layer j holds min(width, 2**(layers - j)) gates, so the top
    # ``narrow`` layers hold 1, 2, 4, ... and the rest ``width`` each.
    narrow = min(layers, (width - 1).bit_length())
    gates = (1 << narrow) - 1 + (layers - narrow) * width
    if num_inputs + gates > MAX_SIZE:
        raise InvalidParamsError(
            f"{num_inputs} inputs and {gates} gates exceed the limit of "
            f"{MAX_SIZE} inputs and gates"
        )
    return [1 << k if k < narrow else width for k in range(layers - 1, -1, -1)]


def generate_random(
    layers: int,
    width: int,
    num_inputs: int,
    p_or: float,
    seed: int,
    fanout2: bool = False,
) -> Circuit:
    """Generate a random synchronous monotone circuit.

    Layer ``j`` holds ``min(width, 2**(layers-j))`` gates (so the top layer is
    the single output gate).  Gate kinds are OR with probability ``p_or``.
    Layer-1 gates draw children from the inputs, higher gates from the layer
    below; every non-top gate is covered by at least one parent.  Unused
    inputs are allowed.  With ``fanout2`` every input and every non-top gate
    feeds one or two parent slots, which requires
    ``width1 <= num_inputs <= 2 * width1`` for the bottom gate layer.

    The same parameters and seed reproduce the identical circuit.
    """
    if layers < 1 or width < 1 or num_inputs < 1:
        raise InvalidParamsError("layers, width and num_inputs must be positive")
    if not 0.0 <= p_or <= 1.0:
        raise InvalidParamsError("p_or must lie in [0, 1]")
    widths = layer_widths(layers, width, num_inputs)
    if fanout2 and not widths[0] <= num_inputs <= 2 * widths[0]:
        raise InvalidParamsError(
            f"fanout2 needs {widths[0]} <= num_inputs <= {2 * widths[0]} "
            f"for width {widths[0]} at layer 1"
        )
    rng = random.Random(seed)
    gates: list[Gate] = []
    below = [input_ref(i) for i in range(num_inputs)]
    for j, w in enumerate(widths, start=1):
        slots: list[str] = []
        if fanout2:
            # Each node below feeds one or two slots: one guaranteed copy,
            # the remainder drawn from the spare copies without replacement.
            slots = list(below) + rng.sample(below, 2 * w - len(below))
        elif j > 1:
            # Cover every gate below once, fill the rest uniformly.
            slots = list(below) + [rng.choice(below) for _ in range(2 * w - len(below))]
        else:
            slots = [rng.choice(below) for _ in range(2 * w)]
        rng.shuffle(slots)
        ids = [f"g{j}_{i}" for i in range(w)]
        for i, gid in enumerate(ids):
            kind = OR if rng.random() < p_or else AND
            gates.append(Gate(gid, kind, slots[2 * i], slots[2 * i + 1]))
        below = ids
    return Circuit(num_inputs, tuple(gates), gates[-1].id)
