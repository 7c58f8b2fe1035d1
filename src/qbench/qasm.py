"""OpenQASM 2.0 subset parser and emitter.

Supported: one quantum register, one classical register, the fixed gate set
(h x y z s sdg t tdg rx ry rz cx cz swap), barrier, and measure. Angle
expressions may use numbers, pi, + - * / and parentheses. OpenQASM 3,
classical control flow, and gate definitions are out of scope.

Every operand is read by one rule: `reg[i]` names one index, and `reg` alone
names every index of the register in order. A 1q gate applies to each qubit
its operand names; a 2q gate takes two `reg[i]` operands; a barrier takes
`reg` alone or a comma list of `reg[i]`. The two sides of a measure take the
same form, so `measure q -> c;` needs registers of one size. Measurements end
the circuit: a gate, barrier or second measurement on a measured qubit is an
error at its statement, as are a second write of a classical bit and any
statement the `Gate` checks refuse.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuits import Circuit, Gate, GateKind
from .errors import QasmError, UnsupportedConstructError, ValidationError

_GATE_NAMES = {
    "h": GateKind.H, "x": GateKind.X, "y": GateKind.Y, "z": GateKind.Z,
    "s": GateKind.S, "sdg": GateKind.SDG, "t": GateKind.T, "tdg": GateKind.TDG,
    "rx": GateKind.RX, "ry": GateKind.RY, "rz": GateKind.RZ,
    "cx": GateKind.CX, "cz": GateKind.CZ, "swap": GateKind.SWAP,
}
_ROTATIONS = {"rx", "ry", "rz"}

_TOKEN_RE = re.compile(
    r"(?P<float>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<str>\"[^\"]*\")"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[\[\](){},;+\-*/])"
)


@dataclass(frozen=True)
class _Token:
    text: str
    kind: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("//", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise QasmError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            tokens.append(_Token(m.group(0), m.lastgroup, lineno, pos + 1))
            pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise QasmError(
                f"unexpected end of input{f', expected {expect!r}' if expect else ''}",
                last.line if last else 1, last.col if last else 1,
            )
        if expect is not None and tok.text != expect:
            raise QasmError(f"expected {expect!r}, got {tok.text!r}", tok.line, tok.col)
        self.i += 1
        return tok

    def error(self, message: str) -> QasmError:
        tok = self.peek() or (self.tokens[-1] if self.tokens else None)
        return QasmError(message, tok.line if tok else 1, tok.col if tok else 1)


def _parse_angle(cur: _Cursor) -> float:
    # expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    # factor := ['-'|'+'] (number | 'pi' | '(' expr ')')
    def factor() -> float:
        tok = cur.peek()
        if tok is None:
            raise cur.error("unexpected end of angle expression")
        if tok.text in ("+", "-"):
            cur.next()
            value = factor()
            return value if tok.text == "+" else -value
        if tok.text == "(":
            cur.next()
            value = expr()
            cur.next(")")
            return value
        if tok.kind in ("float", "int"):
            cur.next()
            return float(tok.text)
        if tok.text == "pi":
            cur.next()
            return math.pi
        raise cur.error(f"bad angle token {tok.text!r}")

    def term() -> float:
        value = factor()
        while (tok := cur.peek()) is not None and tok.text in ("*", "/"):
            cur.next()
            rhs = factor()
            if tok.text == "*":
                value *= rhs
            else:
                if rhs == 0:
                    raise cur.error("division by zero in angle expression")
                value /= rhs
        return value

    def expr() -> float:
        value = term()
        while (tok := cur.peek()) is not None and tok.text in ("+", "-"):
            cur.next()
            rhs = term()
            value = value + rhs if tok.text == "+" else value - rhs
        return value

    return expr()


def _parse_index(cur: _Cursor) -> int:
    cur.next("[")
    tok = cur.next()
    if tok.kind != "int":
        raise QasmError(f"expected an index, got {tok.text!r}", tok.line, tok.col)
    cur.next("]")
    return int(tok.text)


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 subset program into a greedily layered circuit."""
    cur = _Cursor(_tokenize(text))
    tok = cur.next()
    if tok.text != "OPENQASM":
        raise QasmError("program must start with 'OPENQASM 2.0;'", tok.line, tok.col)
    ver = cur.next()
    if ver.text != "2.0":
        raise QasmError(f"unsupported OpenQASM version {ver.text!r}", ver.line, ver.col)
    cur.next(";")

    regs: dict[str, tuple[str, int]] = {}  # "qreg" / "creg" -> (name, size)
    gates: list[Gate] = []
    measured: set[int] = set()
    written: set[int] = set()  # classical bits

    def operand(decl: str, whole: bool | None = None, measure: bool = False) -> tuple[list[int], bool]:
        """The indices one operand names, and whether it is the `reg` form.

        `whole` True or False demands the `reg` or the `reg[i]` form; None
        takes `reg` unless an index follows the name. A measure reports an
        undeclared register as unknown, like any other wrong name.
        """
        tok = cur.next()
        name, size = regs.get(decl, (None, 0))
        if tok.text != name:
            if name is None and not measure:
                raise QasmError("quantum register used before declaration", tok.line, tok.col)
            what = "register" if decl == "qreg" else "classical register"
            raise QasmError(f"unknown {what} {tok.text!r}", tok.line, tok.col)
        if whole is None:
            whole = (nxt := cur.peek()) is None or nxt.text != "["
        if whole:
            return list(range(size)), True
        idx = _parse_index(cur)
        if idx >= size:
            raise QasmError(f"index {idx} out of range for {name}[{size}]", tok.line, tok.col)
        return [idx], False

    while cur.peek() is not None:
        tok = cur.next()
        if tok.text == "include":
            cur.next()  # the quoted filename; contents are assumed to be qelib1
            cur.next(";")
            continue
        if tok.text in ("qreg", "creg"):
            name_tok = cur.next()
            if name_tok.kind != "id":
                raise QasmError(f"expected a register name, got {name_tok.text!r}", name_tok.line, name_tok.col)
            size = _parse_index(cur)
            cur.next(";")
            if tok.text in regs:
                which = "quantum" if tok.text == "qreg" else "classical"
                raise QasmError(f"only one {which} register is supported", tok.line, tok.col)
            regs[tok.text] = (name_tok.text, size)
            continue
        angle = None
        if tok.text == "measure":
            kind = GateKind.MEASURE
            qubits, whole = operand("qreg", measure=True)
            cur.next("->")
            ctok = cur.peek()
            cbits, _ = operand("creg", whole, measure=True)  # the form of the quantum side
            if len(cbits) != len(qubits):
                (q, n), (c, m) = regs["qreg"], regs["creg"]
                raise QasmError(f"register size mismatch: {q}[{n}] -> {c}[{m}]", ctok.line, ctok.col)
            if hit := written.intersection(cbits):
                raise QasmError(f"measure writes {regs['creg'][0]}[{min(hit)}] twice", tok.line, tok.col)
            written.update(cbits)
            ops = [((q,), c) for q, c in zip(qubits, cbits)]
        elif tok.text == "barrier":
            kind = GateKind.BARRIER
            targets, whole = operand("qreg")
            while not whole and (nxt := cur.peek()) is not None and nxt.text == ",":
                cur.next()
                targets += operand("qreg", False)[0]
            ops = [(tuple(targets), None)]
        elif tok.kind == "id":
            kind = _GATE_NAMES.get(tok.text)
            if kind is None:
                raise QasmError(f"unsupported gate {tok.text!r}", tok.line, tok.col)
            if tok.text in _ROTATIONS:
                cur.next("(")
                angle = _parse_angle(cur)
                cur.next(")")
            if kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP):
                (a,), _ = operand("qreg", False)
                cur.next(",")
                (b,), _ = operand("qreg", False)
                ops = [((a, b), None)]
            else:
                ops = [((q,), None) for q in operand("qreg")[0]]
        else:
            raise QasmError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        cur.next(";")
        for qs, _ in ops:
            if hit := measured.intersection(qs):
                name = regs["qreg"][0]
                raise QasmError(f"{tok.text} on {name}[{min(hit)}] follows its measurement", tok.line, tok.col)
        try:
            gates.extend(Gate(kind, qs, angle=angle, cbit=c) for qs, c in ops)
        except ValidationError as err:  # the gate's own checks, reported at its statement
            raise QasmError(str(err), tok.line, tok.col) from None
        if kind is GateKind.MEASURE:
            measured.update(q for (q,), _ in ops)

    if "qreg" not in regs:
        raise QasmError("program declares no quantum register", 1, 1)
    return Circuit.from_gates(regs["qreg"][1], gates, metadata={"source": "qasm"})


def emit_qasm(circuit: Circuit) -> str:
    """Deterministic OpenQASM 2.0 text for a subset-expressible circuit.

    Pauli layers are lowered to x/y/z gates (the overall sign is a global
    phase); U2Q gates are not expressible and raise.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    measures = circuit.measurements()
    if measures:
        lines.append(f"creg c[{max(g.cbit for g in measures) + 1}];")
    for layer in circuit.layers:
        for g in layer:
            if g.kind is GateKind.U2Q:
                raise UnsupportedConstructError("u2q gates cannot be emitted as OpenQASM 2.0")
            if g.kind is GateKind.MEASURE:
                continue
            if g.kind is GateKind.BARRIER:
                refs = ",".join(f"q[{t}]" for t in g.targets)
                lines.append(f"barrier {refs};")
            elif g.kind is GateKind.PAULI:
                for t, letter in zip(g.targets, g.paulis):
                    if letter != "I":
                        lines.append(f"{letter.lower()} q[{t}];")
            elif g.angle is not None:
                lines.append(f"{g.kind.value}({g.angle!r}) q[{g.targets[0]}];")
            elif len(g.targets) == 2:
                lines.append(f"{g.kind.value} q[{g.targets[0]}],q[{g.targets[1]}];")
            else:
                lines.append(f"{g.kind.value} q[{g.targets[0]}];")
    for g in sorted(measures, key=lambda g: g.cbit):
        lines.append(f"measure q[{g.targets[0]}] -> c[{g.cbit}];")
    return "\n".join(lines) + "\n"
