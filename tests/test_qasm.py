import math

import numpy as np
import pytest

from qbench.circuits import CX, Circuit, GateKind, H, Measure, Rz, U2Q
from qbench.errors import QasmError, UnsupportedConstructError
from qbench.qasm import emit_qasm, parse_qasm
from qbench.rng import SeedStream

HEADER = "OPENQASM 2.0;\n"


def test_single_gate_program():
    c = parse_qasm(HEADER + "qreg q[1]; h q[0];")
    assert c == Circuit(1, ((H(0),),))


def test_missing_header_rejected():
    with pytest.raises(QasmError):
        parse_qasm("qreg q[1]; h q[0];")


def test_register_bounds_error_carries_position():
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "qreg q[4];\ncx q[0], q[5];")
    assert "out of range" in str(err.value)
    assert err.value.line == 3
    assert err.value.column is not None


def test_unsupported_gate_name():
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "qreg q[2]; ccx q[0];")
    assert "unsupported gate" in str(err.value)


def test_syntax_error_has_line_and_column():
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "qreg q[1];\nh q[0]")
    assert err.value.line is not None


def test_angle_expressions():
    c = parse_qasm(HEADER + "qreg q[1]; rz(pi/2) q[0]; rx(-pi) q[0]; ry(2*pi/4) q[0]; rz((pi+1)/2) q[0];")
    angles = [g.angle for g in c.all_gates()]
    assert angles == pytest.approx([math.pi / 2, -math.pi, math.pi / 2, (math.pi + 1) / 2])


def test_measure_and_broadcast():
    c = parse_qasm(HEADER + "qreg q[2]; creg c[2]; h q[0]; measure q -> c;")
    assert c.measured_qubits() == (0, 1)
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[3]; creg c[2]; measure q -> c;")


def test_single_qubit_broadcast():
    c = parse_qasm(HEADER + "qreg q[3]; h q;")
    assert sum(1 for g in c.all_gates() if g.kind is GateKind.H) == 3


def test_comments_and_include_ignored():
    c = parse_qasm(HEADER + 'include "qelib1.inc";\n// comment\nqreg q[1]; h q[0]; // trailing\n')
    assert c.gate_count() == 1


def test_emit_contains_exactly_one_h():
    text = emit_qasm(Circuit(1, ((H(0),),)))
    assert text.count("h q[0];") == 1


def test_emit_empty_circuit_is_header_only():
    text = emit_qasm(Circuit(2, ()))
    assert [l for l in text.splitlines() if l] == [
        "OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];"]


def test_emit_u2q_unsupported():
    c = Circuit(2, ((U2Q(0, 1, np.eye(4, dtype=complex)),),))
    with pytest.raises(UnsupportedConstructError):
        emit_qasm(c)


def _random_subset_circuit(stream: SeedStream) -> Circuit:
    from qbench.circuits import Gate

    rng = stream.generator()
    n = int(rng.integers(1, 6))
    kinds_1q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
    gates = []
    for _ in range(int(rng.integers(0, 25))):
        roll = rng.random()
        if roll < 0.5:
            gates.append(Gate(GateKind(kinds_1q[int(rng.integers(0, len(kinds_1q)))]),
                              (int(rng.integers(0, n)),)))
        elif roll < 0.75:
            kind = GateKind(["rx", "ry", "rz"][int(rng.integers(0, 3))])
            gates.append(Gate(kind, (int(rng.integers(0, n)),),
                              angle=float(rng.uniform(-2 * math.pi, 2 * math.pi))))
        elif n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            kind = GateKind(["cx", "cz", "swap"][int(rng.integers(0, 3))])
            gates.append(Gate(kind, (int(a), int(b))))
    if rng.random() < 0.7:
        order = rng.permutation(n)
        gates.extend(Measure(int(q), i) for i, q in enumerate(order))
    return Circuit.from_gates(n, gates)


def test_parse_emit_parse_fixpoint_over_corpus():
    for k in range(120):
        original = _random_subset_circuit(SeedStream(7000 + k))
        text = emit_qasm(original)
        reparsed = parse_qasm(text)
        assert reparsed == original, f"corpus program {k} did not round-trip"
        assert emit_qasm(reparsed) == text


def test_register_operands_name_every_index():
    """`h q;`, `barrier q;` and `measure q -> c;` name every index in order:
    they parse to the circuit their expanded forms and the gate list give."""
    from qbench.circuits import Barrier, Gate

    for k in range(60):
        rng = SeedStream(9000 + k).generator()
        n = int(rng.integers(1, 5))
        whole, expanded, gates = [], [], []
        for _ in range(int(rng.integers(1, 10))):
            roll = rng.random()
            if roll < 0.4:
                name = ["h", "x", "s", "t"][int(rng.integers(0, 4))]
                whole.append(f"{name} q;")
                expanded += [f"{name} q[{q}];" for q in range(n)]
                gates += [Gate(GateKind(name), (q,)) for q in range(n)]
            elif roll < 0.7:
                whole.append("barrier q;")
                expanded.append("barrier " + ",".join(f"q[{q}]" for q in range(n)) + ";")
                gates.append(Barrier(*range(n)))
            else:
                q = int(rng.integers(0, n))
                whole.append(f"rz(0.25) q[{q}];")
                expanded.append(f"rz(0.25) q[{q}];")
                gates.append(Rz(q, 0.25))
        if rng.random() < 0.7:
            whole.append("measure q -> c;")
            expanded += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
            gates += [Measure(q, q) for q in range(n)]
        head = HEADER + f"qreg q[{n}]; creg c[{n}];\n"
        expected = Circuit.from_gates(n, gates)
        assert parse_qasm(head + "\n".join(whole)) == expected, f"program {k}"
        assert parse_qasm(head + "\n".join(expanded)) == expected, f"program {k}"


@pytest.mark.parametrize("program, line", [
    ("qreg q[1]; creg c[1];\nmeasure q[0] -> c[0];\nx q[0];", 4),
    ("qreg q[2]; creg c[2];\nmeasure q -> c;\n\ncx q[1], q[0];", 5),
    ("qreg q[2]; creg c[2];\nmeasure q[1] -> c[1];\nh q;", 4),
    ("qreg q[2]; creg c[2];\nmeasure q[0] -> c[0];\nbarrier q[1], q[0];", 4),
], ids=["x-after-measure", "cx-after-register-measure", "register-h", "barrier"])
def test_gate_after_measurement_is_refused_at_its_statement(program, line):
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + program)
    assert "follows its measurement" in str(err.value)
    assert (err.value.line, err.value.column) == (line, 1)


@pytest.mark.parametrize("program, message", [
    ("h q[0];", "line 2, col 3: quantum register used before declaration"),
    ("qreg q[1];\nbarrier q[0], r[0];", "line 3, col 15: unknown register 'r'"),
    ("creg c[1];\nmeasure q[0] -> c[0];", "line 3, col 9: unknown register 'q'"),
    ("qreg q[1];\nmeasure q[0] -> c[0];", "line 3, col 17: unknown classical register 'c'"),
    ("qreg q[1]; creg c[1];\nmeasure q[0] -> d[0];", "line 3, col 17: unknown classical register 'd'"),
    ("qreg q[2];\nh q[2];", "line 3, col 3: index 2 out of range for q[2]"),
    ("qreg q[2];\nbarrier q[0], q[3];", "line 3, col 15: index 3 out of range for q[2]"),
    ("qreg q[2]; creg c[1];\nmeasure q[5] -> c[0];", "line 3, col 9: index 5 out of range for q[2]"),
    ("qreg q[2]; creg c[1];\nmeasure q[0] -> c[1];", "line 3, col 17: index 1 out of range for c[1]"),
    ("qreg q[3]; creg c[2];\nmeasure q -> c;", "line 3, col 14: register size mismatch: q[3] -> c[2]"),
    ("qreg q[2]; creg c[2];\nmeasure q -> c[0];", "line 3, col 15: expected ';', got '['"),
    ("qreg q[2]; creg c[2];\nmeasure q[0] -> c;", "line 3, col 18: expected '[', got ';'"),
    ("qreg q[2];\nbarrier q, q[1];", "line 3, col 10: expected ';', got ','"),
    ("qreg q[2];\ncx q, q[1];", "line 3, col 5: expected '[', got ','"),
    ("qreg q[2];\nh q[a];", "line 3, col 5: expected an index, got 'a'"),
])
def test_operand_errors_name_the_operand(program, message):
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + program)
    assert str(err.value) == message


@pytest.mark.parametrize("program, message", [
    ("qreg q[2];\nbarrier q[0], q[0];", "line 3, col 1: barrier targets must be distinct: (0, 0)"),
    ("qreg q[1];\nrx(1e400) q[0];", "line 3, col 1: rx needs a finite angle"),
    ("qreg q[1]; creg c[2];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[1];",
     "line 4, col 1: measure on q[0] follows its measurement"),
    ("qreg q[2]; creg c[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[0];",
     "line 4, col 1: measure writes c[0] twice"),
    ("qreg q[0];\nbarrier q;", "line 3, col 1: barrier needs at least one target"),
], ids=["repeated-barrier-target", "infinite-angle", "second-measure", "second-write",
        "empty-register-barrier"])
def test_gate_checks_fail_at_their_statement(program, message):
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + program)
    assert str(err.value) == message


def test_measures_of_idle_qubits_still_end_the_circuit():
    c = parse_qasm(HEADER + "qreg q[2]; creg c[2];\nmeasure q[0] -> c[0];\nh q[1];\nmeasure q[1] -> c[1];")
    assert c == Circuit(2, ((H(1),), (Measure(0, 0), Measure(1, 1))))


def test_roundtrip_preserves_exact_angles():
    c = Circuit.from_gates(1, [Rz(0, 0.1234567890123456789)])
    assert parse_qasm(emit_qasm(c)) == c
