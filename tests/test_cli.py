"""Command-line interface: subcommands, exit codes, and output formats."""

import json

import numpy as np
import pytest

from helpers import nan_step_chain
from qmcforge import cli
from qmcforge.cli import gen_test_circuit, main
from qmcforge.errors import SizeOutOfRange
from qmcforge.normalize import translate
from qmcforge.parser import emit_circuit_text

DEUTSCH = """\
qubits 2
gate H 1
gate H 2
gate CNOT 1 2
gate H 1
measure 1
"""


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "deutsch.qc"
    path.write_text(DEUTSCH)
    return str(path)


def test_validate_ok(circuit_file, capsys):
    assert main(["validate", circuit_file]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "2 qubits" in out


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 2\ngate CNOT 1 1\nmeasure 1\nmeasure 2\n")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-circuit.qc"]) == 2
    assert "error" in capsys.readouterr().err


def test_compile_writes_model(circuit_file, tmp_path, capsys):
    out = tmp_path / "model.qpmc"
    assert main(["compile", circuit_file, "--output", str(out),
                 "--name", "deutsch"]) == 0
    text = out.read_text()
    assert text.startswith("qmc\n")
    assert "module deutsch" in text
    assert "endmodule" in text


def test_compile_stdout_reparses(circuit_file, capsys):
    assert main(["compile", circuit_file]) == 0
    text = capsys.readouterr().out
    from qmcforge.emit import reparse_model
    q = reparse_model(text)
    assert q.k == 2 and q.h == 1


def test_compile_json_output(circuit_file, capsys):
    assert main(["compile", circuit_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qubits"] == 2 and payload["measured"] == 1
    assert payload["swap_account"]["total"] == sum(
        payload["swap_account"]["per_gate"])
    from qmcforge.emit import reparse_model
    q = reparse_model(payload["model"])
    assert q.k == 2 and q.h == 1


def test_simulate_text_output(circuit_file, capsys):
    assert main(["simulate", circuit_file, "--input", "01"]) == 0
    out = capsys.readouterr().out
    assert "1  1.0000000000" in out


def test_simulate_json_output(circuit_file, capsys):
    assert main(["simulate", circuit_file, "--input", "01",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    probs = {o["bits"]: o["probability"] for o in payload["outcomes"]}
    assert probs["1"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_state_file(circuit_file, tmp_path, capsys):
    amps = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]  # |01>
    state = tmp_path / "state.json"
    state.write_text(json.dumps(amps))
    assert main(["simulate", circuit_file, "--state-file", str(state)]) == 0
    assert "1  1.0000000000" in capsys.readouterr().out


@pytest.mark.parametrize("tol", [None, 1e-12, 1e-8], ids=["default-tol", "tol-1e-12", "tol-1e-8"])
@pytest.mark.parametrize("norm", [1 + 4e-10, 1 - 4e-10, 1 + 7e-10, 1 - 7e-10, 1 + 2e-9, 1 - 2e-9])
def test_simulate_checks_a_state_file_once_under_tol(norm, tol, tmp_path, capsys):
    # one check, run_qmc's unit trace under --tol: the file's ket either
    # runs, or is refused by an error naming its norm; once a ket the norm
    # check let through was refused again as "not a unit-trace Hermitian
    # matrix", and --tol never widened the norm check's fixed 1e-9
    circuit = tmp_path / "h.qc"
    circuit.write_text("qubits 1\ngate H 1\nmeasure 1\n")
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[norm, 0], [0, 0]]))
    argv = ["simulate", str(circuit), "--state-file", str(state)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    code = main(argv)
    captured = capsys.readouterr()
    if abs(norm * norm - 1) <= (1e-9 if tol is None else tol):
        assert code == 0 and captured.err == ""
        shown = [float(line.split()[1]) for line in captured.out.splitlines()[1:]]
        assert np.allclose(shown, [norm * norm / 2] * 2, rtol=0, atol=1e-10)
        return
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    prefix = "error: state file norm is "
    assert line.startswith(prefix)
    assert abs(float(line[len(prefix):].split(",")[0]) - norm) <= 1e-15


def test_simulate_rejects_bad_bits(circuit_file, capsys):
    assert main(["simulate", circuit_file, "--input", "012"]) == 2


def test_verify_passes(circuit_file, capsys):
    assert main(["verify", circuit_file, "--random", "4", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_against_model_file(circuit_file, tmp_path, capsys):
    model = tmp_path / "model.qpmc"
    assert main(["compile", circuit_file, "--output", str(model)]) == 0
    assert main(["verify", circuit_file, "--against", str(model)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_fails_against_wrong_model(circuit_file, tmp_path, capsys):
    wrong_src = tmp_path / "wrong.qc"
    wrong_src.write_text(DEUTSCH.replace("gate CNOT 1 2", "gate CZ 1 2"))
    model = tmp_path / "wrong.qpmc"
    assert main(["compile", str(wrong_src), "--output", str(model)]) == 0
    assert main(["verify", circuit_file, "--against", str(model)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_against_does_not_compile(circuit_file, tmp_path, capsys, monkeypatch):
    # the oracle reads only the circuit and the model
    good, wrong_src, wrong = (tmp_path / name for name in ("good.qpmc", "wrong.qc", "wrong.qpmc"))
    wrong_src.write_text(DEUTSCH.replace("gate CNOT 1 2", "gate CZ 1 2"))
    assert main(["compile", circuit_file, "--output", str(good)]) == 0
    assert main(["compile", str(wrong_src), "--output", str(wrong)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("verify --against compiled the circuit")

    monkeypatch.setattr(cli, "translate", refuse)
    monkeypatch.setattr(cli, "build_qmc", refuse)
    assert main(["verify", circuit_file, "--against", str(good)]) == 0
    assert main(["verify", circuit_file, "--against", str(wrong)]) == 1
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out


SINGLE_H = "qubits 1\ngate H 1\nmeasure 1\n"
H_ROW = "0.7071067811865475, 0.7071067811865475; 0.7071067811865475, -0.7071067811865475"


def test_verify_rejects_nan_model_file(tmp_path, capsys):
    # once reparsed and verified PASS with every deviation 0.000e+00
    src = tmp_path / "h.qc"
    src.write_text(SINGLE_H)
    model = tmp_path / "h.qpmc"
    assert main(["compile", str(src), "--output", str(model)]) == 0
    model.write_text(model.read_text().replace(f"[{H_ROW}]", "[nan, 0; 0, 1]", 1))
    assert main(["verify", str(src), "--against", str(model)]) == 2
    captured = capsys.readouterr()
    assert "non-finite entry" in captured.err
    assert "PASS" not in captured.out


def test_verify_nan_chain_fails_with_exit_1(tmp_path, capsys, monkeypatch):
    # a NaN that gets past the reparser still fails the check, and shows
    src = tmp_path / "h.qc"
    src.write_text(SINGLE_H)
    model = tmp_path / "h.qpmc"
    assert main(["compile", str(src), "--output", str(model)]) == 0
    capsys.readouterr()
    reparse = cli.reparse_model
    monkeypatch.setattr(cli, "reparse_model", lambda text: nan_step_chain(reparse(text)))
    assert main(["verify", str(src), "--against", str(model)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "state deviation       nan" in out


def test_verify_json_is_strict_on_nan_chain(tmp_path, capsys, monkeypatch):
    # a NaN deviation once printed as a bare NaN token, which strict parsers reject
    src = tmp_path / "h.qc"
    src.write_text(SINGLE_H)
    model = tmp_path / "h.qpmc"
    assert main(["compile", str(src), "--output", str(model)]) == 0
    capsys.readouterr()
    reparse = cli.reparse_model
    monkeypatch.setattr(cli, "reparse_model", lambda text: nan_step_chain(reparse(text)))
    assert main(["verify", str(src), "--against", str(model), "--format", "json"]) == 1

    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["passed"] is False
    assert payload["deviations"]["state"] == "nan"
    assert "state clause: input 0 deviates by nan" in payload["failures"]
    assert payload["worst"] == {"state": {"input": 0, "outcome": None},
                                "chain": {"input": 0, "outcome": None},
                                "probability": {"input": 0, "outcome": "0"},
                                "support": {"input": 0, "outcome": "0"}}


def test_verify_json_format(circuit_file, capsys):
    assert main(["verify", circuit_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["deviations"]["probability"] <= 1e-9
    assert list(payload["worst"]) == list(payload["deviations"])
    for at in payload["worst"].values():
        assert 0 <= at["input"] < payload["inputs"]


def test_gen_test_circuit_structure():
    for k in range(3, 9):
        c = gen_test_circuit(k)
        assert c.k == k
        s, _ = translate(c)
        assert s.n == k  # consecutive gates share a wire: nothing groups
        assert s.h == 0
    with pytest.raises(SizeOutOfRange):
        gen_test_circuit(2)
    with pytest.raises(SizeOutOfRange):
        gen_test_circuit(13)


def test_compile_rejects_register_past_the_cap(tmp_path, capsys):
    src = tmp_path / "wide.qc"
    src.write_text("qubits 40\n")
    assert main(["compile", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: line 1: qubits 40 exceeds the register cap of 12"]


def test_validate_refuses_qubits_past_the_int_digit_limit(tmp_path, capsys):
    # int() refuses a decimal of over 4,300 digits; this was exit 1 and a traceback
    src = tmp_path / "wide.qc"
    src.write_text("qubits " + "1" * 5000 + "\n")
    assert main(["validate", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: line 1: qubits value of 5000 digits exceeds the register cap of 12"]


def test_verify_battery_shares_one_identity(tmp_path, capsys, monkeypatch):
    # each basis ket must be a row of one identity, not a column view that
    # keeps its own 2^k square identity alive (dim^3 memory in all)
    src = tmp_path / "cycle7.qc"
    src.write_text(emit_circuit_text(gen_test_circuit(7)))
    seen = []

    def capture(c, s, q, inputs, tol):
        seen.extend(inputs)
        return check_equivalence(c, s, q, inputs, tol=tol)

    check_equivalence = cli.check_equivalence
    monkeypatch.setattr(cli, "check_equivalence", capture)
    assert main(["verify", str(src)]) == 0
    assert np.array_equal(np.array(seen), np.eye(128))
    owners = {}
    for v in seen:
        owner = v if v.base is None else v.base
        owners[id(owner)] = owner.nbytes
    assert sum(owners.values()) <= 128 * 128 * 16


def test_gen_test_circuit_deterministic():
    assert emit_circuit_text(gen_test_circuit(5)) == \
        emit_circuit_text(gen_test_circuit(5))


def test_bench_runs_and_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "report.json"
    assert main(["bench", "--sizes", "3..4", "--runs", "2",
                 "--output", str(report)]) == 0
    out = capsys.readouterr().out
    assert "mean (s)" in out
    payload = json.loads(report.read_text())
    assert payload["format"] == "qmcforge-bench/1"
    assert [r["size"] for r in payload["results"]] == [3, 4]
    assert all(r["mean_s"] > 0 for r in payload["results"])


def test_bench_size_list_spelling(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--sizes", "3,5", "--runs", "1",
                 "--output", str(tmp_path / "r.json")]) == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert [r["size"] for r in payload["results"]] == [3, 5]


@pytest.mark.parametrize("argv, state", [
    (["simulate", "{circuit}", "--state-file", "{state}"], "[[1, 0, 5], [0, 0]]"),
    (["simulate", "{circuit}", "--state-file", "{state}"], '{"a": 1}'),
    (["simulate", "{circuit}", "--state-file", "{state}"],
     '[["a", 0], [0, 0], [0, 0], [0, 0]]'),
    (["simulate", "{circuit}", "--state-file", "{state}"],
     "[[NaN, 0], [0, 0], [0, 0], [0, 0]]"),
    (["simulate", "{circuit}", "--state-file", "{state}"],
     "[[1" + "0" * 400 + ", 0], [0, 0], [0, 0], [0, 0]]"),
    (["simulate", "{circuit}", "--state-file", "{state}"], "[" * 200000),
    # over the 4,300 digits int() converts: was exit 1 and a traceback
    (["simulate", "{circuit}", "--state-file", "{state}"],
     "[[" + "1" * 5000 + ", 0], [0, 0], [0, 0], [0, 0]]"),
    (["simulate", "{circuit}", "--input", ""], None),
    (["simulate", "{circuit}", "--input", "00", "--state-file", "{state}"],
     "[[1, 0], [0, 0], [0, 0], [0, 0]]"),
    (["simulate", "{circuit}", "--state-file", ""], None),
    (["bench", "--sizes", "x..3"], None),
    (["bench", "--sizes", "5..3"], None),
    (["bench", "--sizes", "4..13"], None),
    (["bench", "--sizes", "3,5,40"], None),
    (["bench", "--runs", "0"], None),
    (["verify", "{circuit}", "--random", "-3"], None),
    (["verify", "{circuit}", "--tol", "nan"], None),
    (["verify", "{circuit}", "--tol", "inf"], None),
    (["verify", "{circuit}", "--tol=-1e-9"], None),
    (["verify", "{circuit}", "--random", "1", "--seed", "-1"], None),
    (["compile", "{circuit}", "--name", "m\nendmodule"], None),
    (["compile", "{circuit}", "--name", ""], None),
    (["verify", "{circuit}", "--tol", "abc"], None),
    (["verify", "{circuit}", "--strategy", "fastest"], None),
    (["bench", "--runs", "many"], None),
    (["compile"], None),
    ([], None),
    (["frob"], None),
], ids=["state-triple", "state-object", "state-string", "state-nan",
        "state-overflow", "state-too-deep", "state-5000-digits", "input-empty",
        "input-and-state-file", "state-file-empty", "sizes-not-int",
        "sizes-empty", "sizes-past-12", "sizes-list-past-12", "runs-zero", "random-negative",
        "tol-nan", "tol-inf", "tol-negative", "seed-negative",
        "name-newline", "name-empty", "tol-not-a-number", "strategy-unknown",
        "runs-not-int", "circuit-missing", "command-missing", "command-unknown"])
def test_bad_arguments_exit_2(argv, state, circuit_file, tmp_path, capsys, monkeypatch):
    # bench must reject its arguments before it builds any circuit
    monkeypatch.setattr(cli, "gen_test_circuit",
                        lambda size: pytest.fail(f"bench ran size {size}"))
    monkeypatch.chdir(tmp_path)
    state_file = tmp_path / "state.json"
    state_file.write_text(state or "")
    code = main([a.format(circuit=circuit_file, state=state_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_verify_refuses_a_random_count_past_the_ket_bound(circuit_file, capsys, monkeypatch):
    # 4^12 amplitudes hold 2^22 kets of 2 wires; a larger count once drew
    # kets until the process was killed, and is refused before any is drawn
    drawn = []
    monkeypatch.setattr(cli, "random_kets", lambda k, count, rng: drawn.append(count) or [])
    for count in (2 ** 22 + 1, 99999999999999999999):
        assert main(["verify", circuit_file, "--random", str(count)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --random wants at most {2 ** 22} kets of 2 wires (4^12 amplitudes), "
            f"got {count}"]
    assert drawn == []
    assert main(["verify", circuit_file, "--random", str(2 ** 22)]) == 0
    assert drawn == [2 ** 22]


# each of these options was accepted and silently ignored
@pytest.mark.parametrize("argv", [
    ["validate", "{circuit}", "--strategy", "direct"],
    ["validate", "{circuit}", "--emit-swaps-as-gates"],
    ["validate", "{circuit}", "--tol", "1e-6"],
    ["validate", "{circuit}", "--seed", "5"],
    ["compile", "{circuit}", "--tol", "3"],
    ["compile", "{circuit}", "--seed", "5"],
    ["simulate", "{circuit}", "--seed", "5"],
    ["bench", "--tol", "1e-6"],
    ["bench", "--seed", "5"],
    ["bench", "--format", "json"],
], ids=lambda argv: argv[0] + next(a for a in argv if a.startswith("--")))
def test_unread_options_are_rejected(argv, circuit_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "gen_test_circuit",
                        lambda size: pytest.fail(f"bench ran size {size}"))
    assert main([a.format(circuit=circuit_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: qmcforge: unrecognized arguments: ")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_strategies_emit_identical_models(tmp_path, capsys):
    src = tmp_path / "swapy.qc"
    src.write_text("qubits 3\ngate CNOT 3 1\nmeasure 3\n")
    for strategy in ("composed", "direct", "naive-adjacent"):
        assert main(["compile", str(src), "--strategy", strategy,
                     "--output", str(tmp_path / f"{strategy}.qpmc")]) == 0
    # all three strategies must produce the same model text
    texts = {(tmp_path / f"{s}.qpmc").read_text()
             for s in ("composed", "direct", "naive-adjacent")}
    assert len(texts) == 1


def test_emit_swaps_as_gates_flag(tmp_path, capsys):
    src = tmp_path / "swapy.qc"
    src.write_text("qubits 3\ngate CNOT 3 1\nmeasure 3\n")
    fused = tmp_path / "fused.qpmc"
    split = tmp_path / "split.qpmc"
    assert main(["compile", str(src), "--output", str(fused)]) == 0
    assert main(["compile", str(src), "--strategy", "naive-adjacent",
                 "--emit-swaps-as-gates", "--output", str(split)]) == 0
    # standalone swaps stretch the chain: more guarded commands
    assert split.read_text().count("(s' =") > fused.read_text().count("(s' =")


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"],
    ["simulate", "{circuit}", "--state-file", "{bad}"],
    ["verify", "{circuit}", "--against", "{bad}"],
], ids=["circuit", "state-file", "model"])
def test_undecodable_file_exits_2(argv, circuit_file, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xffqubits 2\n")
    code = main([a.format(circuit=circuit_file, bad=bad) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {bad}: not UTF-8 text "
                                         "(invalid start byte at byte 0)"]
