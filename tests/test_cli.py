import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse import solver
from catmouse.circuits import generate_random, serialize_circuit
from catmouse.cli import main
from catmouse.reduction import import_graph
from catmouse.solver import GameInstance, solve

from conftest import and_chain_text, fan_edges, fan_levels

ONE_AND = "inputs 2\ngate g0 AND i0 i1\noutput g0\n"
ONE_OR = "inputs 2\ngate g0 OR i0 i1\noutput g0\n"
THREE_GATE = (
    "inputs 3\n"
    "gate a OR i0 i1\n"
    "gate b AND i1 i2\n"
    "gate c AND a b\n"
    "output c\n"
)

# ``catmouse solve`` of the THREE_GATE boards for bits 011 from states that
# play from the start never reaches, as the solver that decided every state
# up front printed them.
OFF_START_SOLVES = {
    ("directed", "c,c.M.1,Mouse"): (
        "outcome MouseWin\n"
        "dist 13\n"
        "ply 1 Mouse c.M.1 -> c.M.2\n"
        "ply 2 Cat c -> c.C.1\n"
        "ply 3 Mouse c.M.2 -> c.M.4\n"
        "ply 4 Cat c.C.1 -> c.C.2\n"
        "ply 5 Mouse c.M.4 -> a.M.1\n"
        "ply 6 Cat c.C.2 -> c.C.4\n"
        "ply 7 Mouse a.M.1 -> a.M.2\n"
        "ply 8 Cat c.C.4 -> a.C.1\n"
        "ply 9 Mouse a.M.2 -> a.M.4\n"
        "ply 10 Cat a.C.1 -> a.C.2\n"
        "ply 11 Mouse a.M.4 -> a.esc.L.1\n"
        "ply 12 Cat a.C.2 -> a.C.4\n"
        "ply 13 Mouse a.esc.L.1 -> h\n"
        "result MouseWin hole\n"
    ),
    ("directed", "c.C.1,c.M.1,Cat"): (
        "outcome CatWin\n"
        "dist 14\n"
        "ply 1 Cat c.C.1 -> c.C.2\n"
        "ply 2 Mouse c.M.1 -> c.M.2\n"
        "ply 3 Cat c.C.2 -> c.C.4\n"
        "ply 4 Mouse c.M.2 -> c.M.4\n"
        "ply 5 Cat c.C.4 -> a.C.1\n"
        "ply 6 Mouse c.M.4 -> a.M.1\n"
        "ply 7 Cat a.C.1 -> a.C.2\n"
        "ply 8 Mouse a.M.1 -> a.M.2\n"
        "ply 9 Cat a.C.2 -> a.C.5\n"
        "ply 10 Mouse a.M.2 -> a.M.4\n"
        "ply 11 Cat a.C.5 -> i1.C\n"
        "ply 12 Mouse a.M.4 -> a.esc.L.1\n"
        "ply 13 Cat i1.C -> h\n"
        "ply 14 Mouse a.esc.L.1 -> h\n"
        "result CatWin capture\n"
    ),
    ("directed", "a.C.2,b.M.4,Mouse"): (
        "outcome MouseWin\n"
        "dist 3\n"
        "ply 1 Mouse b.M.4 -> b.esc.L.1\n"
        "ply 2 Cat a.C.2 -> a.C.4\n"
        "ply 3 Mouse b.esc.L.1 -> h\n"
        "result MouseWin hole\n"
    ),
    ("undirected", "c,c.M.1,Mouse"): (
        "outcome MouseWin\n"
        "dist 13\n"
        "ply 1 Mouse c.M.1 -> c.C.2\n"
        "ply 2 Cat c -> c.C.1\n"
        "ply 3 Mouse c.C.2 -> c.C.4\n"
        "ply 4 Cat c.C.1 -> c\n"
        "ply 5 Mouse c.C.4 -> a.C.1\n"
        "ply 6 Cat c -> c.C.1\n"
        "ply 7 Mouse a.C.1 -> a.C.2\n"
        "ply 8 Cat c.C.1 -> c\n"
        "ply 9 Mouse a.C.2 -> a.C.4\n"
        "ply 10 Cat c -> c.C.1\n"
        "ply 11 Mouse a.C.4 -> a.esc.L.1\n"
        "ply 12 Cat c.C.1 -> c\n"
        "ply 13 Mouse a.esc.L.1 -> h\n"
        "result MouseWin hole\n"
    ),
    ("undirected", "c.C.1,c.M.1,Cat"): (
        "outcome Draw\n"
    ),
    ("undirected", "a.C.2,b.M.4,Mouse"): (
        "outcome MouseWin\n"
        "dist 3\n"
        "ply 1 Mouse b.M.4 -> b.esc.L.1\n"
        "ply 2 Cat a.C.2 -> a.C.1\n"
        "ply 3 Mouse b.esc.L.1 -> h\n"
        "result MouseWin hole\n"
    ),
}


@pytest.fixture
def and_file(tmp_path):
    path = tmp_path / "and.circuit"
    path.write_text(ONE_AND)
    return str(path)


@pytest.fixture
def or_file(tmp_path):
    path = tmp_path / "or.circuit"
    path.write_text(ONE_OR)
    return str(path)


class TestEval:
    def test_true_assignment_prints_one(self, and_file, capsys):
        assert main(["eval", and_file, "11"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_false_assignment_prints_zero(self, and_file, capsys):
        assert main(["eval", and_file, "10"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_wrong_bit_count_is_a_usage_error(self, and_file, capsys):
        assert main(["eval", and_file, "101"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_the_module_runs_as_a_script(self, and_file):
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = (src, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        run = subprocess.run(
            [sys.executable, "-m", "catmouse.cli", "eval", and_file, "11"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (0, "1\n", "")

    def test_missing_file_is_a_usage_error(self, capsys):
        assert main(["eval", "no-such-file", "11"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReduce:
    def test_structured_output(self, and_file, capsys):
        assert main(["reduce", and_file, "11"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("game directed\n")
        assert "special c=c m=g0.M.1 h=h d=d" in out

    def test_dot_output(self, and_file, capsys):
        assert main(["reduce", and_file, "11", "--mode", "undirected",
                     "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph game {")
        assert "style=dotted" in out

    def test_byte_identical_reruns(self, and_file, capsys):
        main(["reduce", and_file, "01", "--mode", "undirected"])
        first = capsys.readouterr().out
        main(["reduce", and_file, "01", "--mode", "undirected"])
        assert capsys.readouterr().out == first


class TestSolve:
    def test_reduce_then_solve_pipeline(self, and_file, tmp_path, capsys):
        main(["reduce", and_file, "11"])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", str(graph_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "outcome MouseWin"
        assert out[1] == "dist 8"
        assert out[2].startswith("ply 1 Cat c -> ")
        assert out[-1] == "result MouseWin hole"

    def test_state_override(self, and_file, tmp_path, capsys):
        main(["reduce", and_file, "00"])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", str(graph_file),
                     "--state", "g0.C.1,g0.M.1,Mouse"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "outcome CatWin"

    @pytest.mark.parametrize("mode,state", list(OFF_START_SOLVES))
    def test_states_outside_the_start_class(self, mode, state, tmp_path, capsys):
        circuit_file = tmp_path / "three.circuit"
        circuit_file.write_text(THREE_GATE)
        main(["reduce", str(circuit_file), "011", "--mode", mode])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", str(graph_file), "--state", state]) == 0
        assert capsys.readouterr().out == OFF_START_SOLVES[mode, state]

    def test_off_class_state_over_the_budget_is_a_one_line_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        levels = fan_levels()
        lines = ["game directed", "node c cat-start", "node h hole", "node d dead-end"]
        lines += [f"node {v} dead-end" for level in levels[1:-1] for v in level]
        lines += [f"edge {a} {b} inter-gadget" for a, b in fan_edges(levels)]
        lines += ["special c=c m=u0 h=h d=d", "layer d 0"]
        lines += [f"layer {v} {4 - k}" for k, level in enumerate(levels) for v in level]
        path = tmp_path / "fan.graph"
        path.write_text("\n".join(lines) + "\n")
        graph, _cmap = import_graph(path.read_text())
        start = solve(GameInstance.from_game_graph(graph)).stats[0]
        monkeypatch.setattr(solver, "_MAX_TABLE_BYTES", start.states * 2)
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("outcome MouseWin\n")
        assert main(["solve", str(path), "--state", "w0,w1,Cat"]) == 2
        assert "the class to solve has" in assert_one_line_error(capsys)

    def test_malformed_state_is_a_usage_error(self, and_file, tmp_path, capsys):
        main(["reduce", and_file, "00"])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", str(graph_file), "--state", "nonsense"]) == 2

    def test_a_state_naming_an_unknown_node_is_an_input_error(self, and_file, tmp_path,
                                                                capsys):
        main(["reduce", and_file, "11"])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", str(graph_file), "--state", "zz,g0.M.1,Cat"]) == 2
        assert assert_one_line_error(capsys) == "error: unknown node 'zz'\n"

    def test_empty_state_is_a_usage_error(self, and_file, tmp_path, capsys):
        main(["reduce", and_file, "00"])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        assert main(["solve", str(graph_file), "--state", ""]) == 2
        assert "--state wants" in assert_one_line_error(capsys)


class TestVerify:
    def test_true_or_circuit_reports_ok(self, or_file, capsys):
        assert main(["verify", or_file, "10"]) == 0
        out = capsys.readouterr().out
        assert "directed MouseWin scripted MouseWin" in out
        assert "undirected MouseWin scripted MouseWin" in out
        assert out.rstrip().endswith("ok")

    def test_false_circuit_reports_ok_too(self, and_file, capsys):
        assert main(["verify", and_file, "01"]) == 0
        out = capsys.readouterr().out
        assert "directed CatWin scripted CatWin" in out

    def test_single_mode(self, and_file, capsys):
        assert main(["verify", and_file, "11", "--mode", "directed"]) == 0
        out = capsys.readouterr().out
        assert "undirected" not in out


class TestGen:
    def test_output_is_a_parseable_circuit(self, capsys):
        assert main(["gen", "--layers", "2", "--width", "2",
                     "--inputs", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("inputs 3\n")
        assert out.endswith("\n")

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["gen", "--layers", "3", "--width", "2", "--inputs", "4",
                "--p-or", "0.3", "--seed", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_infeasible_fanout2_is_an_error(self, capsys):
        assert main(["gen", "--layers", "1", "--width", "1",
                     "--inputs", "5", "--fanout2"]) == 2


class TestFuzz:
    def test_clean_run_summary(self, capsys):
        assert main(["fuzz", "--n", "5", "--seed", "1",
                     "--layers", "2", "--width", "2", "--inputs", "3"]) == 0
        assert capsys.readouterr().out == "5/5 ok\n"

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["fuzz", "--n", "4", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestPlay:
    WINNING_LINE = "g0.M.2\ng0.M.4\ni0.M\nh\n"

    def test_human_mouse_wins_a_true_circuit(self, and_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.WINNING_LINE))
        assert main(["play", and_file, "11", "--as", "mouse"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ply 1 Cat c -> g0.C.1"
        assert out[-1] == "result MouseWin hole"

    def test_illegal_input_reprompts(self, and_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("bogus\n" + self.WINNING_LINE)
        )
        assert main(["play", and_file, "11", "--as", "mouse"]) == 0
        captured = capsys.readouterr()
        assert "not a legal move: bogus" in captured.err
        assert captured.out.splitlines()[-1] == "result MouseWin hole"

    def test_exhausted_input_aborts(self, and_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("g0.M.2\n"))
        assert main(["play", and_file, "11", "--as", "mouse"]) == 2
        assert "input ended" in capsys.readouterr().err


# Run by ``python -c``: cap the address space, then run ``catmouse`` with
# ``reduce`` replaced by a command that fills memory.  Each link of its chain
# is one allocation, (chain,) plus a filler tuple made in advance, so a
# failed link frees nothing, and every size from 1 MiB down is used up.
EXHAUSTING_CHILD = """
import resource, sys
from catmouse import cli

FILLERS = [(None,) * ((1 << k) - 1) for k in range(17, -1, -1)]

def fill(args):
    box = MemoryError()
    box.held = None
    store = box.__dict__
    try:
        raise box
    except MemoryError:
        # Every MemoryError raised here has the handled one, and with it the
        # chain, as its context; no frame refers to that one any more.
        del box
        for filler in FILLERS:
            try:
                while True:
                    store["held"] = (store["held"],) + filler
            except MemoryError:
                pass
        while True:
            store["held"] = (store["held"],) + FILLERS[-2]

cli._cmd_reduce = fill
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status
                if line.startswith("VmSize:"))
limit = (size + (32 << 10)) << 10
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(sys.argv[1:]))
"""


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestFailClean:
    def test_non_ascii_input_count_is_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "sup.circuit"
        path.write_text("inputs ²\ngate g0 AND i0 i1\noutput g0\n")
        assert main(["eval", str(path), "11"]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("flag,value", [
        ("--layers", "0"), ("--width", "0"), ("--inputs", "1"), ("--n", "-1"),
    ])
    def test_fuzz_rejects_out_of_range_sizes(self, flag, value, capsys):
        assert main(["fuzz", "--n", "1", flag, value]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["gen", "--layers", "40", "--width", "100000000", "--inputs", "2"],
        ["gen", "--layers", "1000000000", "--width", "1", "--inputs", "2"],
        ["gen", "--layers", "1", "--width", "1", "--inputs", "1000000000"],
        ["fuzz", "--n", "1", "--layers", "40", "--width", "100000000", "--inputs", "2"],
    ])
    def test_oversized_circuits_are_refused_before_building(self, argv, capsys):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "limit" in assert_one_line_error(capsys)
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("argv", [
        ["reduce", "{path}", "11"],
        ["verify", "{path}", "11"],
        ["play", "{path}", "11", "--as", "mouse"],
        ["fuzz", "--n", "1", "--layers", "1000", "--width", "1", "--inputs", "2"],
    ])
    def test_oversized_boards_are_refused_before_building(self, argv, tmp_path,
                                                          capsys):
        # 1,000 layers pass the circuit size limit, but their board would
        # have 3,009,007 nodes; fuzz's first draw (seed 0) is 865 layers.
        path = tmp_path / "chain.circuit"
        path.write_text(serialize_circuit(generate_random(1000, 1, 2, 0.5, seed=0)))
        tracemalloc.start()
        try:
            code = main([arg.format(path=path) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "limit" in assert_one_line_error(capsys)
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("argv", [
        ["eval"], ["reduce"], ["verify"], ["play", "--as", "mouse"],
    ])
    @pytest.mark.parametrize("bits", ["101", "1x"])
    def test_bad_bits_are_rejected(self, and_file, argv, bits, capsys):
        assert main([argv[0], and_file, bits, *argv[1:]]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["eval", "11"], ["reduce", "11"], ["verify", "11"],
        ["play", "11", "--as", "mouse"], ["solve"],
    ])
    def test_file_that_is_not_utf8_is_rejected(self, tmp_path, argv, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes("inputs 2\n".encode("utf-16"))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert str(path) in assert_one_line_error(capsys)

    def test_board_too_large_to_solve(self, tmp_path, capsys):
        fillers = [f"f{k}" for k in range(50_000 - 4)]
        lines = ["game directed", "node c cat-start", "node h hole",
                 "node d dead-end", "node m dead-end"]
        lines += [f"node {f} dead-end" for f in fillers]
        lines += ["edge c m opening", "special c=c m=m h=h d=d", "layer c 1"]
        lines += [f"layer {v} 0" for v in ["h", "d", "m"] + fillers]
        path = tmp_path / "huge.graph"
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(path)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("repeat", ["layer g0.M.1 7", "special m=g0.M.2"])
    def test_repeated_line_in_a_board_is_rejected(self, and_file, repeat, tmp_path,
                                                   capsys):
        main(["reduce", and_file, "11"])
        lines = capsys.readouterr().out.splitlines()
        at = next(k for k, line in enumerate(lines)
                  if line.startswith(repeat.rsplit(" ", 1)[0]))
        lines.insert(at, repeat)
        path = tmp_path / "repeat.graph"
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(path)]) == 2
        assert "given twice" in assert_one_line_error(capsys)

    def test_out_of_memory_is_a_one_line_error(self, and_file, tmp_path, capsys,
                                               monkeypatch):
        def exhausted(_instance):
            raise MemoryError("Unable to allocate 1.92 GiB for an array")

        main(["reduce", and_file, "11"])
        graph_file = tmp_path / "game.graph"
        graph_file.write_text(capsys.readouterr().out)
        monkeypatch.setattr("catmouse.cli.solve", exhausted)
        assert main(["solve", str(graph_file)]) == 2
        assert "out of memory" in assert_one_line_error(capsys)

    def test_out_of_memory_error_line_waits_for_the_memory_to_be_freed(self):
        # The child caps its address space 32 MiB above what it holds once
        # imported and runs ``reduce`` with a command that takes every byte
        # left, held only by the MemoryError it ends with.  The error line
        # can be printed only once the handler has let go of that error.
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS") or not Path("/proc/self/status").exists():
            pytest.skip("needs RLIMIT_AS and /proc/self/status")
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = (src, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        run = subprocess.run(
            [sys.executable, "-c", EXHAUSTING_CHILD, "reduce", "-", "11"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (
            2, "", "error: out of memory\n")

    def test_deep_chain_evaluates(self, tmp_path, capsys):
        path = tmp_path / "chain.circuit"
        path.write_text(and_chain_text(3000))
        assert main(["eval", str(path), "11"]) == 0
        assert capsys.readouterr().out == "1\n"


SEEDS = st.integers(-2**70, 2**70)
# Small enough to run fast: gen makes up to 2**layers gates, fuzz solves n
# boards per mode.
NUMERIC_OPTIONS = {
    "gen": st.fixed_dictionaries(
        {"--layers": st.integers(-2, 4), "--width": st.integers(-2, 4),
         "--inputs": st.integers(-2, 6)},
        optional={"--p-or": st.floats(), "--seed": SEEDS},
    ),
    "fuzz": st.fixed_dictionaries(
        {"--n": st.integers(-2, 2)},
        optional={"--seed": SEEDS, "--layers": st.integers(-2, 4),
                  "--width": st.integers(-2, 4), "--inputs": st.integers(-2, 6)},
    ),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NUMERIC_OPTIONS)).flatmap(
    lambda command: st.tuples(st.just(command), NUMERIC_OPTIONS[command])))
def test_numeric_option_edges_end_cleanly(case):
    # --flag=value, so negative and non-finite numbers reach the program's
    # own checks rather than argparse's option parser.
    command, options = case
    argv = [command] + [f"{flag}={value!r}" for flag, value in options.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
