"""Command-line behavior: outputs, overrides, exit codes."""

import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import causalsim
import causalsim.model_io
from causalsim import cli_main

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample"
MODEL = str(SAMPLE_DIR / "medic_model.json")
EXPERIMENT = str(SAMPLE_DIR / "medic_experiment.json")
CHAIN64 = str(SAMPLE_DIR / "chain64_model.json")


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_prints_the_interventional_probability(capsys):
    code, out, err = run_cli(capsys, "query", "--model", MODEL, "--do", "T=1", "--target", "Y=1")
    assert code == 0
    assert out.strip() == "0.87"
    assert err == ""


def test_query_answers_on_a_2_to_the_64_state_joint(capsys):
    # The shipped 64-variable chain: the cap bounds factors, not joints.
    code, out, err = run_cli(capsys, "query", "--model", CHAIN64, "--do", "X1=1", "--target", "X63=1")
    want = np.linalg.matrix_power(np.array([[0.9, 0.1], [0.2, 0.8]]), 62)[1, 1]
    assert code == 0
    assert out.strip() == f"{want:.10g}"
    assert err == ""


def test_query_supports_joint_interventions(capsys):
    code, out, _ = run_cli(
        capsys, "query", "--model", MODEL, "--do", "T=1", "--do", "D=0", "--target", "Y=1"
    )
    assert code == 0
    assert out.strip() == "0.9"


def test_query_rejects_duplicate_do(capsys):
    code, _, err = run_cli(
        capsys, "query", "--model", MODEL, "--do", "T=1", "--do", "T=0", "--target", "Y=1"
    )
    assert code == 2
    assert "duplicate --do" in err


def test_query_rejects_malformed_pair(capsys):
    code, _, err = run_cli(capsys, "query", "--model", MODEL, "--do", "T1", "--target", "Y=1")
    assert code == 1
    assert "VAR=STATE" in err


def test_query_rejects_unknown_state(capsys):
    code, _, err = run_cli(capsys, "query", "--model", MODEL, "--do", "T=9", "--target", "Y=1")
    assert code == 2
    assert "illegal-state" in err


@pytest.mark.parametrize("command", ["best-action", "simulate"])
def test_each_input_file_is_read_once(capsys, monkeypatch, tmp_path, command):
    read = causalsim.model_io.read_json
    paths = []
    monkeypatch.setattr(causalsim.model_io, "read_json", lambda path: paths.append(path) or read(path))
    argv = [command, "--model", MODEL, "--experiment", EXPERIMENT]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv"), "--rounds", "3", "--reps", "2"]
    assert run_cli(capsys, *argv)[0] == 0
    assert paths == [MODEL, EXPERIMENT]


@pytest.mark.parametrize(
    "content",
    [b'{"target": "\xff"}', b"[" * 100_000, b'{"desired": "1", "desired": "0"}'],
    ids=["not-utf-8", "too-deep", "repeated-key"],
)
@pytest.mark.parametrize("flag", ["--model", "--experiment"])
def test_an_unparseable_file_is_an_input_error(capsys, tmp_path, content, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files = {"--model": MODEL, "--experiment": EXPERIMENT, flag: str(bad)}
    for command in (["best-action"], ["simulate", "--out", str(tmp_path / "x.csv")]):
        code, out, err = run_cli(capsys, *command, *[word for pair in files.items() for word in pair])
        assert code == 2
        assert f"{bad}: parse-error: " in err
        assert "Traceback" not in err
        assert out == ""


def test_best_action_prints_treatment(capsys):
    code, out, _ = run_cli(capsys, "best-action", "--model", MODEL, "--experiment", EXPERIMENT)
    assert code == 0
    assert out.strip() == "treatment"


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"rounds": "many", "bogus": 1}, ": unknown keys: bogus"),
        ({"rounds": "many"}, ".rounds: rounds must be a positive integer, got 'many'"),
        (
            {"agents": {"causal": {"prior_alpha": 1e308}}},
            ".agents.causal.prior_alpha: infinite-row-sum: 2 pseudo-counts of 1e+308 sum beyond float range",
        ),
    ],
)
def test_best_action_rejects_the_experiment_files_simulate_rejects(capsys, tmp_path, extra, message):
    doc = {**json.loads(Path(EXPERIMENT).read_text(encoding="utf-8")), **extra}
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["best-action"], ["simulate", "--out", str(tmp_path / "x.csv")]):
        code, out, err = run_cli(capsys, *command, "--model", MODEL, "--experiment", str(exp))
        assert code == 2
        assert f"{exp}{message}" in err
        assert out == ""


UTILITY_KEY = "illegal-state: utility key '2' is not a state of Y"


@pytest.mark.parametrize(
    "command, edit, message, entry",
    [
        ("best-action", {"utility": {"0": 0, "1": 1, "2": 7}}, UTILITY_KEY, "utility.2"),
        ("simulate", {"utility": {"0": 0, "1": 1, "2": 7}}, UTILITY_KEY, "utility.2"),
        (
            "simulate",
            {"agents": {"causal": {"prior_alpha": 1e308}}},
            "infinite-row-sum: 2 pseudo-counts of 1e+308 sum beyond float range",
            "agents.causal.prior_alpha",
        ),
        # Python's json reads and writes the literal Infinity.
        ("best-action", {"utility": {"0": 0, "1": math.inf}}, "utility of Y='1' must be finite", "utility.1"),
        ("simulate", {"target": "Z"}, "unknown-target: 'Z' is not in the model", "target"),
        ("best-action", {"desired": "2"}, "illegal-state: desired state '2' is not a state of Y", "desired"),
        (
            "simulate",
            {"actions": [{"label": "a", "do": {"T": "0"}}, {"label": "a", "do": {"T": "1"}}]},
            "duplicate action labels in the action set",
            "actions[1].label",
        ),
        (
            "best-action",
            {"actions": [{"label": "a", "do": {"Q": "0"}}]},
            "unknown-variable: intervention names 'Q', which is not in the model",
            "actions[0].do",
        ),
    ],
)
def test_an_input_that_scores_nonsense_is_refused_without_a_traceback(tmp_path, command, edit, message, entry):
    doc = {**json.loads(Path(EXPERIMENT).read_text(encoding="utf-8")), **edit}
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc), encoding="utf-8")
    run = ["--out", str(tmp_path / "x.csv"), "--reps", "4", "--rounds", "3"] if command == "simulate" else []
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "causalsim", command, "--model", MODEL, "--experiment", str(exp), *run],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    # The whole of stderr: no traceback and no numpy overflow warnings. Each
    # fault is refused at load, under the experiment file and the entry.
    assert done.stderr == f"causalsim: invalid input: {exp}.{entry}: {message}\n"
    assert done.stdout == ""


@pytest.mark.parametrize(
    "edit, entry",
    [
        ({"target": "Z"}, "target"),
        ({"actions": [{"label": "a", "do": {"T": "0"}}, {"label": "a", "do": {"T": "1"}}]}, "actions[1].label"),
        ({"actions": [{"label": "a", "do": {"Q": "0"}}]}, "actions[0].do"),
        ({"actions": [{"label": "a", "do": {"Y": "0"}}]}, "actions[0].do"),
        ({"actions": [{"label": "", "do": {"T": "0"}}]}, "actions[0].label"),
        ({"actions": [{"label": "a", "do": {}}]}, "actions[0].do"),
        ({"actions": []}, "actions"),
        ({"utility": {"0": 0, "1": 1, "2": 7}}, "utility.2"),
        ({"utility": {"0": 0, "1": math.inf}}, "utility.1"),
        ({"utility": {"0": 0}}, "utility"),
        ({"desired": "2"}, "desired"),
        ({"agents": {"causal": {"prior_alpha": 1e308}}}, "agents.causal.prior_alpha"),
    ],
)
def test_a_fault_the_constructors_find_is_refused_at_its_entry(tmp_path, edit, entry):
    # Loaded from a file: the path is the file, then the entry at fault.
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({**json.loads(Path(EXPERIMENT).read_text(encoding="utf-8")), **edit}), encoding="utf-8")
    with pytest.raises(causalsim.FormatError) as caught:
        causalsim.cli._load_experiment(argparse.Namespace(model=MODEL, experiment=str(exp)))
    assert caught.value.path == f"{exp}.{entry}"


def test_a_fault_of_the_model_file_names_that_file(capsys, tmp_path):
    # The experiment file given as the model, then a row summing to 1.1.
    code, out, err = run_cli(capsys, "best-action", "--model", EXPERIMENT, "--experiment", EXPERIMENT)
    assert (code, out, err) == (2, "", f"causalsim: invalid input: {EXPERIMENT}: missing key 'variables'\n")
    doc = json.loads(Path(MODEL).read_text(encoding="utf-8"))
    doc["cpts"]["D"][0]["p"] = [0.5, 0.6]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--model", str(bad), "--experiment", EXPERIMENT, "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == f"causalsim: invalid input: {bad}.cpts.D[0].p: row sums to 1.1, beyond tolerance 1e-09\n"


CYCLE = {
    "variables": [{"name": "A", "states": ["0", "1"]}, {"name": "B", "states": ["0", "1"]}],
    "parents": {"A": ["B"], "B": ["A"]},
    "cpts": {
        "A": [{"given": {"B": "0"}, "p": [0.5, 0.5]}, {"given": {"B": "1"}, "p": [0.5, 0.5]}],
        "B": [{"given": {"A": "0"}, "p": [0.5, 0.5]}, {"given": {"A": "1"}, "p": [0.5, 0.5]}],
    },
}


@pytest.mark.parametrize(
    "command",
    [["simulate", "--experiment", EXPERIMENT, "--out", "x.csv"], ["best-action", "--experiment", EXPERIMENT], ["query", "--do", "A=1", "--target", "B=1"]],
    ids=["simulate", "best-action", "query"],
)
def test_a_semantic_fault_of_the_model_file_names_that_file(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "cycle.json"
    model.write_text(json.dumps(CYCLE), encoding="utf-8")
    code, out, err = run_cli(capsys, command[0], "--model", str(model), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"causalsim: invalid input: {model}: cycle-detected at A, B: these variables lie on or depend on a directed cycle\n"
    assert not Path("x.csv").exists()


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_a_seed_outside_64_bits_is_a_usage_error(capsys, tmp_path, seed):
    argv = ["simulate", "--model", MODEL, "--experiment", EXPERIMENT, "--out", str(tmp_path / "x.csv"), "--seed", seed]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument --seed: expected a 64-bit unsigned integer, got '{seed}'" in err
    assert not (tmp_path / "x.csv").exists()


def _simulate_with_utility(tmp_path, utility, *run):
    """``simulate --svg`` in a fresh interpreter on the medic files, every
    target state paying ``utility``: the finished process and the CSV and
    SVG paths."""
    doc = {**json.loads(Path(EXPERIMENT).read_text(encoding="utf-8")), "utility": {"0": utility, "1": utility}}
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc), encoding="utf-8")
    csv, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = ["--model", MODEL, "--experiment", str(exp), "--out", str(csv), "--svg", str(svg), *run]
    done = subprocess.run(
        [sys.executable, "-m", "causalsim", "simulate", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    return done, csv, svg


def _svg_coordinates(svg):
    """Every number in the SVG's coordinate attributes and polyline points."""
    attributes = re.findall(r' (?:x|y|x1|y1|x2|y2|points)="([^"]*)"', svg.read_text(encoding="utf-8"))
    return [float(v) for a in attributes for v in re.split("[ ,]", a)]


def test_a_flat_chart_of_a_huge_utility_is_drawn(tmp_path):
    # At 2**52 and beyond, a fixed margin of 0.5 rounds away.
    done, csv, svg = _simulate_with_utility(tmp_path, 1e16, "--reps", "2", "--rounds", "3")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    coordinates = _svg_coordinates(svg)
    assert len(coordinates) > 3 * 3 * 2 and all(map(math.isfinite, coordinates))


def test_a_utility_whose_means_overflow_is_refused_before_the_run(tmp_path):
    done, csv, svg = _simulate_with_utility(tmp_path, 1e308, "--reps", "4", "--rounds", "3")
    assert done.returncode == 2
    # The whole of stderr: no traceback and no numpy overflow warning.
    message = "utility-overflow: 4 rounds or replications of utility 1e+308 overflow a float"
    assert done.stderr == f"causalsim: error: {message}\n"
    assert done.stdout == ""
    assert not csv.exists() and not svg.exists()

    done, csv, svg = _simulate_with_utility(tmp_path, 1e305, "--reps", "4", "--rounds", "3")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # Every line but the last, which echoes the paths given, is short.
    *summary, wrote = done.stdout.splitlines()
    assert wrote == f"wrote {csv}, {svg}" and all(len(line) <= 100 for line in summary), done.stdout
    rows = [line.split(",") for line in csv.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 3 * 3 and all(math.isfinite(float(v)) for row in rows for v in row[2:])
    assert all(map(math.isfinite, _svg_coordinates(svg)))


# Flag values that are not what a flag asks for: empty, negative, zero,
# non-integer, huge, non-ASCII and VAR=STATE edge strings. "9" * 5000 has
# more digits than int() parses; the other huge values parse but fail
# validation wherever the test lets them through.
EDGES = st.one_of(
    st.just(""),
    st.integers(max_value=-1).map(str),
    st.sampled_from(["0", "-0", "00", "+0"]),
    st.floats().map(repr) | st.sampled_from(["x", "3x", "0x10", "1_0_"]),
    st.sampled_from(["9" * 5000, str(2**64), "1" + "0" * 400, "Y" * 300 + "=1"]),
    st.text(st.characters(min_codepoint=128), min_size=1, max_size=6),
    st.sampled_from(["=", "==", "=1", "T=", "T==1", "Y=1=", "=T=1", "T=ü", "ü=1"]),
)

# Each subcommand's flags with their valid values. Output paths are
# relative, so each example writes into its own temporary directory.
FLAGS = {
    "simulate": {
        "--model": st.just(MODEL),
        "--experiment": st.just(EXPERIMENT),
        "--out": st.just("out.csv"),
        "--svg": st.just("out.svg"),
        "--seed": st.integers(0, 2**64 - 1).map(str),
        "--rounds": st.integers(1, 2).map(str),
        "--reps": st.integers(1, 4).map(str),
        "--workers": st.integers(1, 2).map(str),
    },
    "query": {
        "--model": st.sampled_from([MODEL, CHAIN64]),
        "--do": st.sampled_from(["T=1", "T=0", "D=1", "X62=1"]),
        "--target": st.sampled_from(["Y=1", "X63=1"]),
    },
    "best-action": {"--model": st.just(MODEL), "--experiment": st.just(EXPERIMENT)},
}


def _integer(text):
    """What an integer flag parses ``text`` to, or None."""
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_no_flag_value_ends_in_a_traceback(data):
    # A valid command line with up to two of its flags broken: left out,
    # or given edge values. Each flag is written as "--flag value" or
    # "--flag=value", --do may repeat, and the flags come in any order.
    # Simulate always gets --rounds and --reps, so a run never takes the
    # experiment file's 200 x 1000.
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    broken = data.draw(st.sets(st.sampled_from(sorted(FLAGS[command])), max_size=2))
    words, values = [], {}
    for flag, valid in FLAGS[command].items():
        if flag in broken and flag not in ("--rounds", "--reps") and data.draw(st.booleans()):
            continue
        for value in data.draw(st.lists(EDGES if flag in broken else valid, min_size=1, max_size=2 if flag == "--do" else 1)):
            values[flag] = value
            words.append([f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value])
    argv = [command, *(word for pair in data.draw(st.permutations(words)) for word in pair)]
    # At most 8 agent-rounds per agent and two worker processes.
    reps, rounds, workers = (_integer(values.get(flag)) for flag in ("--reps", "--rounds", "--workers"))
    assume(not (reps and rounds and reps > 0 and rounds > 0 and reps * rounds > 8))
    assume(not (workers and workers > 2))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)
        try:
            code = cli_main(argv)
        finally:
            os.chdir(cwd)
    event(f"{command} exits {code}")
    assert code in (0, 1, 2), argv


def test_missing_required_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "query", "--do", "T=1", "--target", "Y=1")
    assert code == 1
    assert "--model" in err


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "probe")
    assert code == 1
    assert "usage" in err


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "simulate" in out and "query" in out and "best-action" in out


def test_unreadable_model_is_a_validation_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "query", "--model", str(tmp_path / "gone.json"), "--do", "T=1", "--target", "Y=1"
    )
    assert code == 2
    assert "invalid input" in err


def test_contract_violating_model_is_a_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "variables": [{"name": "A", "states": ["0", "1"]}],
                "parents": {"A": []},
                "cpts": {"A": [{"p": [0.9, 0.2]}]},
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "query", "--model", str(bad), "--do", "A=1", "--target", "A=1")
    assert code == 2
    assert "invalid input" in err


def test_simulate_writes_csv_and_prints_a_summary(capsys, tmp_path):
    out_csv = tmp_path / "curves.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", MODEL,
        "--experiment", EXPERIMENT,
        "--out", str(out_csv),
        "--rounds", "8",
        "--reps", "5",
        "--seed", "3",
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "round,agent,mean_reward,cum_mean_reward"
    assert len(lines) == 1 + 8 * 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "causal"
    assert "causal: overall mean reward" in out
    assert "convergence index (causal vs qlearning" in out
    assert f"wrote {out_csv}" in out


def test_simulate_writes_the_optional_svg(capsys, tmp_path):
    out_csv = tmp_path / "c.csv"
    out_svg = tmp_path / "c.svg"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--model", MODEL,
        "--experiment", EXPERIMENT,
        "--out", str(out_csv),
        "--svg", str(out_svg),
        "--rounds", "5",
        "--reps", "3",
    )
    assert code == 0
    assert out_svg.read_bytes().startswith(b"<?xml")
    assert f"wrote {out_csv}, {out_svg}" in out


def test_simulate_is_deterministic_across_invocations(capsys, tmp_path):
    args = [
        "simulate",
        "--model", MODEL,
        "--experiment", EXPERIMENT,
        "--rounds", "10",
        "--reps", "6",
        "--seed", "21",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_override_changes_the_output(capsys, tmp_path):
    base = [
        "simulate",
        "--model", MODEL,
        "--experiment", EXPERIMENT,
        "--rounds", "10",
        "--reps", "6",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, *base, "--seed", "1", "--out", str(a))
    run_cli(capsys, *base, "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_query_reports_the_path_of_a_number_beyond_float_range(tmp_path):
    doc = json.loads(Path(MODEL).read_text(encoding="utf-8"))
    doc["cpts"]["D"][0]["p"][0] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = ["query", "--model", str(bad), "--do", "T=1", "--target", "Y=1"]
    done = subprocess.run(
        [sys.executable, "-m", "causalsim", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2
    assert "cpts.D[0].p[0]" in done.stderr
    assert "Traceback" not in done.stderr


def test_simulate_rejects_zero_rounds(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--model", MODEL,
        "--experiment", EXPERIMENT,
        "--out", str(tmp_path / "x.csv"),
        "--rounds", "0",
    )
    assert code == 1
    assert "positive integer" in err


def test_a_run_too_large_to_allocate_is_an_input_error(capsys, monkeypatch, tmp_path):
    # At --reps 10**12 the trial log alone would take 546 TiB; the
    # refusal is simulated, never allocated.
    message = "Unable to allocate 546. TiB for an array with shape (3, 1000000000000, 200) and data type int8"
    argv = ["simulate", "--model", MODEL, "--experiment", EXPERIMENT, "--reps", "1000000000000", "--out", str(tmp_path / "x.csv")]
    for error, shown in ((MemoryError(message), message), (MemoryError(), "MemoryError")):

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(causalsim.experiment, "run_experiment", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"causalsim: error: {shown}\n"
        assert out == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("via", ["--svg", "out_svg"])
def test_simulate_refuses_an_svg_path_that_is_the_csv_path(capsys, tmp_path, via):
    # Written in turn, the SVG would replace the CSV; the same file spelled
    # another way is refused too, and nothing runs or is written.
    out = tmp_path / "x.csv"
    out.write_bytes(b"kept")
    doc = json.loads(Path(EXPERIMENT).read_text(encoding="utf-8"))
    svg = str(tmp_path / "sub" / ".." / "x.csv")
    if via == "out_svg":
        doc["out_svg"] = svg
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["simulate", "--model", MODEL, "--experiment", str(exp), "--out", str(out), "--reps", "4", "--rounds", "5"]
    (tmp_path / "sub").mkdir()
    code, stdout, err = run_cli(capsys, *argv, *(["--svg", svg] if via == "--svg" else []))
    assert code == 2
    assert err == f"causalsim: error: same-output: the CSV and the SVG would both be written to {out}\n"
    assert stdout == ""
    assert out.read_bytes() == b"kept"


@pytest.mark.parametrize("flag, clobbered", [("--out", "model"), ("--svg", "experiment")])
def test_simulate_refuses_an_output_path_that_is_one_of_its_inputs(capsys, tmp_path, flag, clobbered):
    # Written, the output would replace a file the run has just read, and
    # every later run would fail to parse it. The same file spelled another
    # way is refused too, before the run, and the input keeps its bytes.
    inputs = {"model": tmp_path / "model.json", "experiment": tmp_path / "exp.json"}
    shutil.copy(MODEL, inputs["model"])
    shutil.copy(EXPERIMENT, inputs["experiment"])
    (tmp_path / "sub").mkdir()
    spelled = str(tmp_path / "sub" / ".." / inputs[clobbered].name)
    outputs = {"--out": str(tmp_path / "x.csv"), "--svg": str(tmp_path / "x.svg"), flag: spelled}
    argv = ["simulate", "--model", str(inputs["model"]), "--experiment", str(inputs["experiment"]), "--reps", "4", "--rounds", "3"]
    code, stdout, err = run_cli(capsys, *argv, *(arg for pair in outputs.items() for arg in pair))
    assert code == 2
    assert err == f"causalsim: error: same-output: {spelled} would overwrite the input file {inputs[clobbered]}\n"
    assert stdout == ""
    assert inputs[clobbered].read_bytes() == Path(MODEL if clobbered == "model" else EXPERIMENT).read_bytes()
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.svg").exists()


def test_simulate_in_worker_processes_writes_the_serial_bytes(capsys, tmp_path):
    # 300 replications span two blocks, so --workers 2 starts two processes.
    args = ["simulate", "--model", MODEL, "--experiment", EXPERIMENT, "--rounds", "5", "--reps", "300"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(capsys, *args, "--out", str(serial))[0] == 0
    assert run_cli(capsys, *args, "--out", str(parallel), "--workers", "2")[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_simulate_reports_the_path_of_an_out_of_range_value(capsys, tmp_path):
    doc = json.loads(Path(EXPERIMENT).read_text(encoding="utf-8"))
    doc["agents"]["qlearning"]["alpha"] = 5
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "simulate", "--model", MODEL, "--experiment", str(exp), "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert f"{exp}.agents.qlearning.alpha: learning rate must lie in (0, 1], got 5.0" in err


def _modules_after(statement):
    """Run ``statement`` in a fresh interpreter. Returns each registered
    causalsim module with whether its body ran (one registered but not
    yet run is still a lazy module, not a plain ``types.ModuleType``),
    and the names of every module loaded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        "import contextlib, io, sys, types",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    {statement}",
        "print({n: type(m) is types.ModuleType for n, m in sys.modules.items() if n.split('.')[0] == 'causalsim'})",
        "print(sorted(sys.modules))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    modules, loaded = out.stdout.splitlines()
    return ast.literal_eval(modules), set(ast.literal_eval(loaded))


def _pool_modules(loaded):
    return {m for m in loaded if m.startswith(("concurrent", "multiprocessing"))}


def test_importing_the_cli_loads_no_process_pool():
    # The pool is imported only by a run that spreads blocks over workers.
    assert not _pool_modules(_modules_after("import causalsim.cli")[1])


@pytest.mark.parametrize("command", ["simulate", "best-action"])
def test_a_serial_run_loads_no_process_pool(tmp_path, command):
    # 300 replications span two blocks; without --workers they run here,
    # through the same block loop a pooled run uses.
    argv = [command, "--model", MODEL, "--experiment", EXPERIMENT]
    if command == "simulate":
        argv += ["--reps", "300", "--rounds", "3", "--out", str(tmp_path / "x.csv")]
    _, loaded = _modules_after(f"import causalsim; assert causalsim.cli_main({argv!r}) == 0")
    assert not _pool_modules(loaded)
    assert (tmp_path / "x.csv").exists() == (command == "simulate")


def test_simulate_writes_its_svg_without_loading_xml(tmp_path):
    # The SVG is written as text; no XML library is loaded to write it.
    out, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    argv = ["simulate", "--model", MODEL, "--experiment", EXPERIMENT, "--reps", "2", "--rounds", "3", "--out", str(out), "--svg", str(svg)]
    _, loaded = _modules_after(f"import causalsim; assert causalsim.cli_main({argv!r}) == 0")
    assert not {m for m in loaded if m.startswith(("xml", "pyexpat"))}
    assert svg.read_bytes().startswith(b"<?xml")


def test_query_runs_only_cgm_model_io_and_cli():
    argv = ["query", "--model", MODEL, "--do", "T=1", "--target", "Y=1"]
    modules, loaded = _modules_after(f"import causalsim; causalsim.cli_main({argv!r})")
    assert {n for n, ran in modules.items() if ran} == {"causalsim", "causalsim.cgm", "causalsim.cli", "causalsim.model_io"}
    assert "xml.etree" not in loaded


def test_best_action_runs_only_the_decision_problem():
    # The learners (agents, beliefs) and the writers (reporting) stay lazy.
    argv = ["best-action", "--model", MODEL, "--experiment", EXPERIMENT]
    modules, loaded = _modules_after(f"import causalsim; causalsim.cli_main({argv!r})")
    assert {n for n, ran in modules.items() if ran} == {
        "causalsim", "causalsim.cgm", "causalsim.cli", "causalsim.environment", "causalsim.experiment", "causalsim.model_io",
    }  # fmt: skip
    assert "xml.etree" not in loaded


def test_reading_a_run_shape_leaves_the_environment_lazy():
    # experiment names the Environment only in annotations, so reading the
    # run half of an experiment file never runs the environment module.
    modules, _ = _modules_after(f"import causalsim; causalsim.load_experiment_config({EXPERIMENT!r})")
    assert {n for n, ran in modules.items() if ran} == {"causalsim", "causalsim.cgm", "causalsim.experiment", "causalsim.model_io"}


def test_loading_an_experiment_validates_the_model_once(monkeypatch):
    # model_io checks the graph once and each row as it parses it, so the
    # truth is valid as built: the Environment on it checks no row again.
    from causalsim import cgm, cli

    calls, graphs = [], []
    monkeypatch.setattr(cgm, "_placed", lambda graph, cpts, check=cgm._placed: calls.append(graph) or check(graph, cpts))
    monkeypatch.setattr(cgm, "_checked_order", lambda graph, check=cgm._checked_order: graphs.append(graph) or check(graph))
    env, _ = cli._load_experiment(argparse.Namespace(model=MODEL, experiment=EXPERIMENT))
    assert calls == []
    assert [graph is env.truth.graph for graph in graphs] == [True]


def test_an_environment_shipped_to_a_worker_checks_no_graph_again(monkeypatch):
    # --workers pickles the environment into each worker process; the
    # graphs it carries come back as they were, without a second check.
    from causalsim import cgm, cli

    env, _ = cli._load_experiment(argparse.Namespace(model=MODEL, experiment=EXPERIMENT))
    graphs = []
    monkeypatch.setattr(cgm, "_checked_order", lambda graph, check=cgm._checked_order: graphs.append(graph) or check(graph))
    graph = cgm.CausalGraph(env.truth.graph.variables, env.truth.graph.parents)
    assert graphs == [graph]
    shipped = pickle.loads(pickle.dumps(env))
    assert graphs == [graph]
    assert shipped.truth == env.truth and shipped.truth.graph.topological_order == env.truth.graph.topological_order


def test_the_decision_problem_is_one_object_under_both_modules():
    from causalsim import agents, environment

    for name in ("Action", "UtilityFunction", "best_action", "expected_utility"):
        assert getattr(agents, name) is getattr(environment, name)
        assert getattr(causalsim, name) is getattr(environment, name)


def test_a_module_whose_body_raises_raises_its_own_error_on_every_access(tmp_path):
    # A copy of the package whose reporting defines its functions, then
    # raises: no access may find a half-built module, not even through
    # the reference cli took before the body ran.
    package = tmp_path / "causalsim"
    shutil.copytree(Path(causalsim.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "reporting.py", "a") as f:
        f.write('\nraise RuntimeError("reporting is broken")\n')
    simulate = ["simulate", "--model", MODEL, "--experiment", EXPERIMENT, "--out", str(tmp_path / "out.csv"), "--reps", "1", "--rounds", "1"]
    accesses = [
        "causalsim.reporting.write_csv",
        "causalsim.reporting.write_csv",
        "causalsim.write_svg",
        "exec('from causalsim.reporting import write_csv')",
        f"causalsim.cli_main({simulate!r})",
        "causalsim.reporting.write_csv",
    ]
    code = "\n".join([
        "import contextlib, io, sys, types",
        "import causalsim",
        f"for access in {accesses!r}:",
        "    try:",
        "        with contextlib.redirect_stdout(io.StringIO()):",
        "            eval(access)",
        "    except Exception as e:",
        "        print(f'{type(e).__name__}: {e}')",
        "    else:",
        "        print('no error')",
        "print(type(sys.modules['causalsim.reporting']) is types.ModuleType)",
    ])
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    *errors, plain = out.stdout.splitlines()
    assert errors == ["RuntimeError: reporting is broken"] * len(accesses)
    assert plain == "False"  # still lazy: the next access runs the body again


def test_importing_the_package_registers_every_submodule_and_runs_none():
    # A tool that reads sys.modules["causalsim.<module>"] after
    # ``import causalsim`` finds every module of the package there.
    modules, loaded = _modules_after("import causalsim")
    assert modules == {"causalsim": True, **{f"causalsim.{m}": False for m in causalsim._EXPORTS}}
    assert "xml.etree" not in loaded


def test_every_public_name_resolves_to_its_home_module():
    assert sorted(causalsim.__all__) == sorted(n for names in causalsim._EXPORTS.values() for n in names)
    star: dict = {}
    exec("from causalsim import *", star)
    for module, names in causalsim._EXPORTS.items():
        home = sys.modules[f"causalsim.{module}"]
        for name in names:
            assert getattr(causalsim, name) is getattr(home, name)
            assert star[name] is getattr(home, name)
    assert set(causalsim.__all__) <= set(dir(causalsim))
    with pytest.raises(AttributeError, match="no_such_name"):
        causalsim.no_such_name
    with pytest.raises(ImportError):
        from causalsim import no_such_name  # noqa: F401


def test_every_name_in_a_submodules_all_exists():
    # The package's names are checked above; a stale entry in a
    # submodule's own __all__ would break only its star import.
    for module in causalsim._EXPORTS:
        home = importlib.import_module(f"causalsim.{module}")
        assert [name for name in home.__all__ if not hasattr(home, name)] == [], module
        exec(f"from causalsim.{module} import *", {})


def test_module_entry_point_matches_cli(capsys):
    import causalsim.__main__  # noqa: F401  (import must not run anything)

    code, out, _ = run_cli(capsys, "query", "--model", MODEL, "--do", "T=0", "--target", "Y=1")
    assert code == 0
    assert out.strip() == "0.52"


@pytest.mark.parametrize("workers", [(), ("--workers", "2")])
def test_the_shipped_experiment_writes_its_pinned_csv_and_svg(capsys, tmp_path, workers):
    # 200 rounds x 1000 replications over four blocks of every agent.
    # Any change to the streams, exploration, the draw, the beliefs, the
    # scoring or the reports changes these digests.
    csv, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    code, _, _ = run_cli(capsys, "simulate", "--model", MODEL, "--experiment", EXPERIMENT, "--out", str(csv), "--svg", str(svg), *workers)
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == "e97ee21eb3ba805d83957d8acc4ef2e3b6a6457da8154918f0ca4071b2f98579"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == "36670322218ba2de021ed2ef2e2dfb101ed4c8f95c2c7d1db1e3199b74f3b16b"


@pytest.mark.parametrize("workers", [(), ("--workers", "2")])
def test_the_wide_model_run_writes_its_pinned_csv_and_svg(capsys, tmp_path, workers):
    # 50 rounds x 512 replications on the 64-variable chain: two blocks,
    # each of several chunks of uniforms, so the bound draw and the
    # scoring cross chunk and block boundaries.
    csv, svg = tmp_path / "run.csv", tmp_path / "run.svg"
    argv = ["--model", CHAIN64, "--experiment", str(SAMPLE_DIR / "chain64_experiment.json"), "--reps", "512", "--rounds", "50"]
    code, _, _ = run_cli(capsys, "simulate", *argv, "--out", str(csv), "--svg", str(svg), *workers)
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == "ea629dd8955c5a5c06a5c3c5ae5c1bc3cf65b076ee8fb0bc2f4af0155bd60aec"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == "f4807b2d66949649644db8cbfbfaa94ab4cdb6f3c06399877678c3c58f315d7a"
