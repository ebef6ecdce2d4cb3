"""The README's code runs as printed."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_use_block() -> str:
    """The first Python block of the README's "Library use" section."""
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs_on_a_copy_of_the_samples(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "sample", tmp_path / "sample")
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_use_block(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.87"
    assert [line.split()[0] for line in lines[1:]] == ["causal", "qlearning", "random"]
    assert (tmp_path / "curves.csv").read_text().startswith("round,agent,mean_reward,cum_mean_reward\n")
