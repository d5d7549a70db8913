"""Every demo script and the README's library quick start run to completion
with warnings raised as errors."""

import pathlib
import re
import runpy
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    # the one python block between "## Library quick start" and the next
    # section, so an export the README imports cannot go unnoticed
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n")[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.DOTALL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
