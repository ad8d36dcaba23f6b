"""README.md's CLI block and Library example do what their comments say.

Each `gptw ...` command of the bash block under "## CLI" (with `\\`
continuations joined) runs through `gptw.cli.main` from the repository root,
and its exit code and report are checked against the comment above it.  The
Library example runs as written and its four printed values are checked.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from gptw import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
COS2_PI_8 = math.cos(math.pi / 8) ** 2


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line `heading`."""
    section = README[README.index(f"\n{heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def readme_commands() -> list[str]:
    """The `gptw` command lines of the CLI block, continuations joined, comments dropped."""
    joined = re.sub(r"\\\n\s*", "", fenced_block("## CLI", "bash"))
    return [line.split("  #")[0].strip() for line in joined.splitlines() if line.startswith("gptw ")]


# command -> (exit code, checks on the report), as the README's comments state them
EXPECTED = {
    "gptw chsh --box samples/pr_box.json": (0, {"value": 4.0, "bound": 2.0, "margin": 4.0 - 2 - 1e-9}),
    "gptw nosignal --box samples/pr_box.json": (0, {"value": 0.0}),
    "gptw monogamy strong --box samples/shared_bit_box.json": (0, {"value": 8.0, "bound": 8.0}),
    "gptw monogamy ns --box samples/shared_bit_box.json": (0, {"value": 4.0, "bound": 4.0}),
    "gptw local-model --box samples/singlet_opt_box.json": (1, {"method": "chsh", "certificate": None}),
    "gptw local-model --box samples/isotropic_half_box.json": (0, {"method": "lp"}),
    "gptw verify-cj --state samples/random_two_qubit.json --povm samples/z_basis.json "
    "--povm samples/x_basis.json": (0, {}),
    "gptw broadcast --state samples/state_zero.json --state samples/state_diag.json": (0, {"commuting": True}),
    "gptw broadcast --state samples/state_zero.json --state samples/state_plus.json": (
        1, {"commuting": False, "interference": True}),
    "gptw theorem1 --box samples/singlet_opt_box.json": (1, {"value": 16.0, "bound": 8.0}),
    "gptw game --state samples/singlet.json --povm samples/z_basis.json --povm samples/x_basis.json "
    "--povm samples/b0.json --povm samples/b1.json --seed 7 --rounds 20000": (0, {"value": COS2_PI_8}),
    "gptw game --box samples/pr_box.json --seed 7 --rounds 1000": (1, {"value": 1.0}),
    "gptw uncertainty --theory samples/qubit_theory.json --m1 X --m2 Z": (
        0, {"value": 1 + 1 / math.sqrt(2), "saturated": True}),
    "gptw validate-model --model samples/classical_bit_model.json": (0, {"value": 0}),
    "gptw dim --theory samples/qubit_theory.json": (0, {}),
}


def test_the_cli_block_lists_the_checked_commands():
    assert readme_commands() == list(EXPECTED)


@pytest.mark.parametrize("command", list(EXPECTED))
def test_readme_command(command, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, checks = EXPECTED[command]
    assert cli.main(shlex.split(command)[1:]) == code
    report = json.loads(capsys.readouterr().out)
    for key, want in checks.items():
        assert report[key] == (pytest.approx(want, abs=1e-6) if isinstance(want, float) else want), key


def test_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Library example", "python"), {})
    value, nonlocal_, margin, model = out.getvalue().splitlines()
    assert float(value) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert nonlocal_ == "True"
    assert float(margin) == pytest.approx(2 * math.sqrt(2) - 2 - 1e-9, abs=1e-12)
    assert model == "None"
