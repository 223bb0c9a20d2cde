"""The README's Python examples run as written and print the values their comments state."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _printed(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_readme_has_two_python_examples():
    assert len(BLOCKS) == 2


def test_quick_start(capsys):
    (s, sigma), (s_oracle,) = _printed(BLOCKS[0], capsys)
    s, sigma, s_oracle = complex(s), float(sigma), complex(s_oracle)
    assert f"{sigma:.4f}" == "0.9190"
    assert abs(abs(s) - math.exp(-0.4 * math.pi)) < 1e-12  # |S| = e^{-pi mu}, mu = 0.4
    assert abs(s_oracle - s) < 1e-5


def test_quartic_capture(capsys):
    ((capture,),) = _printed(BLOCKS[1], capsys)
    assert round(float(capture), 2) == 0.99
