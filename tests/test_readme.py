"""Every ```python block of README.md runs as written, each in a fresh
interpreter with the package source on its path."""

import os
import re
import subprocess
import sys

import pytest

import miniprob

SRC = os.path.dirname(os.path.dirname(os.path.abspath(miniprob.__file__)))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

with open(README, encoding="utf-8") as f:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", f.read(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
