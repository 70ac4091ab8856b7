import os
import re
import subprocess
import sys
from pathlib import Path

from kinterp import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path):
    # each block runs on its own in a fresh interpreter, as a reader would
    # paste it, with the package importable from src/
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README.md has no python code block"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for i, code in enumerate(blocks, 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, \
            f"README python block {i} exited {proc.returncode}:\n{proc.stderr}"


def test_readme_config_format_names_every_field():
    # the "Config format" block shows each field as `key = ...` under its
    # [section] header
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^### Config format\n.*?^```\n(.*?)^```", text, re.M | re.S).group(1)
    shown, section = set(), None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        field = re.match(r"(\w+) =", line)
        if header:
            section = header.group(1)
        elif field:
            shown.add(f"{section}.{field.group(1)}")
    assert shown == set(cli._FIELDS) | cli._TARGET_FIELDS
