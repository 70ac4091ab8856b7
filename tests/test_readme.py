import os
import re
import subprocess
import sys
from pathlib import Path

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
