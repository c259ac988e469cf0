"""The README's library quick start runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_prints_its_expected_comments():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    # every print line ends in a comment giving what it prints
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected == ["[(1, 1), (2, 1)]", "[1, 1]", "[3, 6]"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected
