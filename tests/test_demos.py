import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_demos_reproduce_their_committed_figures(tmp_path):
    # each demo writes its figures next to itself, under output/
    for script in sorted(DEMOS.glob("0*.py")):
        shutil.copy(script, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script in sorted(tmp_path.glob("0*.py")):
        subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                       check=True, capture_output=True)
    committed = sorted(p.name for p in (DEMOS / "output").glob("*.svg"))
    written = sorted(p.name for p in (tmp_path / "output").glob("*.svg"))
    assert written == committed
    for name in committed:
        assert (tmp_path / "output" / name).read_bytes() == \
            (DEMOS / "output" / name).read_bytes(), name
