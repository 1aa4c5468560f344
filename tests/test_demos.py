"""The demo scripts keep working as the library changes.

Every name a demo imports from ``sgg`` must resolve (checked on the source,
without running it); the demos that finish in about a second also run to
exit 0.  ``train_and_evaluate.py`` trains two models for about 20 s, so it
gets only the import check.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST = ["autodiff_tour.py", "geometry_and_masks.py", "message_contrast.py",
        "relation_filter.py"]


def sgg_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sgg":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_every_sgg_name_a_demo_imports_resolves(demo):
    names = list(sgg_imports(demo))
    assert names, f"{demo.name} imports nothing from sgg"
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{demo.name}: {missing}"


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_exits_0(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
