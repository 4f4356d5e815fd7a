"""Every narrated demo under ``demos/`` runs to completion and prints, and
README's library quickstart gives the results its comments state."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_the_readme_quickstart_gives_its_commented_results():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, results = {}, {}
    for node in ast.parse(block).body:  # each top-level expression's value, by its source
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            results[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    assert results["apply_procedure(2, p)"] == frozenset({"a"})
    assert results['apply_procedure("borda", p)'] == frozenset({"b"})
    assert results["apply_procedure(27, p)"] == frozenset({"a", "b"})
    assert results["classify(rule.two_stage_id).status"] == "regular"
    assert results["res.status, res.examined"][0] == "found"
    assert results['verify_bounded(rule, "MON1", m=3, n=3).status'] == "verified"
