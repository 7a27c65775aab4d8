"""Documentation checks: doctests, README/examples code blocks, doc cross-links.

Documentation that claims to be runnable is held to it here: every module that
carries doctests is exercised, every ```python block in the markdown docs is
executed, and the examples index must point at files that exist.
"""

import doctest
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Modules that carry doctests; pytest --doctest-modules on these must stay green,
#: and each must actually contain at least one example (an empty entry here means
#: someone deleted the doctests without updating the docs job).
DOCTEST_MODULES = [
    "repro.core.results",
    "repro.primitives.batching",
]

MARKDOWN_WITH_CODE = ["README.md", "docs/ARCHITECTURE.md", "docs/BENCHMARKS.md",
                      "docs/DURABILITY.md", "docs/OBSERVABILITY.md",
                      "docs/STATIC_ANALYSIS.md", "examples/README.md"]


@pytest.mark.parametrize("name", DOCTEST_MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{name} is listed as carrying doctests but has none"
    assert result.failed == 0


def _python_blocks(path: pathlib.Path):
    return re.findall(r"```python\n(.*?)```", path.read_text(encoding="utf-8"), flags=re.S)


def test_readme_python_blocks_execute(tmp_path, monkeypatch):
    blocks = _python_blocks(REPO / "README.md")
    assert blocks, "README.md should carry runnable python examples"
    monkeypatch.chdir(tmp_path)  # anything a block writes lands in the temp dir
    for index, block in enumerate(blocks):
        code = compile(block, f"README.md[python block {index}]", "exec")
        exec(code, {"__name__": f"__readme_block_{index}__"})


def test_markdown_docs_exist_and_crosslink():
    for name in MARKDOWN_WITH_CODE:
        assert (REPO / name).exists(), f"{name} is missing"
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/BENCHMARKS.md" in readme
    assert "docs/DURABILITY.md" in readme
    assert "docs/OBSERVABILITY.md" in readme
    assert "docs/STATIC_ANALYSIS.md" in readme
    assert "examples/README.md" in readme
    architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    assert "DURABILITY.md" in architecture
    assert "OBSERVABILITY.md" in architecture
    assert "STATIC_ANALYSIS.md" in architecture


def test_examples_index_points_at_real_files():
    index = (REPO / "examples" / "README.md").read_text(encoding="utf-8")
    linked = set(re.findall(r"\[`([a-z_]+\.py)`\]", index))
    on_disk = {path.name for path in (REPO / "examples").glob("*.py")}
    assert linked == on_disk, (
        f"examples/README.md links {sorted(linked)} but examples/ holds {sorted(on_disk)}"
    )


def test_benchmarks_doc_covers_every_workload():
    """BENCHMARKS.md documents every workload BENCHMARK.json declares, and how to run it."""
    doc = (REPO / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"], "BENCHMARK.json declares no workloads"
    for workload in spec["workloads"]:
        assert f"`{workload['name']}`" in doc, (
            f"workload {workload['name']} is not documented in BENCHMARKS.md"
        )
    assert " ".join(spec["command"]) + " --workload" in doc


def test_service_quickstart_example_runs():
    """The PR-facing example must stay runnable end to end (it self-verifies)."""
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / "service_quickstart.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "identical to the uninterrupted run: True" in result.stdout
