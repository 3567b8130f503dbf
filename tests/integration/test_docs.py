"""Documentation fidelity: the README's code and the public API exist."""

import pathlib
import re
import runpy

import pytest

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"


def test_readme_quickstart_executes():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README should contain a python quickstart"
    namespace: dict = {}
    exec(blocks[0], namespace)  # noqa: S102 - executing our own docs


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.core",
        "repro.kernel",
        "repro.memory",
        "repro.ipc",
        "repro.devices",
        "repro.runtime",
        "repro.distrib",
        "repro.analysis",
        "repro.serve",
        "repro.cluster",
        "repro.journal",
        "repro.faults",
        "repro.obs",
        "repro.aio",
        "repro.chaos",
        "repro.util",
    ],
)
def test_module_all_exports_resolve(module_name):
    import importlib

    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{module_name} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_design_and_experiments_reference_real_benches():
    root = pathlib.Path(__file__).resolve().parents[2]
    bench_paths = sorted((root / "benchmarks").glob("bench_*.py"))
    bench_names = {p.stem for p in bench_paths}
    ci = ".github/workflows/ci.yml"
    for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md", "docs/API.md", ci):
        text = (root / doc).read_text()
        for referenced in re.findall(r"bench_[a-z0-9_]+", text):
            assert referenced in bench_names, f"{doc} references {referenced}"

    # REPORT.md's generator table: each section's results file is written
    # by a bench that still exists, or by the CI step that tees it
    sections = runpy.run_path(str(root / "benchmarks" / "summarize.py"))["SECTIONS"]
    writers = "".join(p.read_text() for p in bench_paths)
    ci_text = (root / ci).read_text()
    for name in (name for _, entries in sections for name, _ in entries):
        assert f'"{name}"' in writers or f"results/{name}.txt" in ci_text, (
            f"summarize.SECTIONS lists {name}, which nothing writes"
        )
