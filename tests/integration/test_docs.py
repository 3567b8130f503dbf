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


def _registered_metrics(*trees: pathlib.Path) -> set[str]:
    """Every ``mw_*`` name registered under ``trees``. An f-string name
    (``f"mw_gate_{slug}"``) or a gauge ``prefix=`` is a family, named by
    its prefix and a trailing ``_`` (``mw_gate_``, ``mw_mem_``)."""
    names = set()
    for tree in trees:
        for path in tree.rglob("*.py"):
            for prefix, f, name, brace in re.findall(
                r'(prefix=)?(f?)"(mw_[a-z0-9_]*)(\{?)', path.read_text()
            ):
                family = prefix or (f and brace)
                names.add(name.rstrip("_") + "_" if family else name)
    return names


def test_every_registered_metric_is_in_the_api_catalogue():
    """A ``mw_*`` name in ``src/`` is documented in docs/API.md, and a
    name docs/API.md lists is registered in ``src/`` or ``benchmarks/``.
    A family is documented as ``mw_gate_{device}_*`` / ``mw_mem_*``."""
    root = pathlib.Path(__file__).resolve().parents[2]
    documented = set(re.findall(r"mw_[a-z0-9_]*", (root / "docs" / "API.md").read_text()))
    in_src = _registered_metrics(root / "src" / "repro")
    missing = in_src - documented
    assert not missing, f"metrics missing from docs/API.md: {sorted(missing)}"
    stale = documented - in_src - _registered_metrics(root / "benchmarks")
    assert not stale, f"docs/API.md lists unregistered metrics: {sorted(stale)}"
