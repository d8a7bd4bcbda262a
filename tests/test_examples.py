"""Smoke checks for the example scripts.

Each example must at least parse and expose a ``main`` callable; the
quickstart and the windowed-drift example are additionally executed
end-to-end so a stale API in the examples fails the suite rather than
the reader.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_present():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_importable_with_main(name):
    module = load_example(name)
    assert callable(getattr(module, "main", None)), f"{name} lacks main()"


def test_quickstart_runs(capsys, monkeypatch):
    """Execute the quickstart end-to-end on a shrunken workload."""
    module = load_example("quickstart.py")
    import repro.datasets as datasets

    original = datasets.make_moons

    def small_moons(n=1500, **kwargs):
        return original(n=200, **kwargs)

    monkeypatch.setattr(module, "make_moons", small_moons)
    module.main()
    out = capsys.readouterr().out
    assert "Our_Exact" in out
    assert "gonzalez" in out


def test_windowed_drift_runs(capsys):
    """The windowed example end to end, on single ``insert``s into the
    default index: after each epoch its region reads as a cluster, and
    every region the window slid past, like the far probe, reads as
    noise."""
    load_example("windowed_drift.py").main()
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line[:1].isdigit()]
    assert len(rows) == 3
    for epoch, line in enumerate(rows):
        cells = [line[12 + 12 * k : 24 + 12 * k].strip() for k in range(4)]
        assert cells[epoch].startswith("cluster")
        assert cells[:epoch] == ["noise"] * epoch
        assert cells[3] == "noise"
