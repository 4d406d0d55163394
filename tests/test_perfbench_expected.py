"""The benchmark's canonical `scale` outputs, checked in the test suite.

`perfbench/expected/scale.json` holds the output digest of every ladder
step (the spaces, tags and nondegenerate witnesses of so_n(3..5) and
abelian(5..7)); the benchmark's gate refuses a run whose outputs differ.
Running the six steps here through the benchmark's own `_scale_item` and
`digest` makes a change that moves a witness point or a basis fail in the
suite as well.  Both files are read, never written.
"""

import importlib.util
import json
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_scale_outputs_match_the_recorded_digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module body runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    expected = json.loads((PERFBENCH / "expected" / "scale.json").read_text())["digests"]
    items = [{"algebra": algebra, "n": n} for algebra, n in workloads.LADDER]
    got = {workloads.item_label("scale", item): workloads.digest(workloads._scale_item(item, None, k))
           for k, item in enumerate(items)}
    assert got == expected
