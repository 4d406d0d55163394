"""The three benchmark workloads: input generation and one timed pass.

Inputs come only from the seed.  Each workload is a list of items (a
catalog entry, an operator pair, a ladder step); a pass runs every item
once through the public API or the CLI entry point and returns, per item,
its time to verdict and a canonical output record for the gate.

* catalog      -- every catalog entry through `darbouxops --format json
                  catalog verify NAME`, in a seeded order, each pass starting
                  from an empty catalog cache.
* pencil-sqrt  -- six catalog operators of dimension 4..6 written as operator
                  files over Q(sqrt d), d in {2, 3, 5}, transported by a seeded
                  invertible matrix (`operator transform`) and paired with
                  themselves (`pencil T.json T.json --mode both`).
* scale        -- the so_n(3..5) / abelian(5..7) ladder in a seeded order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import time

from darbouxops import catalog, catalog_data, cli, invariants, lie, linalg
from darbouxops.scalars import Scalar

WORKLOADS = ("catalog", "pencil-sqrt", "scale")

LADDER = (("so_n", 3), ("so_n", 4), ("so_n", 5), ("abelian", 5), ("abelian", 6), ("abelian", 7))
FIELD_TAGS = (2, 3, 5)
# Nonzero entries a + b*sqrt(d), a, b in {-1, 0, 1}: every transported entry
# is then a full linear form, so a pair's cost does not hinge on where zeros
# of the matrix happen to fall.
MATRIX_ENTRIES = tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b)
# Besides the four entries with moduli (incompatible with their renamed
# copy), one compatible entry is drawn from each of these dimensions.  The
# dimension-6 entries without moduli are left out of the draw: at 1..7 s
# each they would swing a pass by more than the rest of the draw together.
COMPATIBLE_DIMS = (4, 5)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


# -- input generation ------------------------------------------------------


def generate(workload: str, seed: int) -> dict:
    """All inputs of one run, as JSON-ready data determined by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        items = [{"entry": name} for name in catalog.catalog_list()]
    elif workload == "scale":
        items = [{"algebra": b, "n": n} for b, n in LADDER]
    elif workload == "pencil-sqrt":
        items = _pencil_items(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return {"workload": workload, "seed": seed, "items": items}


def _pencil_items(rng: random.Random) -> list:
    pool = [rec for rec in catalog_data.ENTRIES if 3 <= rec["dim"] <= 6]
    chosen = [rec["name"] for rec in pool if rec.get("moduli")]
    for dim in COMPATIBLE_DIMS:
        chosen.append(rng.choice([rec["name"] for rec in pool
                                  if rec["dim"] == dim and not rec.get("moduli")]))
    items = []
    for name in chosen:
        entry = catalog.catalog_get(name)
        d = rng.choice(FIELD_TAGS)
        operator = {
            "dim": entry.dim,
            "field_sqrt": d,
            "g": [[str(x) for x in row] for row in entry.eta],
            "omega": [[str(x) for x in row] for row in entry.omega],
            "params": entry.eta_params + entry.f_params + list(entry.moduli),
        }
        items.append({
            "entry": entry.name,
            "compatible": not entry.moduli,
            "operator": operator,
            "matrix": _invertible_matrix(rng, entry.dim, d),
        })
    catalog._cache.clear()
    return items


def _invertible_matrix(rng: random.Random, n: int, d: int) -> list:
    while True:
        m = [[Scalar(*rng.choice(MATRIX_ENTRIES), d) for _ in range(n)] for _ in range(n)]
        if linalg.det(m):
            return [[str(x) for x in row] for row in m]


def write_files(inputs: dict, workdir: str) -> None:
    """Operator and matrix files of the pencil-sqrt items (no-op otherwise)."""
    for k, item in enumerate(inputs["items"]):
        if "operator" in item:
            for stem, data in (("A", item["operator"]), ("M", item["matrix"])):
                with open(os.path.join(workdir, f"{stem}{k}.json"), "w", encoding="utf-8") as fh:
                    json.dump(data, fh, indent=2)
                    fh.write("\n")


# -- one pass --------------------------------------------------------------


@dataclasses.dataclass
class ItemResult:
    label: str
    seconds: float
    output: dict  # canonical record the gate compares
    error: str = ""
    start: float = 0.0  # clock reading when the item started


def _cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _catalog_item(item, workdir, k) -> dict:
    code, out = _cli(["--format", "json", "catalog", "verify", item["entry"]])
    payload = json.loads(out)
    return {"exit": code, "checks": payload["checks"][item["entry"]],
            "flags": payload["flagged"].get(item["entry"], [])}


def _pencil_item(item, workdir, k) -> dict:
    a, m, t = (os.path.join(workdir, f"{stem}{k}.json") for stem in "AMT")
    code_t, _ = _cli(["operator", "transform", a, "--matrix", m, "--out", t])
    code_p, out = _cli(["--format", "json", "pencil", t, t, "--mode", "both"])
    payload = json.loads(out) if out.strip() else {}
    with open(t, "rb") as fh:
        transported = hashlib.sha256(fh.read()).hexdigest()
    return {
        "transform_exit": code_t,
        "pencil_exit": code_p,
        "darboux": payload.get("darboux", {}).get("compatible"),
        "lambda": payload.get("lambda", {}).get("compatible"),
        "transported": transported,
    }


def _strings(matrix) -> list:
    return [[str(x) for x in row] for row in matrix]


def _witness(w):
    return None if w is None else {"point": list(w[0]), "matrix": _strings(w[1])}


def _scale_item(item, workdir, k) -> dict:
    n = item["n"]
    if item["algebra"] == "abelian":
        g = lie.abelian(n)
        met = invariants.compatible_metric_space(g)
        return {"metric": [_strings(b) for b in met.basis],
                "witness_metric": _witness(invariants.nondegenerate_witness(met.basis))}
    g = lie.so_n(n)
    tags = lie.structure_tags(g)
    cas = invariants.quadratic_casimir_space(g)
    met = invariants.compatible_metric_space(g)
    coc = invariants.two_cocycle_space(g)
    return {
        "c": [_strings(plane) for plane in g.c],
        "tags": dataclasses.asdict(tags),
        "casimir": [_strings(b) for b in cas.basis],
        "metric": [_strings(b) for b in met.basis],
        "cocycle": [_strings(b) for b in coc.basis],
        "coboundary": [_strings(b) for b in coc.coboundary_basis],
        "witness_casimir": _witness(invariants.nondegenerate_witness(cas.basis)),
        "witness_metric": _witness(invariants.nondegenerate_witness(met.basis)),
    }


_RUNNERS = {"catalog": _catalog_item, "pencil-sqrt": _pencil_item, "scale": _scale_item}


def item_label(workload: str, item: dict) -> str:
    if workload == "scale":
        return f"{item['algebra']}({item['n']})"
    return item["entry"]


def run_pass(inputs: dict, workdir: str, indices=None, clock=time.perf_counter) -> dict:
    """Run the items (all, or those at `indices`) once: index -> ItemResult.

    Every item starts from a collected heap, as a fresh CLI process would,
    so that where the cyclic collector runs inside an item does not hinge on
    the items before it.  Items are timed with `clock`.  A raising item is
    recorded with its error and the pass goes on.
    """
    workload = inputs["workload"]
    runner = _RUNNERS[workload]
    if workload == "catalog":
        catalog._cache.clear()
    items = inputs["items"]
    results = {}
    for k in range(len(items)) if indices is None else indices:
        gc.collect()
        t0 = clock()
        try:
            output, error = runner(items[k], workdir, k), ""
        except Exception as exc:  # a raising item counts as failed
            output, error = {}, f"{type(exc).__name__}: {exc}"
        results[k] = ItemResult(item_label(workload, items[k]), clock() - t0,
                                output, error, t0)
    return results
