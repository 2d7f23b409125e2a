"""Seeded fuzz of the JSON loaders through ``cli.main``.

Valid distribution, predictor and config documents are mutated (keys dropped
or renamed, values swapped for another JSON type, wrapped in a list or set to
null) and handed to the CLI. Every case must load (exit 0) or be rejected as
bad input (exit 2); an exception escaping ``main`` fails the test.
"""

import copy
import json
import random

import pytest

from mcbridge.cli import main
from mcbridge.discrete import make_joint
from mcbridge.predictors import TrainConfig, TrainedPredictor

CASES = 40
SWAPS = ["x", 7, 0.5, -1, True, None, [], {}, [1, 2], [[0.5]], float("inf"), float("nan")]


def _paths(doc, prefix=()):
    """Paths to every value of a nested document, the root included; lists contribute their first 3 entries."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc[:3]):
            yield from _paths(value, prefix + (i,))


def _mutate(doc, rng: random.Random):
    path = rng.choice(list(_paths(doc)))
    op = rng.choice(["drop", "rename", "swap", "nest", "null"])
    swap = copy.deepcopy(rng.choice(SWAPS))
    if not path:
        return {"drop": {}, "rename": [doc], "nest": [doc], "null": None}.get(op, swap)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if op == "drop":
        del parent[last]
    elif op == "rename" and isinstance(parent, dict):
        parent[f"{last}_x"] = parent.pop(last)
    elif op == "nest":
        parent[last] = [parent[last]]
    elif op == "null":
        parent[last] = None
    else:
        parent[last] = swap
    return doc


def _documents(base: dict, seed: int):
    """The unmutated base, then CASES documents with one to three mutations each."""
    rng = random.Random(seed)
    yield copy.deepcopy(base)
    for _ in range(CASES):
        doc = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        yield doc


def _predictor_doc() -> dict:
    return TrainedPredictor.initial(3, 2, TrainConfig(hidden=4, steps=0)).to_json_dict()


SAMPLE = ["sample", "--steps", "2", "--chains", "3"]
LOADERS = {
    # name: (base document, argv with {doc} and {dist} placeholders)
    "distribution": (make_joint("copy", 3, 2).to_json_dict(), SAMPLE + ["--dist", "{doc}", "--oracle"]),
    "predictor": (_predictor_doc(), SAMPLE + ["--predictor", "{doc}"]),
    "sample-config": (
        {"method": "sde", "grid": "fm", "steps": 2, "horizon": 6.0, "sde_floor": 0.01, "temperature": 1.0,
         "nucleus_p": 1.0, "chains": 3, "seed": 0},
        ["sample", "--dist", "{dist}", "--oracle", "--config", "{doc}"],
    ),
    "gen-dist-config": (
        {"kind": "product", "vocab": 2, "length": 2, "alpha": 1.0, "marginals": [[0.5, 0.5], [0.3, 0.7]], "seed": 0},
        ["gen-dist", "--config", "{doc}"],
    ),
}


@pytest.mark.parametrize("loader", list(LOADERS))
def test_mutated_documents_exit_0_or_2(tmp_path, capsys, loader):
    base, argv = LOADERS[loader]
    dist = tmp_path / "copy.json"
    make_joint("copy", 3, 2).save(dist)
    codes = []
    for i, doc in enumerate(_documents(base, seed=sorted(LOADERS).index(loader))):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        args = [a.format(doc=path, dist=dist) for a in argv] + ["--out", str(tmp_path / f"out{i}")]
        try:
            code = main(args)
        except Exception as exc:  # noqa: BLE001 - any escaping exception is the failure under test
            pytest.fail(f"{loader} case {i} raised {type(exc).__name__}: {exc}\ndocument: {json.dumps(doc)[:400]}")
        assert code in (0, 2), f"{loader} case {i} exited {code}: {json.dumps(doc)[:400]}"
        codes.append(code)
    capsys.readouterr()
    assert codes[0] == 0, "the unmutated document must load"
    assert 2 in codes
