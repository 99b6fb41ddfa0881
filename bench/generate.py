"""Seeded synthetic knowledge graphs with the shape of real datasets.

No dataset ships with the repository, so every benchmark workload runs on
a graph drawn here from the workload seed. A shape fixes the exact entity
and relation counts and the exact train/valid/test sizes of the dataset
it is named after. Heads, relations and tails are drawn from Zipf
distributions over shuffled vocabularies, so a few (head, relation)
pairs collect hundreds of known tails while most have one or two: the
filter sets that ``filtered_rank`` masks are heavy-tailed, as in real
graphs. A covering set of triples puts every entity and relation in the
graph, so the vocabulary that ``load_triples`` builds has exactly the
shape's size.

Usage: ``python3 bench/generate.py --shape fb15k-237 --seed 0 --out DIR``
writes ``train.txt``, ``valid.txt``, ``test.txt`` (TAB-separated) and
``stats.json`` into ``DIR``. The generator uses numpy only; it never
imports the package under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "test")

# Exact sizes of the public datasets: entities, relations, split sizes.
SHAPES = {
    "fb15k-237": {"entities": 14541, "relations": 237,
                  "splits": (272115, 17535, 20466)},
    "umls": {"entities": 135, "relations": 46,
             "splits": (5216, 652, 661)},
}

# Zipf exponents for head, relation and tail popularity. They are assumed,
# not fitted to the real datasets; LAYERS.md records the filter-set sizes
# they give.
ZIPF_HEAD = 0.9
ZIPF_RELATION = 1.0
ZIPF_TAIL = 0.9

STAMP_FILE = "stats.json"

# Each workload trains ``cat`` at d=64, B=512 on a view of one generated
# graph: the first ``train``/``valid``/``test`` triples of each split
# (None keeps the whole split), ``epochs`` epochs per ``train()`` call.
# ``main`` names the end-to-end metric the workload exists for; the
# traced run reports the tracing overhead on it. Why each workload exists
# is written once, in BENCHMARK.json.
WORKLOADS = {
    "train-fb237": {
        "shape": "fb15k-237", "train": 2048, "valid": 256, "test": 2048,
        "epochs": 1, "main": "train_triples_per_s",
    },
    "train-umls": {
        "shape": "umls", "train": None, "valid": None, "test": None,
        "epochs": 2, "main": "train_triples_per_s",
    },
    "eval-fb237": {
        "shape": "fb15k-237", "train": 2048, "valid": 256, "test": None,
        "epochs": 1, "main": "eval_triples_per_s",
    },
}


def _zipf_weights(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf(s) probabilities over ``n`` items, assigned in random order."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return rng.permutation(w / w.sum())


def _covering_triples(n_ent: int, n_rel: int,
                      rng: np.random.Generator) -> np.ndarray:
    """ceil(n_ent / 2) triples that use every entity and relation once."""
    ents = rng.permutation(n_ent)
    if n_ent % 2:
        ents = np.append(ents, rng.integers(0, n_ent - 1))
    count = ents.size // 2
    if count < n_rel:
        raise ValueError("shape has more relations than covering triples")
    rels = np.concatenate([rng.permutation(n_rel),
                           rng.integers(0, n_rel, count - n_rel)])
    return np.stack([ents[0::2], rels, ents[1::2]], axis=1)


def generate(shape: str, seed: int) -> tuple[dict[str, np.ndarray], dict]:
    """Draw the three splits of ``shape`` from ``seed``.

    Returns integer (n, 3) arrays of (head, relation, tail) ids per split
    and the statistics recorded next to the files.
    """
    spec = SHAPES[shape]
    n_ent, n_rel = spec["entities"], spec["relations"]
    total = sum(spec["splits"])
    rng = np.random.default_rng([seed, 0x6b67])
    w_head = _zipf_weights(n_ent, ZIPF_HEAD, rng)
    w_rel = _zipf_weights(n_rel, ZIPF_RELATION, rng)
    w_tail = _zipf_weights(n_ent, ZIPF_TAIL, rng)

    def key(t: np.ndarray) -> np.ndarray:
        return (t[:, 0] * n_rel + t[:, 1]) * n_ent + t[:, 2]

    cover = _covering_triples(n_ent, n_rel, rng)
    keys = np.unique(key(cover))
    if keys.size != cover.shape[0]:
        raise AssertionError("covering triples repeat")
    sampled = [cover]
    seen = set(keys.tolist())
    missing = total - cover.shape[0]
    while missing:
        draw = max(2 * missing, 1024)
        cand = np.stack([rng.choice(n_ent, draw, p=w_head),
                         rng.choice(n_rel, draw, p=w_rel),
                         rng.choice(n_ent, draw, p=w_tail)], axis=1)
        fresh = []
        for row, k in zip(cand, key(cand).tolist()):
            if k not in seen:
                seen.add(k)
                fresh.append(row)
                if len(fresh) == missing:
                    break
        if fresh:
            sampled.append(np.array(fresh, dtype=np.int64))
            missing -= len(fresh)
    triples = np.concatenate(sampled)[rng.permutation(total)]
    bounds = np.cumsum((0,) + spec["splits"])
    splits = {name: triples[bounds[i]:bounds[i + 1]]
              for i, name in enumerate(SPLITS)}
    return splits, _stats(shape, seed, triples, n_ent, n_rel)


def _stats(shape: str, seed: int, triples: np.ndarray, n_ent: int,
           n_rel: int) -> dict:
    """Filter-set statistics over all splits, as ``load_triples`` sees them."""
    pairs = triples[:, 0] * n_rel + triples[:, 1]
    _, tails_per_pair = np.unique(pairs, return_counts=True)
    return {
        "shape": shape,
        "seed": seed,
        "entities": int(np.unique(triples[:, [0, 2]]).size),
        "relations": int(np.unique(triples[:, 1]).size),
        "splits": dict(zip(SPLITS, SHAPES[shape]["splits"])),
        "filter_sets": int(tails_per_pair.size),
        "filter_tails_mean": float(tails_per_pair.mean()),
        "filter_tails_p50": float(np.median(tails_per_pair)),
        "filter_tails_p99": float(np.quantile(tails_per_pair, 0.99)),
        "filter_tails_max": int(tails_per_pair.max()),
        "zipf": {"head": ZIPF_HEAD, "relation": ZIPF_RELATION,
                 "tail": ZIPF_TAIL},
    }


def _names(shape: str, n: int, kind: str) -> list[str]:
    if shape == "fb15k-237":
        prefix = "/m/0" if kind == "entity" else "/r/"
        return [f"{prefix}{np.base_repr(i, 36).lower()}" for i in range(n)]
    return [f"{kind}_{i}" for i in range(n)]


def source_digest() -> str:
    """Digest of this file; a data directory made by other code is redone."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]


def write_dataset(shape: str, seed: int, out: Path) -> dict:
    """Write the three split files and ``stats.json`` into ``out``.

    Reuses the files when ``stats.json`` shows they were made by this
    generator from the same shape and seed.
    """
    stamp = out / STAMP_FILE
    digest = source_digest()
    if stamp.exists():
        stats = json.loads(stamp.read_text())
        if (stats.get("generator") == digest and stats["shape"] == shape
                and stats["seed"] == seed
                and all((out / f"{s}.txt").exists() for s in SPLITS)):
            return stats
    out.mkdir(parents=True, exist_ok=True)
    splits, stats = generate(shape, seed)
    spec = SHAPES[shape]
    ent = _names(shape, spec["entities"], "entity")
    rel = _names(shape, spec["relations"], "relation")
    for name, rows in splits.items():
        lines = [f"{ent[h]}\t{rel[r]}\t{ent[t]}\n" for h, r, t in rows.tolist()]
        (out / f"{name}.txt").write_text("".join(lines), encoding="utf-8")
    stats["generator"] = digest
    stamp.write_text(json.dumps(stats, indent=1) + "\n")
    return stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(write_dataset(args.shape, args.seed, args.out)))


if __name__ == "__main__":
    main()
