import numpy as np
import pytest

from catkg import tensor as T
from catkg.kg import TripleStore


def build_toy_store(n_entities=30, n_relations=4, n_train=110, n_valid=20,
                    n_test=10, seed=0, valid_from_train=True):
    """Random toy knowledge graph assembled directly in memory.

    With ``valid_from_train`` the validation split is a subset of the
    training triples, which makes validation MRR track memorization —
    the right monitor for capacity smoke tests.
    """
    rng = np.random.default_rng(seed)
    triples = set()
    while len(triples) < n_train + n_test:
        triples.add((int(rng.integers(n_entities)),
                     int(rng.integers(n_relations)),
                     int(rng.integers(n_entities))))
    rows = np.array(sorted(triples), dtype=np.int64)
    rng.shuffle(rows)
    train, test = rows[:n_train], rows[n_train:]
    valid = train[:n_valid] if valid_from_train else test[:n_valid]

    return TripleStore.from_splits(
        {f"e{i}": i for i in range(n_entities)},
        {f"r{i}": i for i in range(n_relations)}, train, valid, test)


def write_store_files(store, directory):
    """Write a TripleStore back out as the three TAB-separated files."""
    entity = {i: s for s, i in store.entity_index.items()}
    relation = {i: s for s, i in store.relation_index.items()}
    paths = {}
    for name in ("train", "valid", "test"):
        path = directory / f"{name}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in store.split(name):
                fh.write(f"{entity[int(h)]}\t{relation[int(r)]}\t{entity[int(t)]}\n")
        paths[name] = str(path)
    return paths


def use_cpus(monkeypatch, cpus):
    """Let the process appear to run on ``cpus`` CPUs."""
    monkeypatch.setattr(T.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def record_beside(monkeypatch):
    """Route ``tensor.beside`` through a spy; the returned list gets the
    ``size`` of every call."""
    sizes = []
    beside = T.beside

    def spy(main, side, size):
        sizes.append(size)
        return beside(main, side, size)

    monkeypatch.setattr(T, "beside", spy)
    return sizes


@pytest.fixture
def toy_store():
    return build_toy_store()
