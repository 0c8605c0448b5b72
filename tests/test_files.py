import os

import pytest

from helpers import NOW, jitter_unit, mk_episode, rand_unit, small_pool
from kubediag.controller import MetaController
from kubediag.files import write_atomic
from kubediag.graph import GraphEdge, GraphNode, KnowledgeGraph, NodeType, Relation
from kubediag.memory import MemoryPool


def memory_store(rng):
    pool = small_pool(16)
    base = rand_unit(rng, 16)
    for i in range(4):
        pool.insert_episode(mk_episode(f"ep-{i:06d}", jitter_unit(rng, base, 0.05)))
    pool.form_patterns(now=NOW)
    return pool


def graph_store():
    g = KnowledgeGraph()
    a = GraphNode("a", NodeType.POD, "pod oomkilled")
    b = GraphNode("b", NodeType.EVENT, "memory limit hit")
    c = GraphNode("c", NodeType.ROOT_CAUSE, "limit too low")
    g.add_triple(a, GraphEdge("a", "b", Relation.CAUSES, 0.9), b)
    g.add_triple(b, GraphEdge("b", "c", Relation.CAUSES, 0.8), c)
    return g


def poison_episode(pool):
    # ``timestamp`` of the last line: the earlier lines are already written
    list(pool.episodes.values())[-1].timestamp = object()


def poison_pattern(pool):
    # ``last_updated`` sorts after the centroid, which is already written
    next(iter(pool.patterns.values())).last_updated = object()


def poison_edge(g):
    # edges are written after every node
    g.edges[max(g.edges)].weight = object()


def poison_controller(c):
    c.state.tau = object()  # the last key of the checkpoint


# store -> (build, save, poison, load)
STORES = {
    "memory": (memory_store, MemoryPool.save_episodes, poison_episode,
               lambda path: small_pool(16).load_episodes(path)),
    "snapshot": (memory_store, MemoryPool.save_pattern_snapshot, poison_pattern,
                 lambda path: small_pool(16).load_pattern_snapshot(path)),
    "graph": (lambda rng: graph_store(), KnowledgeGraph.save, poison_edge, KnowledgeGraph.load),
    "controller": (lambda rng: MetaController(), MetaController.save, poison_controller,
                   MetaController.load),
}


@pytest.mark.parametrize("store", sorted(STORES))
def test_failed_save_keeps_previous_file(tmp_path, rng, store):
    build, save, poison, load = STORES[store]
    path = tmp_path / f"{store}.json"
    obj = build(rng)
    save(obj, str(path))
    before = path.read_bytes()
    poison(obj)
    with pytest.raises(TypeError):  # json cannot encode the poisoned value
        save(obj, str(path))
    assert path.read_bytes() == before
    load(str(path))
    assert os.listdir(tmp_path) == [f"{store}.json"]


def test_write_atomic_creates_and_replaces(tmp_path):
    path = tmp_path / "store.json"
    write_atomic(str(path), lambda fh: fh.write("one\n"))
    write_atomic(str(path), lambda fh: fh.write("two\n"))
    assert path.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["store.json"]
