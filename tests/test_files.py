import json
import os
import stat

import pytest

from helpers import NOW, jitter_unit, mk_episode, packed, rand_unit, small_pool, sparse_lists
from kubediag.controller import MetaController, SessionRecord
from kubediag.errors import SchemaViolation
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


@pytest.mark.parametrize("store", sorted(STORES))
def test_save_keeps_an_existing_files_permissions(tmp_path, rng, store):
    # a private store stays private through a save, as with open(path, "w");
    # a new file gets the mode open(path, "w") gives it
    build, save, _, load = STORES[store]
    path, plain = tmp_path / f"{store}.json", tmp_path / "plain"
    plain.write_text("")
    obj = build(rng)
    save(obj, str(path))
    assert path.stat().st_mode == plain.stat().st_mode
    for mode in (0o600, 0o640):
        path.chmod(mode)
        save(obj, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == mode
        load(str(path))
    assert sorted(os.listdir(tmp_path)) == sorted([f"{store}.json", "plain"])


def test_write_atomic_creates_and_replaces(tmp_path):
    path = tmp_path / "store.json"
    write_atomic(str(path), lambda fh: fh.write("one\n"))
    write_atomic(str(path), lambda fh: fh.write("two\n"))
    assert path.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["store.json"]


# -- numbers beyond the float range -------------------------------------------

HUGE = 10 ** 400  # a JSON int that no float holds


def huge_episode_timestamp(path):
    lines = path.read_text().splitlines()
    raw = json.loads(lines[2])
    raw["timestamp"] = HUGE
    lines[2] = json.dumps(raw)
    path.write_text("\n".join(lines) + "\n")


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def controller_store(rng):
    c = MetaController()
    for _ in range(3):
        c.record(SessionRecord(0.5, (0.5, 0.5, 0.5, 0.5), True))
    return c


# case -> (build, save, edit of the saved file, load, what the error names)
HUGE_CASES = {
    "episode-timestamp": (memory_store, MemoryPool.save_episodes, huge_episode_timestamp,
                          lambda path: small_pool(16).load_episodes(path), r"^line 3: timestamp "),
    "pattern-last-updated": (
        memory_store, MemoryPool.save_pattern_snapshot,
        lambda path: edit_json(path, lambda d: d["patterns"][0].update(last_updated=HUGE)),
        lambda path: small_pool(16).load_pattern_snapshot(path),
        r"^bad pattern snapshot: last_updated "),
    "controller-tau": (controller_store, MetaController.save,
                       lambda path: edit_json(path, lambda d: d.update(tau=HUGE)),
                       MetaController.load, r"^bad controller checkpoint: tau "),
    "record-c-max": (controller_store, MetaController.save,
                     lambda path: edit_json(path, lambda d: d["history"][1].update(c_max=HUGE)),
                     MetaController.load, r"^bad controller checkpoint: record c_max "),
    "edge-weight": (lambda rng: graph_store(), KnowledgeGraph.save,
                    lambda path: edit_json(path, lambda d: d["edges"][1].update(weight=HUGE)),
                    KnowledgeGraph.load, r"^edge 'b' -causes-> 'c': weight "),
}


@pytest.mark.parametrize("case", sorted(HUGE_CASES))
def test_number_beyond_the_float_range_is_a_schema_violation(tmp_path, rng, case):
    # math.isfinite raises OverflowError on such an int; a loader must not.
    # The message shows the value's first 28 and last 29 characters.
    build, save, edit, load, names = HUGE_CASES[case]
    path = tmp_path / "store.json"
    save(build(rng), str(path))
    edit(path)
    shown = "1" + "0" * 27 + r"\.\.\." + "0" * 29
    with pytest.raises(SchemaViolation, match=names + shown + " is not a finite number$"):
        load(str(path))


def test_earlier_bad_norm_is_named_before_a_huge_timestamp(tmp_path, rng):
    pool = memory_store(rng)
    path = tmp_path / "episodes.jsonl"
    pool.save_episodes(str(path))
    huge_episode_timestamp(path)
    lines = path.read_text().splitlines()
    raw = json.loads(lines[1])
    vec = sparse_lists(raw["embedding"])
    vec["value"][0] *= 2.0
    raw["embedding"] = packed(vec)
    lines[1] = json.dumps(raw)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaViolation, match=r"^line 2: episode ep-000001: embedding norm"):
        small_pool(16).load_episodes(str(path))
