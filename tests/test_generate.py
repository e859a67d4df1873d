"""Seed diagrams, growth rewrites, and the seeded random generators."""

from __future__ import annotations

import random

import pytest

from moytree.generate import (
    double_edge_map,
    random_balanced_graph,
    random_connected_digraph,
    random_plane_map,
    seed_cycle,
    seed_lens_triangle,
    seed_prism,
    seed_theta,
    subdivide_map,
)
from moytree.graph import DirectedMultigraph, Edge, is_balanced, is_connected
from moytree.graphfile import document_text, map_text
from moytree.planar import CombinatorialMap, Dart, validate_map


# -- seed library -----------------------------------------------------------


def test_seed_cycle():
    m = seed_cycle(4, 2)
    assert len(m.graph.vertices) == 4
    assert m.face_count() == 2
    assert validate_map(m) == []
    with pytest.raises(ValueError, match="at least 2"):
        seed_cycle(1, 1)


def test_seed_theta():
    m = seed_theta([1, 2], [3])
    assert len(m.graph.edges) == 3
    assert m.face_count() == 3
    assert validate_map(m) == []
    with pytest.raises(ValueError, match="at least one arc"):
        seed_theta([], [1])
    with pytest.raises(ValueError, match="sums must agree"):
        seed_theta([1, 2], [2])


def test_seed_lens_triangle():
    m = seed_lens_triangle(1, 2, 3)
    assert m.face_count() == 4
    assert validate_map(m) == []
    weights = {e.id: e.weight for e in m.graph.edges}
    assert weights == {"e21": 2, "e31": 4, "e12": 5, "e13": 1, "e23": 3}
    with pytest.raises(ValueError, match="positive"):
        seed_lens_triangle(0, 1, 1)


def test_seed_prism():
    m = seed_prism(1, 2, 3)
    assert len(m.graph.vertices) == 6
    assert len(m.graph.edges) == 12
    assert m.face_count() == 8
    assert validate_map(m) == []
    with pytest.raises(ValueError, match="positive"):
        seed_prism(1, 0, 1)


# -- growth rewrites -----------------------------------------------------------


def test_subdivide_map_keeps_faces():
    m = seed_lens_triangle(1, 2, 3)
    m2 = subdivide_map(m, "e12")
    assert validate_map(m2) == []
    assert m2.face_count() == m.face_count()
    assert len(m2.graph.vertices) == len(m.graph.vertices) + 1
    assert m2.graph.edge("e12.1").weight == 5
    assert m2.graph.edge("e12.2").weight == 5


def test_subdivide_map_uses_the_ids_subdivide_edge_picks():
    # "e.v" and "e.1" are taken, so the fresh ids gain apostrophes
    g = DirectedMultigraph(
        ["a", "e.v"], [Edge("e", "a", "e.v", 2), Edge("e.1", "e.v", "a", 2)]
    )
    m = CombinatorialMap(
        g,
        {
            "a": (Dart("e", "t"), Dart("e.1", "h")),
            "e.v": (Dart("e.1", "t"), Dart("e", "h")),
        },
    )
    m2 = subdivide_map(m, "e")
    assert m2.rotation["e.v'"] == (Dart("e.1'", "h"), Dart("e.2", "t"))
    assert m2.rotation["a"] == (Dart("e.1'", "t"), Dart("e.1", "h"))
    assert m2.rotation["e.v"] == (Dart("e.1", "t"), Dart("e.2", "h"))
    assert validate_map(m2) == []
    assert m2.face_count() == m.face_count()


def test_double_edge_map_adds_a_lens_face():
    m = seed_lens_triangle(1, 2, 3)
    m2 = double_edge_map(m, "e12", 2)
    assert validate_map(m2) == []
    assert m2.face_count() == m.face_count() + 1
    assert m2.graph.edge("e12.a").weight == 2
    assert m2.graph.edge("e12.b").weight == 3
    assert not m2.graph.has_edge("e12")


def test_double_edge_map_rejects_bad_split():
    m = seed_lens_triangle(1, 2, 3)
    with pytest.raises(ValueError, match="positive parts"):
        double_edge_map(m, "e13", 1)  # weight 1 cannot split
    with pytest.raises(ValueError, match="positive parts"):
        double_edge_map(m, "e12", 5)


def test_rewrites_compose():
    m = seed_prism(2, 2, 2)
    m = subdivide_map(m, "oa")
    m = double_edge_map(m, "ob", 1)
    assert validate_map(m) == []
    assert is_balanced(m.graph)


# -- seeded generators -----------------------------------------------------------


def test_random_plane_map_determinism():
    a = random_plane_map(random.Random(7))
    b = random_plane_map(random.Random(7))
    assert map_text(a) == map_text(b)


def test_random_balanced_graph_determinism():
    a = random_balanced_graph(random.Random(7))
    b = random_balanced_graph(random.Random(7))
    assert document_text(a) == document_text(b)


def test_random_plane_maps_are_valid():
    rng = random.Random(61)
    for _ in range(300):
        m = random_plane_map(rng, max_vertices=8, max_weight=5)
        assert validate_map(m) == []
        assert len(m.graph.vertices) <= 8
        assert all(1 <= e.weight <= 5 for e in m.graph.edges)


def test_random_balanced_graphs_are_balanced_and_connected():
    rng = random.Random(62)
    saw_loop = False
    for k in range(200):
        g = random_balanced_graph(rng, max_vertices=6, allow_loops=(k % 2 == 0))
        assert is_balanced(g)
        assert is_connected(g)
        assert len(g.vertices) <= 6
        assert all(1 <= e.weight <= 5 for e in g.edges)
        loops = [e for e in g.edges if e.tail == e.head]
        saw_loop = saw_loop or bool(loops)
        if k % 2 == 1:
            assert not loops
    assert saw_loop


def test_random_connected_digraphs_are_connected():
    rng = random.Random(63)
    saw_unbalanced = False
    for _ in range(100):
        g = random_connected_digraph(rng, max_vertices=6)
        assert is_connected(g)
        assert 2 <= len(g.vertices) <= 6
        saw_unbalanced = saw_unbalanced or not is_balanced(g)
    assert saw_unbalanced


def test_single_vertex_balanced_graph():
    for seed in range(10):
        g = random_balanced_graph(
            random.Random(seed), min_vertices=1, max_vertices=1, allow_loops=True
        )
        assert g.vertices == ("v0",)
        assert is_balanced(g)
