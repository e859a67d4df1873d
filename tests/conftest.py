from __future__ import annotations

import pytest

from moytree.generate import double_edge_map, seed_lens_triangle, seed_prism, subdivide_map
from moytree.graph import DirectedMultigraph, Edge
from moytree.planar import decorate
from moytree.spanning import bareiss


@pytest.fixture
def make_graph():
    """Build a graph from (id, tail, head, weight) records."""

    def build(vertices, records) -> DirectedMultigraph:
        return DirectedMultigraph(vertices, [Edge(*r) for r in records])

    return build


@pytest.fixture
def cofactor():
    """The signed (i, j) cofactor of a matrix given as a tuple of tuples:
    (-1)^(i+j) times the leading minor once row i and column j are moved
    last, which is the minor without row i and column j."""

    def signed(rows, i: int, j: int) -> int:
        moved = rows[:i] + rows[i + 1 :] + rows[i : i + 1]
        minor, _ = bareiss([r[:j] + r[j + 1 :] + r[j : j + 1] for r in moved])
        return (-1) ** (i + j) * minor

    return signed


@pytest.fixture
def lens_map():
    """The three-vertex two-lens diagram with weights built from
    (1, 2, 3); the package's worked example."""
    return seed_lens_triangle(1, 2, 3)


@pytest.fixture
def lens_graph(lens_map):
    return lens_map.graph


@pytest.fixture
def lens_diagram(lens_map):
    return decorate(lens_map, "e23")


@pytest.fixture
def doubled_prism():
    """seed_prism(3, 3, 3) with nine edges split into nested parallels:
    21 edges, 6 vertices and 224 states from basepoint s3."""
    m = seed_prism(3, 3, 3)
    for eid, weight in (
        ("oa", 1), ("ib", 2), ("s1", 1), ("t2", 1), ("oc", 2),
        ("ia", 1), ("t3", 2), ("s2", 1), ("ob", 1),
    ):
        m = double_edge_map(m, eid, weight)
    return m, "s3"


@pytest.fixture
def subdivided_prism():
    """seed_prism(2, 3, 4) with five subdivisions: 17 edges, 11 vertices
    and 12 states from basepoint ob."""
    m = seed_prism(2, 3, 4)
    for eid in ("oa", "s2", "ic", "t1", "s2.1"):
        m = subdivide_map(m, eid)
    return m, "ob"
