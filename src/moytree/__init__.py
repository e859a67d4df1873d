"""Exact arborescence counts and Kauffman state sums on balanced-weight
directed multigraphs.

The layers, bottom up:

  graph      directed multigraphs, balance/connectivity, subdivision
  spanning   rooted spanning trees: enumeration and Laplacian counts
  laurent    exact Laurent polynomials in t with half-integer exponents
  planar     rotation systems, faces, decorated plane diagrams
  kauffman   states, the state-sum polynomial, the tree/state bijection
  skein      crossing resolutions and the t = 1 relation
  graphfile  the shared JSON document format
  generate   seeded random instances
  cli        the moytree command

Import from the submodules; the package root exports only __version__.
"""

__version__ = "0.1.0"
