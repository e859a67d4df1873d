"""Reference answers and output checks, independent of moytree.

Everything here reads the generated JSON with the standard library and
computes with ``fractions.Fraction`` or closed forms, so a defect in the
program's graph, spanning or Laurent layers cannot hide in its own check.
References are computed before the timed loop and outside ``setup_s``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction


def det_fraction(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        row_k = m[k]
        det *= row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            if row_i[k] == 0:
                continue
            f = row_i[k] / row_k[k]
            for j in range(k + 1, n):
                row_i[j] -= f * row_k[j]
    if det.denominator != 1:
        raise ArithmeticError("integer matrix gave a non-integer determinant")
    return det.numerator


def arborescences(doc: dict, root: str, unit: bool = False) -> int:
    """Weighted (or, with unit, plain) count of spanning trees directed
    away from root: the root-deleted minor of the in-degree Laplacian."""
    order = [v for v in doc["vertices"] if v != root]
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    lap = [[0] * n for _ in range(n)]
    for e in doc["edges"]:
        tail, head = e["tail"], e["head"]
        if tail == head or head == root:
            continue
        w = 1 if unit else e["weight"]
        lap[index[head]][index[head]] += w
        if tail != root:
            lap[index[tail]][index[head]] -= w
    return det_fraction(lap)


def head_of(doc: dict, edge_id: str) -> str:
    return next(e["head"] for e in doc["edges"] if e["id"] == edge_id)


def cycle_polynomial(n: int, w: int) -> dict[int, int]:
    """t^(w/2) [w]^(n-1) as {doubled exponent: coefficient}: the one state
    of a directed n-cycle of weight w sends every crossing north."""
    # exponents all share one parity, so index them in steps of 2
    coeffs = [1]
    for _ in range(n - 1):
        prefix = [0]
        for c in coeffs:
            prefix.append(prefix[-1] + c)
        size = len(coeffs) + w - 1
        coeffs = [
            prefix[min(k + 1, len(coeffs))] - prefix[max(0, k - w + 1)]
            for k in range(size)
        ]
    low = w - (n - 1) * (w - 1)
    return {low + 2 * k: c for k, c in enumerate(coeffs) if c}


_TERM = re.compile(r"^(?:(\d+)\*)?t(?:\^(?:\{(-?\d+)/2\}|(-?\d+)))?$")


def parse_polynomial(text: str) -> dict[int, int]:
    """Inverse of HalfLaurent.__str__, as {doubled exponent: coefficient}."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    signed = [tokens[0]] + [s + b for s, b in zip(tokens[1::2], tokens[2::2])]
    out: dict[int, int] = {}
    for term in signed:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if body.isdigit():
            d, mag = 0, int(body)
        else:
            match = _TERM.match(body)
            if match is None:
                raise ValueError(f"unparsable term {term!r}")
            mag = int(match.group(1) or 1)
            if match.group(2) is not None:
                d = int(match.group(2))
            elif match.group(3) is not None:
                d = 2 * int(match.group(3))
            else:
                d = 2
        if d in out:
            raise ValueError(f"repeated exponent in {text[:60]!r}")
        out[d] = sign * mag
    return out


@dataclass
class Expected:
    """What every command on one instance must print."""

    weighted: int  # N(G), root-independent by balance
    unit: int | None  # plain tree count at head(basepoint); diagrams only
    root: str | None  # head(basepoint)
    polynomial: dict[int, int] | None  # closed form, cycles only
    rooted: dict[str, int]  # N(G, r) at each root a command names


def expected_for(instance) -> Expected:
    doc = json.loads(instance.text)
    roots = {c.facts["root"] for c in instance.commands if "root" in c.facts}
    bp = doc.get("basepoint")
    root = head_of(doc, bp) if bp is not None else None
    if instance.cycle is not None:
        n, w = instance.cycle
        return Expected(w ** (n - 1), 1, root, cycle_polynomial(n, w), dict.fromkeys(roots, w ** (n - 1)))
    rooted = {r: arborescences(doc, r) for r in roots}
    # balance makes the count root-independent, so reuse a computed one
    any_root = root or next(iter(rooted), doc["vertices"][0])
    weighted = rooted[any_root] if any_root in rooted else arborescences(doc, any_root)
    unit = arborescences(doc, root, unit=True) if root is not None else None
    return Expected(weighted, unit, root, None, rooted)


def _fields(lines):
    out = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


VALIDATE_LINES = (
    "positive-weights=ok",
    "balance=ok",
    "connectivity=ok",
    "strong-connectivity=ok",
    "rotation-structure=ok",
    "loop=ok",
    "transverse=ok",
    "planar=ok",
    "basepoint=ok",
    "result=ok",
)


def check(command, exp: Expected, rc: int, out: str) -> str | None:
    """None when the output is right, else a one-line reason."""
    if rc != 0:
        return f"exit {rc}"
    lines = out.splitlines()
    f = _fields(lines)
    kind = command.kind
    if kind == "validate":
        if tuple(lines) != VALIDATE_LINES:
            return "validate: not every check ok"
    elif kind == "count":
        if f.get("det") != str(exp.weighted):
            return "count: det differs from the reference"
    elif kind == "count_root":
        if f.get("det") != str(exp.rooted[command.facts["root"]]):
            return "count --root: det differs from the reference"
    elif kind == "skein":
        if f.get("N(G)") != str(exp.weighted) or f.get("residual") != "0":
            return "skein: N(G) or residual wrong"
    elif kind == "subdivide-check":
        w = command.facts["edge_weight"]
        want = {
            "n": str(exp.weighted),
            "n_subdivided": str(w * exp.weighted),
            "edge_weight": str(w),
            "ok": "true",
        }
        if any(f.get(k) != v for k, v in want.items()):
            return "subdivide-check: counts wrong"
    elif kind == "alexander":
        if len(lines) != 2 or lines[1] != f"eval@1 = {exp.weighted}":
            return "alexander: eval@1 differs from the reference count"
        poly = parse_polynomial(lines[0])
        if sum(poly.values()) != exp.weighted:
            return "alexander: coefficients do not sum to eval@1"
        if exp.polynomial is not None and poly != exp.polynomial:
            return "alexander: polynomial differs from the closed form"
    elif kind == "states":
        blocks = sum(1 for line in lines if line.startswith("state "))
        if f.get("count") != str(exp.unit) or blocks != exp.unit:
            return "states: count differs from the unit-weight tree count"
    elif kind == "bijection":
        head = f"root={exp.root} trees={exp.unit} states={exp.unit}"
        trees = [line for line in lines if line.startswith("tree: ")]
        total = sum(int(line.rsplit("weight=", 1)[1]) for line in trees)
        if (
            lines[0] != head
            or lines[-1] != "bijection=ok"
            or len(trees) != exp.unit
            or any("-> ok " not in line for line in trees)
            or total != exp.weighted
        ):
            return "bijection: header, tree lines or weight total wrong"
    else:
        raise ValueError(f"no check for command kind {kind!r}")
    return None
