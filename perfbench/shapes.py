"""Configurations of the six supported shapes, as CLI-style JSON dicts.

Every workload input is one of these dicts: the same schema the ``fatpoints``
command reads from a file, with the multiplicities included.  The generators
take a ``random.Random`` so the corpus builder can draw them reproducibly.
"""

from __future__ import annotations

import random


def _points(r: int, parents: dict[int, int] | None = None) -> list[dict]:
    parents = parents or {}
    return [
        {"id": i, "parent": parents[i]} if i in parents else {"id": i}
        for i in range(1, r + 1)
    ]


def descending(rng: random.Random, r: int, lo: int, hi: int) -> list[int]:
    return sorted((rng.randint(lo, hi) for _ in range(r)), reverse=True)


def line(mults: list[int]) -> dict:
    r = len(mults)
    return {
        "curve_kind": "line",
        "points": _points(r),
        "lines": [list(range(1, r + 1))],
        "multiplicities": list(mults),
    }


def smooth(mults: list[int]) -> dict:
    return {
        "curve_kind": "conic",
        "points": _points(len(mults)),
        "conic_shape": {"kind": "smooth"},
        "multiplicities": list(mults),
    }


def two_lines(rng: random.Random, na: int, nb: int, node: bool, hi: int) -> dict:
    """Two lines with na and nb proper points (sharing p1 when ``node``) and
    one first-order near point over a proper point of one of them."""
    line_a = [1] if node else []
    nxt = 2 if node else 1
    line_a += list(range(nxt, nxt + na - len(line_a)))
    nxt = line_a[-1] + 1
    line_b = [1] if node else []
    line_b += list(range(nxt, nxt + nb - len(line_b)))
    r = line_b[-1] + 1
    host = line_a if rng.randrange(2) else line_b
    parent = rng.choice([i for i in host if not (node and i == 1)])
    host.append(r)
    mults = [rng.randint(1, hi) for _ in range(r - 1)]
    mults.append(rng.randint(1, mults[parent - 1]))
    return {
        "curve_kind": "conic",
        "points": _points(r, {r: parent}),
        "lines": [line_a, line_b],
        "conic_shape": {"kind": "two_lines", "line_a": 0, "line_b": 1},
        "multiplicities": mults,
    }


def double_line(rng: random.Random, n: int, near: bool, hi: int) -> dict:
    """n proper points on a doubled line, plus one near point when ``near``."""
    r = n + 1 if near else n
    parents = {r: rng.randint(1, n)} if near else {}
    mults = [rng.randint(1, hi) for _ in range(n)]
    if near:
        mults.append(rng.randint(1, mults[parents[r] - 1]))
    return {
        "curve_kind": "conic",
        "points": _points(r, parents),
        "lines": [list(range(1, r + 1))],
        "conic_shape": {"kind": "double_line", "line_a": 0},
        "multiplicities": mults,
    }


def cubic_uniform(r: int, m: int) -> dict:
    return {
        "curve_kind": "cubic_uniform",
        "points": _points(r),
        "lambda_spec": {"kind": "trivial"},
        "multiplicities": [m] * r,
    }


def cubic_flex(mults: list[int]) -> dict:
    """A chain at a flex; proximity needs the multiplicities non-increasing."""
    r = len(mults)
    return {
        "curve_kind": "cubic_flex",
        "points": _points(r, {i: i - 1 for i in range(2, r + 1)}),
        "multiplicities": list(mults),
    }


def scheme_from_config(fp, config: dict):
    """Build the FatPointScheme a config dict describes, through the
    package's public constructors (``fp`` is the imported package)."""
    shape = config.get("conic_shape")
    spec = config.get("lambda_spec")
    point_config = fp.PointConfig(
        curve_kind=config["curve_kind"],
        points=tuple(fp.Point(p["id"], p.get("parent")) for p in config["points"]),
        lines=tuple(tuple(line) for line in config.get("lines", ())),
        conic_shape=(
            None
            if shape is None
            else fp.ConicShape(shape["kind"], shape.get("line_a"), shape.get("line_b"))
        ),
        lambda_spec=None if spec is None else fp.LambdaSpec(spec["kind"], spec.get("order")),
    )
    return fp.FatPointScheme(point_config, tuple(config["multiplicities"]))
