"""Serialization and 2D rendering: DOT, JSON, OFF, SVG.

The only floating point in the package lives here, in viewer-facing
geometry.  All exports are byte-stable for a fixed input because vertex
orderings are canonical and numeric formatting is fixed.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional, Sequence

from .intlin import parse_matrix_arg  # noqa: F401 - re-exported
from .lattice import KSignature, to_ambient
from .limits import SCHEMA
from .quotient import QuotientGraph, SimplicialComplex, coord_label

# figure axes: coordinate 1 at 240 degrees, 2 at 0, 3 at 120
_AXES_2D = [
    (math.cos(math.radians(240)), -math.sin(math.radians(240))),
    (math.cos(math.radians(0)), -math.sin(math.radians(0))),
    (math.cos(math.radians(120)), -math.sin(math.radians(120))),
]

# SVG pixels per unit of figure length
_SCALE = 24.0

# permutations of (1,2,3) in hexagon boundary order
_HEX_ORDER = [
    (1, 2, 3),
    (2, 1, 3),
    (3, 1, 2),
    (3, 2, 1),
    (2, 3, 1),
    (1, 3, 2),
]


class UnsupportedDimension(ValueError):
    pass


def export_graph_dot(g: QuotientGraph) -> str:
    lines = ["graph quotient {"]
    for i, label in enumerate(g.labels):
        lines.append(f'  v{i} [label="{coord_label(label)}"];')
    for i, j in g.edges():
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph_json(g: QuotientGraph) -> str:
    payload = {
        "schema": SCHEMA,
        "signature": list(g.signature.entries) if g.signature else None,
        "vertices": [list(label) for label in g.labels],
        "edges": [list(e) for e in g.edges()],
        "meta": {
            "vertex_count": g.vertex_count,
            "edge_count": g.edge_count,
            "d": g.d,
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _complex_coordinates(c: SimplicialComplex) -> list[tuple[float, float, float]]:
    """Embedding coordinates for OFF output.

    Complexes carrying coefficient-tuple labels are embedded through the
    ambient map (dropping trailing coordinates beyond three); others get
    abstract circle placement.
    """
    coords = []
    labeled = (
        len(c.vertex_labels) == c.vertex_count
        and all(
            isinstance(lab, tuple) and all(isinstance(v, int) for v in lab)
            for lab in c.vertex_labels
        )
        and c.vertex_labels
    )
    if labeled and len(c.vertex_labels[0]) in (3, 4):
        n = len(c.vertex_labels[0])
        for lab in c.vertex_labels:
            amb = to_ambient(lab)
            point = [amb[j] / n for j in range(min(3, n))]
            while len(point) < 3:
                point.append(0.0)
            coords.append(tuple(point))
        return coords
    for i in range(c.vertex_count):
        angle = 2 * math.pi * i / max(1, c.vertex_count)
        coords.append((math.cos(angle), math.sin(angle), 0.0))
    return coords


def check_off_dimension(d: int) -> None:
    """Raise ``UnsupportedDimension`` for a complex of dimension d above 3,
    which OFF cannot hold; the CLI asks before it builds the torus."""
    if d > 3:
        raise UnsupportedDimension("OFF export handles dimension at most 3")


def export_complex_off(c: SimplicialComplex) -> str:
    check_off_dimension(c.dim)
    edge_count = len(c.faces(1))
    lines = ["OFF", f"{c.vertex_count} {len(c.facets)} {edge_count}"]
    for x, y, z in _complex_coordinates(c):
        lines.append(f"{x:.6f} {y:.6f} {z:.6f}")
    for facet in c.facets:
        lines.append(" ".join([str(len(facet))] + [str(v) for v in facet]))
    return "\n".join(lines) + "\n"


def _project2(x: Sequence[float]) -> tuple[float, float]:
    px = sum(v * _AXES_2D[i][0] for i, v in enumerate(x))
    py = sum(v * _AXES_2D[i][1] for i, v in enumerate(x))
    return px, py


def _hexagon_points(rep: Sequence[int]) -> list[tuple[float, float]]:
    amb = to_ambient(rep)
    return [
        _project2([p + a for p, a in zip(perm, amb)]) for perm in _HEX_ORDER
    ]


def _palette(i: int, total: int) -> str:
    hue = (360 * i) // max(1, total)
    return f"hsl({hue},60%,70%)"


class RenderScene2D(NamedTuple):
    hexagons: tuple[tuple[tuple[float, float], ...], ...]
    colors: tuple[str, ...]
    domain: Optional[tuple[tuple[float, float], ...]] = None


def _domain_polygon(k: KSignature, kind: str) -> tuple[tuple[float, float], ...]:
    n = k.n
    rows = [to_ambient(r) for r in k.matrix().row_list()]
    scaled = [[v / n for v in r] for r in rows]
    if kind == "parallelepiped":
        p1, p2 = scaled[0], scaled[1]
        corners = [
            (0.0, 0.0, 0.0),
            tuple(p1),
            tuple(a + b for a, b in zip(p1, p2)),
            tuple(p2),
        ]
        return tuple(_project2(c) for c in corners)
    if kind == "permutahedron":
        from itertools import permutations

        points = []
        for perm in permutations(range(1, n + 1)):
            combo = [
                sum(perm[i] * scaled[i][j] for i in range(n)) for j in range(n)
            ]
            points.append(_project2(combo))
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        return tuple(points)
    raise ValueError(f"unknown domain kind {kind!r}")


def fundamental_tile_scene(
    k: KSignature, domain: Optional[str] = None
) -> RenderScene2D:
    if k.d != 2:
        raise UnsupportedDimension("2D scenes need d = 2")
    reps = k.index.classes
    hexagons = tuple(tuple(_hexagon_points(rep)) for rep in reps)
    colors = tuple(_palette(i, len(reps)) for i in range(len(reps)))
    poly = _domain_polygon(k, domain) if domain else None
    return RenderScene2D(hexagons=hexagons, colors=colors, domain=poly)


def render_svg(scene: RenderScene2D) -> str:
    points = [p for hexagon in scene.hexagons for p in hexagon]
    if scene.domain:
        points.extend(scene.domain)
    min_x = min(p[0] for p in points) - 1
    max_x = max(p[0] for p in points) + 1
    min_y = min(p[1] for p in points) - 1
    max_y = max(p[1] for p in points) + 1
    width = (max_x - min_x) * _SCALE
    height = (max_y - min_y) * _SCALE

    def fmt(p: tuple[float, float]) -> str:
        return f"{(p[0] - min_x) * _SCALE:.2f},{(p[1] - min_y) * _SCALE:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}">'
    ]
    for hexagon, color in zip(scene.hexagons, scene.colors):
        pts = " ".join(fmt(p) for p in hexagon)
        lines.append(
            f'  <polygon points="{pts}" fill="{color}" stroke="black" '
            'stroke-width="1"/>'
        )
    if scene.domain:
        pts = " ".join(fmt(p) for p in scene.domain)
        lines.append(
            f'  <polygon points="{pts}" fill="none" stroke="red" '
            'stroke-width="2" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
