"""Deterministic topology generators for experiments.

Each generator returns a JSON-ready dict ``{"routers": [[id, role], ...],
"links": [[a, b, cost], ...]}`` with unit costs.
"""

from .errors import InvalidParams


def gen_topology(kind, size):
    if size < 1:
        raise InvalidParams(f"size must be >= 1, got {size}")
    # only a str is looked up: a list or dict kind cannot be a dict key
    generator = _GENERATORS.get(kind) if isinstance(kind, str) else None
    if generator is None:
        raise InvalidParams(f"unknown topology kind {kind!r} (choose from {KINDS})")
    return generator(size)


def _line(n):
    """Chain of n routers; endpoints are edges, interior is core."""
    roles = [[i, "edge" if (i == 0 or i == n - 1) else "core"] for i in range(n)]
    links = [[i, i + 1, 1] for i in range(n - 1)]
    return {"routers": roles, "links": links}


def _star(n):
    """Core hub 0 with n-1 edge leaves; needs n >= 2."""
    if n < 2:
        raise InvalidParams("star needs size >= 2")
    roles = [[0, "core"]] + [[i, "edge"] for i in range(1, n)]
    links = [[0, i, 1] for i in range(1, n)]
    return {"routers": roles, "links": links}


def _grid(side):
    """side x side grid; perimeter routers are edges, interior is core."""
    def rid(r, c):
        return r * side + c

    roles = []
    links = []
    for r in range(side):
        for c in range(side):
            on_rim = r in (0, side - 1) or c in (0, side - 1)
            roles.append([rid(r, c), "edge" if on_rim else "core"])
            if c + 1 < side:
                links.append([rid(r, c), rid(r, c + 1), 1])
            if r + 1 < side:
                links.append([rid(r, c), rid(r + 1, c), 1])
    return {"routers": roles, "links": links}


def _fat_edge(n):
    """Small core ring with the remaining routers attached as edges.

    Core size is max(1, n // 5); edge routers are spread round-robin over
    the core, which concentrates transit state in few routers.
    """
    if n < 2:
        raise InvalidParams("fat-edge needs size >= 2")
    n_core = max(1, n // 5)
    roles = [[i, "core"] for i in range(n_core)]
    roles += [[i, "edge"] for i in range(n_core, n)]
    links = []
    if n_core > 1:
        links = [[i, (i + 1) % n_core, 1] for i in range(n_core)]
        if n_core == 2:
            links = [[0, 1, 1]]
    for i in range(n_core, n):
        links.append([(i - n_core) % n_core, i, 1])
    return {"routers": roles, "links": links}


# kind -> its generator, in the order the CLI lists them
_GENERATORS = {"line": _line, "star": _star, "grid": _grid, "fat-edge": _fat_edge}
KINDS = tuple(_GENERATORS)
