"""Text format for hypergraph instances.

Layout (whitespace separated, `#` comments):

    khg 1
    k 3
    parts 2
    part A 5: a1 a2 a3 a4 a5
    part B 3: b1 b2 b3
    edge a1 a2 b1
    edge@2 a1 a2          # optional explicit lower-level edges

Vertex tokens are opaque names mapped to dense integer ids in part order.
Plain `edge` lines are top-level k-edges.
"""

from __future__ import annotations

from .core import KSystem, VertexUniverse, build_complex
from .errors import BadVertex


def _positive_int(token: str, what: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise BadVertex(f"{where}: {what} {token!r} is not an integer") from None
    if value < 1:
        raise BadVertex(f"{where}: {what} must be at least 1, got {value}")
    return value


def parse_khg(text: str):
    """Parse khg text into (universe, k, leveled edges, vertex name list).

    Every malformed directive raises BadVertex naming its line.
    """
    lines = [
        (no, toks) for no, line in enumerate(text.splitlines(), 1)
        if (toks := line.partition("#")[0].split())
    ]
    if not lines or lines[0][1][:2] != ["khg", "1"]:
        raise BadVertex("missing 'khg 1' header")
    declared = {}                 # "k" and "parts" -> value
    labels, sizes, names = [], [], []
    raw_edges = []                # (line, level, vertex names)
    edge_tokens = None            # token count of a well-formed top edge line
    for no, toks in lines[1:]:
        key = toks[0]
        if key == "edge" and len(toks) == edge_tokens == len(set(toks)):
            raw_edges.append((no, edge_tokens - 1, toks[1:]))
            continue
        where = f"line {no}"
        if key in ("k", "parts"):
            if len(toks) != 2:
                raise BadVertex(f"{where}: '{key}' takes one value")
            if key in declared:
                raise BadVertex(f"{where}: '{key}' declared twice")
            declared[key] = _positive_int(toks[1], key, where)
            if key == "k":
                edge_tokens = declared[key] + 1
        elif key == "part":
            if len(toks) < 2:
                raise BadVertex(f"{where}: part line without a label")
            label = toks[1]
            rest = toks[2:]
            if rest and rest[0].endswith(":"):
                size_token, verts = rest[0][:-1], rest[1:]
            elif len(rest) >= 2 and rest[1] == ":":
                size_token, verts = rest[0], rest[2:]
            else:
                raise BadVertex(f"{where}: malformed part line for {label!r}")
            size = _positive_int(size_token, "part size", where)
            if len(verts) != size:
                raise BadVertex(
                    f"{where}: part {label} declares {size} vertices, lists {len(verts)}"
                )
            labels.append(label)
            sizes.append(size)
            names.extend(verts)
        elif key == "edge" or key.startswith("edge@"):
            k = declared.get("k")
            if k is None:
                raise BadVertex(f"{where}: edge before k declaration")
            level = _positive_int(key[5:], "edge level", where) if key != "edge" else k
            if level > k:
                raise BadVertex(f"{where}: edge level {level} exceeds k={k}")
            verts = toks[1:]
            if len(verts) != level:
                raise BadVertex(f"{where}: edge lists {len(verts)} vertices, needs {level}")
            if len(set(verts)) != level:
                raise BadVertex(f"{where}: edge repeats a vertex")
            raw_edges.append((no, level, verts))
        else:
            raise BadVertex(f"{where}: unknown khg directive {key!r}")
    k = declared.get("k")
    if k is None or declared.get("parts") != len(labels):
        raise BadVertex("incomplete khg header (k/parts/part lines)")
    if len(set(names)) != len(names):
        raise BadVertex("duplicate vertex name")
    if k > len(names):
        raise BadVertex(f"k={k} exceeds the {len(names)} declared vertices")
    uni = VertexUniverse(tuple(labels), tuple(sizes))
    ids = {name: i for i, name in enumerate(names)}
    edges = {}
    for no, level, verts in raw_edges:
        try:
            edges.setdefault(level, []).append(tuple(map(ids.__getitem__, verts)))
        except KeyError as exc:
            raise BadVertex(f"line {no}: unknown vertex {exc.args[0]!r}") from None
    return uni, k, edges, names


def load_khg(path, close=True):
    """Load a KComplex (close=True) or validated-closed complex from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        uni, k, edges, _ = parse_khg(fh.read())
    return build_complex(edges, uni, k=k, close=close)


def load_khg_system(path) -> KSystem:
    """Load the file as a bare k-system (no closure computed or required)."""
    with open(path, "r", encoding="utf-8") as fh:
        uni, k, edges, _ = parse_khg(fh.read())
    return KSystem(uni, k, edges)


def dump_khg(system, include_lower=False) -> str:
    """Serialize a system to khg text. Only J_k is written unless asked."""
    uni = system.universe
    out = ["khg 1", f"k {system.k}", f"parts {uni.r}"]
    for j in range(uni.r):
        verts = " ".join(f"v{v}" for v in uni.part_vertices(j))
        out.append(f"part {uni.part_labels[j]} {uni.part_sizes[j]}: {verts}")
    if include_lower:
        for i in range(1, system.k):
            for e in sorted(system.level(i)):
                out.append(f"edge@{i} " + " ".join(f"v{v}" for v in e))
    for e in sorted(system.level(system.k)):
        out.append("edge " + " ".join(f"v{v}" for v in e))
    return "\n".join(out) + "\n"


def save_khg(system, path, include_lower=False):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_khg(system, include_lower=include_lower))
