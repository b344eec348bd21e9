"""Text format for hypergraph instances.

Layout:

    khg 1
    k 3
    parts 2
    part A 5: a1 a2 a3 a4 a5
    part B 3: b1 b2 b3
    edge a1 a2 b1
    edge@2 a1 a2          # optional explicit lower-level edges

Tokens are separated by any run of whitespace, tabs included, and `#`
starts a comment that runs to the end of its line. Lines may end in LF,
CRLF or CR; blank and comment-only lines are skipped. `khg 1` is the
first line with a token, `k` precedes every edge line, and `parts` and
`part` lines may come anywhere after `khg 1`. A part line may also be
spaced `part A 5 : a1 ...`.

Vertex tokens are opaque names mapped to dense integer ids in part order.
Plain `edge` lines are top-level k-edges; an edge may list its vertices in
any order and may be repeated.

The edge lines of each level are read, mapped and checked in bulk. Only a
failed bulk check reads the lines one by one, and that pass only raises:
the BadVertex names the first malformed line, as a line-by-line reader
would.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np

from .core import KComplex, KSystem, VertexUniverse, close_down, faces, row_codes
from .errors import BadVertex

# on text that starts each line with "\n": a line whose key is `edge` or
# `edge@...`, the key of each `edge@...` line, and every other line with a
# token, up to any comment
_EDGE_KEY = r"edge(?:@[^\s#]*)?(?![^\s#])"
_EDGE_LINE = re.compile(r"\n[^\S\n]*" + _EDGE_KEY)
_AT_KEY = re.compile(r"\n[^\S\n]*(edge@[^\s#]*)(?![^\s#])")
_DIRECTIVE = re.compile(r"\n[^\S\n]*(?!" + _EDGE_KEY + r")([^\s#][^#\n]*)")


def _edge_rows(keys, level):
    """A pattern matching every line with one of the keys: it captures the
    level's vertex names when the line lists exactly that many, else ''."""
    return re.compile(
        r"\n[^\S\n]*(?:" + "|".join(map(re.escape, keys)) + ")"
        + r"(?:" + r"[^\S\n]+([^\s#]+)" * level + r"[^\S\n]*(?:#.*)?$|(?![^\s#]))",
        re.M,
    )


def _positive_int(token: str, what: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise BadVertex(f"{where}: {what} {token!r} is not an integer") from None
    if value < 1:
        raise BadVertex(f"{where}: {what} must be at least 1, got {value}")
    return value


class _Header:
    """The directives other than edges, read in file order."""

    def __init__(self):
        self.declared = {}        # "k" and "parts" -> value
        self.labels, self.sizes, self.names = [], [], []

    def read(self, no, toks):
        key, where = toks[0], f"line {no}"
        if key in ("k", "parts"):
            if len(toks) != 2:
                raise BadVertex(f"{where}: '{key}' takes one value")
            if key in self.declared:
                raise BadVertex(f"{where}: '{key}' declared twice")
            self.declared[key] = _positive_int(toks[1], key, where)
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
            self.labels.append(label)
            self.sizes.append(size)
            self.names.extend(verts)
        else:
            raise BadVertex(f"{where}: unknown khg directive {key!r}")

    def universe(self):
        """(universe, k, vertex id of each name) once every line is read."""
        k = self.declared.get("k")
        if k is None or self.declared.get("parts") != len(self.labels):
            raise BadVertex("incomplete khg header (k/parts/part lines)")
        if len(set(self.names)) != len(self.names):
            raise BadVertex("duplicate vertex name")
        if k > len(self.names):
            raise BadVertex(f"k={k} exceeds the {len(self.names)} declared vertices")
        ids = {name: i for i, name in enumerate(self.names)}
        return VertexUniverse(tuple(self.labels), tuple(self.sizes)), k, ids


def _edge_level(key, k, where):
    """The level an edge key declares, at most k."""
    level = _positive_int(key[5:], "edge level", where) if key != "edge" else k
    if level > k:
        raise BadVertex(f"{where}: edge level {level} exceeds k={k}")
    return level


def _parse_bulk(text):
    """parse_khg's result with each level as an int array of sorted rows,
    or None when a check fails. The directive lines are read one by one,
    the edge lines one level at a time; a malformed edge line yields the
    name '', which no vertex has."""
    header = _Header()
    directives = _DIRECTIVE.finditer(text)
    first = next(directives, None)
    if first is None or first[1].split()[:2] != ["khg", "1"]:
        return None
    k_at = None
    for m in directives:
        toks = m[1].split()
        header.read(text.count("\n", 0, m.start()) + 1, toks)
        if toks[0] == "k":
            k_at = m.start()
    uni, k, ids = header.universe()
    if _EDGE_LINE.search(text, 0, k_at):
        return None
    keys = {k: ["edge"]}          # level -> its keys, e.g. "edge" and "edge@3"
    for key in set(_AT_KEY.findall(text)):
        keys.setdefault(_edge_level(key, k, ""), []).append(key)
    edges = {}
    for level, level_keys in sorted(keys.items()):
        rows = _edge_rows(level_keys, level).findall(text)
        flat = chain.from_iterable(rows) if level > 1 else rows
        verts = np.fromiter(map(ids.__getitem__, flat), np.int64, len(rows) * level)
        verts = verts.reshape(-1, level)
        verts.sort(axis=1)
        if (verts[:, 1:] == verts[:, :-1]).any():
            return None
        if rows:
            edges[level] = verts
    return uni, k, edges, header.names


def _raise_first_error(lines):
    """The line-by-line checks, run once a bulk check has failed: raise the
    BadVertex of the first malformed line, else of the header, else of the
    first unknown vertex."""
    content = [
        (no, toks) for no, line in enumerate(lines, 1)
        if (toks := line.partition("#")[0].split())
    ]
    if not content or content[0][1][:2] != ["khg", "1"]:
        raise BadVertex("missing 'khg 1' header")
    header = _Header()
    listed = []                   # (line, vertex names) of each edge line
    for no, toks in content[1:]:
        key, where = toks[0], f"line {no}"
        if key != "edge" and not key.startswith("edge@"):
            header.read(no, toks)
            continue
        k = header.declared.get("k")
        if k is None:
            raise BadVertex(f"{where}: edge before k declaration")
        level = _edge_level(key, k, where)
        verts = toks[1:]
        if len(verts) != level:
            raise BadVertex(f"{where}: edge lists {len(verts)} vertices, needs {level}")
        if len(set(verts)) != level:
            raise BadVertex(f"{where}: edge repeats a vertex")
        listed.append((no, verts))
    _, _, ids = header.universe()
    for no, verts in listed:
        for name in verts:
            if name not in ids:
                raise BadVertex(f"line {no}: unknown vertex {name!r}")
    raise AssertionError("the bulk checks rejected a file the line checks accept")


def _parse(text):
    """parse_khg's result with each level as an int array of sorted rows."""
    lines = text.splitlines()
    try:
        parsed = _parse_bulk("\n" + "\n".join(lines))
    except (BadVertex, KeyError):
        parsed = None
    if parsed is None:
        _raise_first_error(lines)
    return parsed


def _tuples(arrays):
    return {level: list(zip(*rows.T.tolist())) for level, rows in arrays.items()}


def parse_khg(text: str):
    """Parse khg text into (universe, k, leveled edges, vertex name list).

    Each level's edges are sorted id tuples in file order. Every malformed
    directive raises BadVertex naming its line.
    """
    uni, k, arrays, names = _parse(text)
    return uni, k, _tuples(arrays), names


def load_khg(path, close=True):
    """Load a KComplex (close=True) or validated-closed complex from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        uni, k, arrays, _ = _parse(fh.read())
    edges = _tuples(arrays)
    if not close:
        return KComplex(uni, k, edges)
    # does every level the file lists hold all faces of the level above it?
    n = uni.total
    closed = all(
        i not in arrays or i - 1 in arrays
        and np.isin(row_codes(faces(arrays[i]), n), row_codes(arrays[i - 1], n)).all()
        for i in range(2, k + 1)
    )
    levels = close_down(edges, k, closed=closed)
    return KComplex._of_levels(uni, k, levels, frozenset(uni.vertices()))


def load_khg_system(path) -> KSystem:
    """Load the file as a bare k-system (no closure computed or required)."""
    with open(path, "r", encoding="utf-8") as fh:
        return KSystem(*parse_khg(fh.read())[:3])


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
