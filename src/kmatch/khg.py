r"""Text format for hypergraph instances.

Layout:

    khg 1
    k 3
    parts 2
    part A 5: a1 a2 a3 a4 a5
    part B 3: b1 b2 b3
    edge a1 a2 b1
    edge@2 a1 a2          # optional explicit lower-level edges

The text is read as `line.partition("#")[0].split()` over
`text.splitlines()`: tokens are separated by any run of whitespace, ASCII
or not, `#` starts a comment that runs to the end of its line, and a line
ends at LF, CRLF, a lone CR or any other break str.splitlines knows
(\x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029). Blank and comment-only
lines are skipped. `khg 1` is the first line with a token, `k` precedes
every edge line, and `parts` and `part` lines may come anywhere after
`khg 1`. A part line may also be spaced `part A 5 : a1 ...`.

Vertex tokens are opaque names of any length, NUL bytes included, mapped
to dense integer ids in part order. Plain `edge` lines are top-level
k-edges; an edge may list its vertices in any order and may be repeated.
A loaded host holds each level as sorted distinct rows, so it, and every
output read off it, is the same for any order of the edge lines.

The reader is one numpy pass over the UTF-8 bytes (non-ASCII whitespace
mapped onto ASCII first): a byte-class table finds the tokens, the line
breaks and the `#`s, and a token starts its line when a line break comes
right before it. Each token is packed, with its length, into little-endian
uint64 words read through a stride-1 view of the padded bytes, and one
searchsorted against the header names, packed the same way, maps every
vertex token to its id. Only the directive lines and the distinct `edge@`
keys become Python strings. When a bulk check fails, the lines are read
one by one, and that pass only raises: the BadVertex names the first
malformed line, as a line-by-line reader would.
"""

from __future__ import annotations

import numpy as np

from .core import KComplex, VertexUniverse, close_down
from .errors import BadVertex

# the non-ASCII characters str.split splits at, as ASCII: the ones
# str.splitlines also splits at become "\n", the others " "
_TO_ASCII = str.maketrans(
    dict.fromkeys("\x85\u2028\u2029", "\n")
    | dict.fromkeys("\xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200B))), " ")
)
# the class of each UTF-8 byte: part of a token, a separator, a line break
# or the "#" that opens a comment
_TOKEN, _SPACE, _BREAK, _HASH = range(4)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[list(b"\t\x1f ")] = _SPACE
_CLASS[list(b"\n\x0b\x0c\r\x1c\x1d\x1e")] = _BREAK
_CLASS[ord("#")] = _HASH
_LOW = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=np.uint64)  # the low i bytes
# a one-word key's top byte: its length, or 0xFF from 8 bytes on
_TOP = np.array([n << 56 for n in range(8)] + [0xFF << 56], dtype=np.uint64)
_EDGE, _EDGE_AT = (np.uint64(int.from_bytes(key, "little")) for key in (b"edge", b"edge@"))


def _tokenize(text):
    """The tokens of `line.partition("#")[0].split()` over
    `text.splitlines()`, as arrays: (the UTF-8 bytes of a line break, the
    text and a line break, padded with 8 zeros; the little-endian uint64
    word at each byte offset; each token's start and end; whether it is the
    first token of its line)."""
    if not text.isascii():
        text = text.translate(_TO_ASCII)
    raw = b"".join((b"\n", text.encode("utf-8", "surrogatepass"), b"\n", bytes(8)))
    cls = _CLASS.take(np.frombuffer(raw, dtype=np.uint8)[:-8])
    # index it, never take(): take copies the whole strided view first
    words = np.ndarray((len(cls) + 1,), "<u8", raw, 0, (1,))
    in_token = cls == _TOKEN
    bounds = (in_token[1:] != in_token[:-1]).nonzero()[0] + 1
    start, end = bounds[0::2], bounds[1::2]
    event = cls >= _BREAK
    event[start] = True
    kind = cls.take(event.nonzero()[0])  # of each token start, line break and "#", in byte order
    is_break = kind == _BREAK
    # a kept token starts its line exactly when a line break comes right before it
    first = is_break[:-1][kind[1:] == _TOKEN]
    if b"#" in raw:  # drop each token after a "#" on its line
        seen = np.cumsum(kind == _HASH)
        kept = (seen == np.maximum.accumulate(np.where(is_break, seen, 0)))[kind == _TOKEN]
        start, end, first = start[kept], end[kept], first[kept]
    return raw, words, start, end, first


def _keys(words, start, length, width):
    """One key per token, equal for two tokens shorter than 8 * width bytes
    exactly when the tokens are; a longer token's key is no shorter token's.
    Width 1 gives uint64 codes, the bytes with the length in the top byte
    (0xFF from 8 bytes on); a larger width gives void items of width + 1
    uint64s, the length and then the bytes, zero past the token's end."""
    if width == 1:
        n = np.minimum(length, 8)
        return words[start] & _LOW.take(np.minimum(n, 7)) | _TOP.take(n)
    rows = np.empty((len(start), width + 1), dtype=np.uint64)
    rows[:, 0] = length
    for j in range(width):
        at = np.minimum(start + 8 * j, len(words) - 1)
        rows[:, j + 1] = words[at] & _LOW.take(np.clip(length - 8 * j, 0, 8))
    return rows.view(np.dtype((np.void, 8 * width + 8))).ravel()


def _lookup(keys, queries):
    """Per query, the index of the first key equal to it, else -1."""
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    at = np.searchsorted(keys, queries)
    return np.where(keys.take(at, mode="clip") == queries, order.take(at, mode="clip"), -1)


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
        """(universe, k) once every line is read."""
        k = self.declared.get("k")
        if k is None or self.declared.get("parts") != len(self.labels):
            raise BadVertex("incomplete khg header (k/parts/part lines)")
        if len(set(self.names)) != len(self.names):
            raise BadVertex("duplicate vertex name")
        if k > len(self.names):
            raise BadVertex(f"k={k} exceeds the {len(self.names)} declared vertices")
        return VertexUniverse(tuple(self.labels), tuple(self.sizes)), k


def _edge_level(key, k, where):
    """The level an edge key declares, at most k."""
    level = _positive_int(key[5:], "edge level", where) if key != "edge" else k
    if level > k:
        raise BadVertex(f"{where}: edge level {level} exceeds k={k}")
    return level


def _parse_bulk(text):
    """parse_khg's result, or None when a check fails. The directive lines
    are read one by one, the edge lines all at once."""
    raw, words, start, end, is_key = _tokenize(text)
    first = is_key.nonzero()[0]  # the key token of each line with a token
    if not len(first):
        return None
    stop = np.append(first[1:], len(start))
    line_start, line_end, length = start.take(first), end.take(stop - 1), end - start

    def tokens(i):
        return raw[line_start[i]:line_end[i]].decode("utf-8", "surrogatepass").split()

    if tokens(0)[:2] != ["khg", "1"]:
        return None
    key_length, key_word = length.take(first), words[line_start]
    is_at = key_word & _LOW[5] == _EDGE_AT  # "@" is a token byte: such a key has 5 bytes or more
    is_edge = is_at | (key_length == 4) & (key_word & _LOW[4] == _EDGE)
    header, k_at, names = _Header(), None, []
    for i in ((~is_edge[1:]).nonzero()[0] + 1).tolist():
        toks = tokens(i)
        header.read(i, toks)  # a failed check is raised again with its line
        if toks[0] == "k":
            k_at = i
        elif toks[0] == "part":  # its names are its last tokens
            names.extend(range(int(stop[i]) - header.sizes[-1], int(stop[i])))
    uni, k = header.universe()
    if is_edge[:k_at].any():
        return None
    level = np.where(is_edge, k, 0)  # of each line, 0 on directive lines
    at = is_at.nonzero()[0]
    if len(at):
        keys = _keys(words, line_start.take(at), key_length.take(at), int(key_length.take(at).max()) // 8 + 1)
        same = _lookup(keys, keys)
        distinct = (same == np.arange(len(at))).nonzero()[0]
        levels = np.zeros(len(at), dtype=np.int64)
        levels[distinct] = [_edge_level(tokens(i)[0], k, "") for i in at.take(distinct).tolist()]
        level[at] = levels.take(same)
    if (is_edge & (stop - first - 1 != level)).any():
        return None
    per_token = level.take(np.cumsum(is_key) - 1)  # the level of each vertex token, else 0
    per_token[first] = 0
    verts = per_token.nonzero()[0]
    names = np.array(names, dtype=np.int64)
    mapped = np.concatenate((names, verts))  # the header names, then the vertex tokens
    keys = _keys(words, start.take(mapped), length.take(mapped), int(length.take(names).max()) // 8 + 1)
    ids = _lookup(keys[:len(names)], keys[len(names):])
    if len(ids) and ids.min() < 0:
        return None
    per_vert = per_token.take(verts)
    edges = {}
    for lv in np.bincount(per_vert).nonzero()[0].tolist():
        rows = ids[per_vert == lv].reshape(-1, lv)
        rows.sort(axis=1)
        if (rows[:, 1:] == rows[:, :-1]).any():
            return None
        edges[lv] = rows
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
    header.universe()
    known = set(header.names)
    for no, verts in listed:
        for name in verts:
            if name not in known:
                raise BadVertex(f"line {no}: unknown vertex {name!r}")
    raise AssertionError("the bulk checks rejected a file the line checks accept")


def parse_khg(text: str):
    """Parse khg text into (universe, k, leveled edges, vertex name list).

    Each level's edges are int64 rows of sorted ids, in file order. Every
    malformed directive raises BadVertex naming its line.
    """
    try:
        parsed = _parse_bulk(text)
    except BadVertex:
        parsed = None
    if parsed is None:
        _raise_first_error(text.splitlines())
    return parsed


def load_khg(path, close=True):
    """Load a KComplex (close=True) or validated-closed complex from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        uni, k, edges, _ = parse_khg(fh.read())
    return close_down(uni, k, edges) if close else KComplex(uni, k, edges)


def dump_khg(system, include_lower=False) -> str:
    """Serialize a system to khg text. Only J_k is written unless asked."""
    uni = system.universe
    out = ["khg 1", f"k {system.k}", f"parts {uni.r}"]
    for j in range(uni.r):
        verts = " ".join(f"v{v}" for v in uni.part_vertices(j))
        out.append(f"part {uni.part_labels[j]} {uni.part_sizes[j]}: {verts}")
    for i in range(1 if include_lower else system.k, system.k + 1):
        key = "edge" if i == system.k else f"edge@{i}"
        for e in system.level(i).tolist():
            out.append(f"{key} " + " ".join(f"v{v}" for v in e))
    return "\n".join(out) + "\n"


def save_khg(system, path, include_lower=False):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_khg(system, include_lower=include_lower))
