"""Text-format round trips and parse failures."""

import os
import random
import sys
import tempfile
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch.khg
from kmatch.core import KSystem, VertexUniverse, build_complex, close_down
from kmatch.errors import BadVertex, KmatchError
from kmatch.khg import dump_khg, load_khg, parse_khg, save_khg
from kmatch.oracle import gen_divisibility_barrier, gen_random_dense, gen_space_barrier


def test_roundtrip(tmp_path):
    cx = gen_space_barrier(8, 3, 1, 3)
    path = tmp_path / "sb.khg"
    save_khg(cx, path)
    back = load_khg(path)
    assert back.level(3).tolist() == cx.level(3).tolist()
    assert back.universe.part_sizes == cx.universe.part_sizes


def test_roundtrip_with_lower_levels(tmp_path):
    cx = gen_space_barrier(6, 3, 1, 2)
    path = tmp_path / "sb.khg"
    save_khg(cx, path, include_lower=True)
    back = load_khg(path, close=False)  # explicit levels must validate closure
    assert back.level(2).tolist() == cx.level(2).tolist()


def test_parse_comments_and_names():
    text = """# a tiny instance
khg 1
k 3
parts 2
part A 2: a1 a2   # first part
part B 2: b1 b2
edge a1 a2 b1
"""
    uni, k, edges, names = parse_khg(text)
    assert k == 3 and uni.r == 2
    assert names == ["a1", "a2", "b1", "b2"]
    assert edges[3].tolist() == [[0, 1, 2]]


def test_parse_errors():
    with pytest.raises(BadVertex):
        parse_khg("k 3\nparts 1\n")  # missing header
    with pytest.raises(BadVertex):
        parse_khg("khg 1\nk 3\nparts 1\npart A 2: v1\n")  # size mismatch
    with pytest.raises(BadVertex):
        parse_khg("khg 1\nk 3\nparts 1\npart A 1: v1\nedge v1 v2 v3\n")


def test_partite_roundtrip(tmp_path):
    H = gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)])
    path = tmp_path / "div.khg"
    save_khg(H, path)
    with open(path, encoding="utf-8") as fh:
        back = KSystem(*parse_khg(fh.read())[:3])
    assert back.level(3).tolist() == H.level(3).tolist()
    assert back.universe.part_labels == ("A", "B")


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 10 ** 6), max_size=25),
    seed=st.integers(0, 10 ** 6),
)
def test_messy_khg_loads_like_build_complex(picks, seed):
    # unsorted vertices inside lines, shuffled lines, comments, blank and
    # repeated edges: the loaded levels equal build_complex on the edges in
    # the order the file lists them
    rng = random.Random(seed)
    names = ["b2", "a1", "c3", "a0", "z9", "m5", "k7"]
    cands = list(combinations(range(7), 3))
    edges = [cands[i % len(cands)] for i in picks]
    body = [("# a comment line", None), ("", None), ("edge@2 " + " ".join(names[5:3:-1]), (4, 5))]
    for e in edges + edges[: len(edges) // 2]:
        verts = [names[v] for v in e]
        rng.shuffle(verts)
        body.append(("edge " + " ".join(verts) + rng.choice(["", "  # note", "\t#"]), e))
    body.append(("parts 2", None))
    rng.shuffle(body)
    listed = {3: [], 2: []}
    for _, e in body:
        if e is not None:
            listed[len(e)].append(e)
    lines = [line for line, _ in body]
    # part lines go anywhere after k, in part order
    at_a, at_b = sorted(rng.randint(0, len(lines)) for _ in range(2))
    lines.insert(at_b, "part B 3 : " + " ".join(names[4:]))
    lines.insert(at_a, "part A 4: " + " ".join(names[:4]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "messy.khg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(["khg 1", "  # header comment", "k 3"] + lines) + "\n")
        loaded = load_khg(path)
    uni = VertexUniverse(("A", "B"), (4, 3))
    expected = build_complex(listed, uni, k=3)
    assert loaded.universe == uni
    assert all(loaded.level(i).tolist() == expected.level(i).tolist() for i in range(4))


@pytest.mark.parametrize("lower, drop_face, k", [
    (False, False, 3), (True, False, 3), (True, True, 3),
    (False, False, 4), (True, False, 4), (True, True, 4),
])
def test_load_khg_levels_iterate_as_close_down_builds(tmp_path, lower, drop_face, k):
    # with or without its lower levels, and with a lower face missing, a
    # file loads to close_down's levels: sorted, distinct rows, and the
    # levels of the complex it was written from
    cx = gen_random_dense(16, k, p=0.7, seed=11)
    lines = dump_khg(cx, include_lower=lower).splitlines()
    if drop_face:  # one lower face deleted by hand
        lines.remove(next(line for line in lines if line.startswith(f"edge@{k - 1} ")))
    text = "\n".join(lines) + "\n"
    path = tmp_path / "host.khg"
    path.write_text(text)
    uni, _, edges, _ = parse_khg(text)
    want = close_down(uni, k, edges)
    loaded = load_khg(path)
    for i in range(k + 1):
        rows = list(map(tuple, loaded.level(i).tolist()))
        assert rows == sorted(set(map(tuple, map(sorted, rows))))
        assert loaded.level(i).tolist() == want.level(i).tolist() == cx.level(i).tolist()


_HEAD = "khg 1\nk 3\nparts 1\npart A 4: a b c d\n"


@pytest.mark.parametrize("text, message", [
    (_HEAD + "edge a b c\nedge a b z\n", "line 6: unknown vertex 'z'"),
    (_HEAD + "edge a b a\n", "line 5: edge repeats a vertex"),
    (_HEAD + "edge a b c\nedge a b\n", "line 6: edge lists 2 vertices, needs 3"),
    ("khg 1\nedge a b c\nk 3\nparts 1\npart A 4: a b c d\n",
     "line 2: edge before k declaration"),
    (_HEAD + "edge@4 a b c d\n", "line 5: edge level 4 exceeds k=3"),
    (_HEAD + "vertex e\n", "line 5: unknown khg directive 'vertex'"),
    ("khg 1\nk 3\nparts 1\npart A 4: a b c a\n", "duplicate vertex name"),
    # the first malformed line is named, whatever follows it
    (_HEAD + "edge a b c\nedge a b\nvertex e\nedge a a b\n",
     "line 6: edge lists 2 vertices, needs 3"),
    (_HEAD + "edge a b z\nedge@2 a a\n", "line 6: edge repeats a vertex"),
    # blank and comment lines count, and so do CRLF line ends
    ("khg 1\r\n# c\r\n\r\nk 3\r\nparts 1\r\npart A 4: a b c d\r\nedge\ta b\r\n",
     "line 7: edge lists 2 vertices, needs 3"),
])
def test_malformed_khg_names_the_first_bad_line(text, message):
    with pytest.raises(BadVertex) as caught:
        parse_khg(text)
    assert str(caught.value) == message


def test_crlf_tabs_and_comments_load_like_the_clean_file(tmp_path):
    # a dense n=30 file, rewritten with CRLF line ends, tabs between the
    # tokens and a trailing comment on every line, loads to the same levels
    # in the same order
    cx = gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=1001)
    clean = tmp_path / "clean.khg"
    save_khg(cx, clean, include_lower=True)
    messy = tmp_path / "messy.khg"
    lines = clean.read_text(encoding="utf-8").splitlines()
    with open(messy, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line.replace(" ", "\t") + "\t# note\r\n" for line in lines))
    a, b = load_khg(clean), load_khg(messy)
    assert b"\r\n" in messy.read_bytes()
    assert a.universe == b.universe
    assert all(a.level(i).tolist() == b.level(i).tolist() for i in range(4))


_NAMES = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "x"]), max_size=5)
_NUMBERS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "x", "2.5", "99"])
_LINES = st.one_of(
    st.builds("k {}".format, _NUMBERS),
    st.builds("parts {}".format, _NUMBERS),
    st.builds(
        lambda label, size, names: f"part {label} {size}: {' '.join(names)}",
        st.sampled_from(["A", "B"]), _NUMBERS, _NAMES,
    ),
    st.builds(
        lambda key, names: " ".join([key, *names]),
        st.sampled_from(["edge", "edge@1", "edge@2", "edge@0", "edge@x", "edgy"]), _NAMES,
    ),
    # with the separators and line breaks, ASCII or not, that str.split and
    # str.splitlines know, lone CR and NUL
    st.text(alphabet="kpaedg @:#12x-\t\r\x0b\x0c\x1c\x1d\x1e\x1f\x00\x85\xa0\u2028\u2029\u3000é",
            max_size=12),
)


_VALID = ["k 3", "parts 2", "part A 3: a b c", "part B 3: d e f",
          "edge a b d", "edge c e f", "edge@2 a b"]


@settings(max_examples=300, deadline=None)
@given(
    header=st.sampled_from([True, True, True, False]),
    drop=st.lists(st.integers(0, len(_VALID) - 1), max_size=2),
    extra=st.lists(st.tuples(st.integers(0, len(_VALID)), _LINES), max_size=2),
    close=st.booleans(),
)
def test_load_khg_raises_only_kmatch_errors(header, drop, extra, close):
    # a valid instance with some lines dropped and a few random ones inserted
    lines = [line for i, line in enumerate(_VALID) if i not in drop]
    for at, line in extra:
        lines.insert(at, line)
    text = "\n".join((["khg 1"] if header else []) + lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.khg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            load_khg(path, close=close)
        except KmatchError:
            pass


def _reference_parse(text):
    """parse_khg's levels and names, read line by line with str.splitlines
    and str.split, or a BadVertex naming the first bad line, else the bad
    header, else the first unknown vertex."""
    content = [(no, toks) for no, line in enumerate(text.splitlines(), 1)
               if (toks := line.partition("#")[0].split())]
    if not content or content[0][1][:2] != ["khg", "1"]:
        raise BadVertex("missing 'khg 1' header")

    def positive(token, what, where):
        try:
            value = int(token)
        except ValueError:
            raise BadVertex(f"{where}: {what} {token!r} is not an integer") from None
        if value < 1:
            raise BadVertex(f"{where}: {what} must be at least 1, got {value}")
        return value

    declared, labels, names, listed = {}, [], [], []
    for no, toks in content[1:]:
        key, where = toks[0], f"line {no}"
        if key == "edge" or key.startswith("edge@"):
            if "k" not in declared:
                raise BadVertex(f"{where}: edge before k declaration")
            k = declared["k"]
            level = k if key == "edge" else positive(key[5:], "edge level", where)
            if level > k:
                raise BadVertex(f"{where}: edge level {level} exceeds k={k}")
            if len(toks) - 1 != level:
                raise BadVertex(f"{where}: edge lists {len(toks) - 1} vertices, needs {level}")
            if len(set(toks[1:])) != level:
                raise BadVertex(f"{where}: edge repeats a vertex")
            listed.append((no, toks[1:]))
        elif key in ("k", "parts"):
            if len(toks) != 2:
                raise BadVertex(f"{where}: '{key}' takes one value")
            if key in declared:
                raise BadVertex(f"{where}: '{key}' declared twice")
            declared[key] = positive(toks[1], key, where)
        elif key == "part":
            if len(toks) < 2:
                raise BadVertex(f"{where}: part line without a label")
            if len(toks) > 2 and toks[2].endswith(":"):
                size, verts = toks[2][:-1], toks[3:]
            elif len(toks) > 3 and toks[3] == ":":
                size, verts = toks[2], toks[4:]
            else:
                raise BadVertex(f"{where}: malformed part line for {toks[1]!r}")
            size = positive(size, "part size", where)
            if len(verts) != size:
                raise BadVertex(f"{where}: part {toks[1]} declares {size} vertices, lists {len(verts)}")
            labels.append(toks[1])
            names += verts
        else:
            raise BadVertex(f"{where}: unknown khg directive {key!r}")
    if "k" not in declared or declared.get("parts") != len(labels):
        raise BadVertex("incomplete khg header (k/parts/part lines)")
    if len(set(names)) != len(names):
        raise BadVertex("duplicate vertex name")
    if declared["k"] > len(names):
        raise BadVertex(f"k={declared['k']} exceeds the {len(names)} declared vertices")
    ids = {name: i for i, name in enumerate(names)}
    levels = {}
    for no, verts in listed:
        for name in verts:
            if name not in ids:
                raise BadVertex(f"line {no}: unknown vertex {name!r}")
        levels.setdefault(len(verts), []).append(tuple(sorted(map(ids.__getitem__, verts))))
    return dict(sorted(levels.items())), names


# names past one and two 8-byte words, names that share their first 8 bytes
# or differ only in trailing NULs, non-ASCII and key-like names
_ODD_NAMES = ["a", "v1", "abcdefgh", "abcdefghij", "abcdefghXY", "x" * 16, "x" * 17,
              "n", "n\x00", "n\x00\x00", "\x00", "é", "ünïé", "edge", "edge@2", "k", "part"]
# names of at most 8 bytes, two of them exactly 8
_SHORT_NAMES = ["a", "b", "v1", "abcdefgh", "abcdefgQ", "n", "n\x00", "k", "edge"]
# what str.split and str.splitlines split at, ASCII or not
_SEPARATORS = [" ", "\t", "\x1f", "\xa0", "\u2003", "\u3000", " \t "]
_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029", "\n\r", "\r\r\n"]
_ODD_KEYS = ["edge@3", "edge@0", "edge@", "edge@x", "edgy", "k", "part"]


@st.composite
def _odd_khg(draw):
    """A khg text over odd names, separators and line ends: valid more
    often than not, with some lines broken by hand."""
    family = draw(st.sampled_from([_ODD_NAMES, _SHORT_NAMES]))
    names = draw(st.lists(st.sampled_from(family), min_size=1, max_size=8, unique=True))
    k = draw(st.integers(1, 3))
    cut = draw(st.integers(0, len(names)))
    parts = [p for p in (names[:cut], names[cut:]) if p]
    lines = [["khg", "1"], ["k", str(k)], ["parts", str(len(parts))]]
    for label, part in zip("AB", parts):
        size = [f"{len(part)}:"] if draw(st.booleans()) else [str(len(part)), ":"]
        lines.append(["part", label, *size, *part])
    # tokens that differ from a name only past its end, in its last byte or
    # past its first 8 bytes
    near = [m for n in names for m in (n + "\x00", n[:-1], n + "x", n[:8] + "Q" + n[9:]) if m not in names]
    for _ in range(draw(st.integers(0, 8))):
        level = draw(st.integers(1, k))
        key = draw(st.sampled_from(["edge" if level == k else f"edge@{level}",
                                    f"edge@{level}", f"edge@0{level}"]))
        if draw(st.integers(0, 9)) == 0:
            key = draw(st.sampled_from(_ODD_KEYS))
        count = level if draw(st.integers(0, 9)) else draw(st.integers(0, 4))
        unique = count <= len(names) and draw(st.integers(0, 9)) > 0
        verts = draw(st.lists(st.sampled_from(names), min_size=count, max_size=count, unique=unique))
        if verts and near and draw(st.integers(0, 4)) == 0:
            verts[draw(st.integers(0, count - 1))] = draw(st.sampled_from(near))
        lines.append([key, *verts])
    if draw(st.integers(0, 9)) == 0:  # one line moved
        at, to = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        lines.insert(to, lines.pop(at))
    out = []
    for toks in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "   ", "# note", "\t#", "#\x00x"])))
        text = draw(st.sampled_from(["", " ", "\xa0"]))
        for tok in toks:
            text += tok + draw(st.sampled_from(_SEPARATORS))
        if draw(st.booleans()):
            text += draw(st.sampled_from(["#", "# a b", "#edge a\x1f", "##"]))
        out.append(text)
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(out), max_size=len(out)))
    return "".join(line + end for line, end in zip(out, ends))


@settings(max_examples=500, deadline=None)
@given(text=_odd_khg())
def test_parse_khg_agrees_with_a_line_by_line_reader(text):
    # the same levels in the same order and the same names, or the same
    # BadVertex message
    try:
        want = _reference_parse(text)
    except BadVertex as error:
        with pytest.raises(BadVertex) as caught:
            parse_khg(text)
        assert str(caught.value) == str(error)
        return
    _, _, edges, names = parse_khg(text)
    assert ({i: list(map(tuple, rows.tolist())) for i, rows in edges.items()}, names) == want
    assert list(edges) == list(want[0])


def test_non_ascii_separators_are_the_ones_str_split_splits_at():
    # every non-ASCII character str.split splits at becomes ASCII: "\n" if
    # str.splitlines also splits at it, else " "; no other character changes
    table = kmatch.khg._TO_ASCII
    for c in range(0x80, sys.maxunicode + 1):
        ch = chr(c)
        if ch.isspace():
            assert table[c] == ("\n" if len(f"a{ch}b".splitlines()) == 2 else " "), hex(c)
        else:
            assert c not in table, hex(c)
