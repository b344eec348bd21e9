"""Text-format round trips and parse failures."""

import os
import random
import tempfile
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch.khg
from kmatch.core import VertexUniverse, build_complex, close_down
from kmatch.errors import BadVertex, KmatchError
from kmatch.khg import dump_khg, load_khg, load_khg_system, parse_khg, save_khg
from kmatch.oracle import gen_divisibility_barrier, gen_random_dense, gen_space_barrier


def test_roundtrip(tmp_path):
    cx = gen_space_barrier(8, 3, 1, 3)
    path = tmp_path / "sb.khg"
    save_khg(cx, path)
    back = load_khg(path)
    assert back.level(3) == cx.level(3)
    assert back.universe.part_sizes == cx.universe.part_sizes


def test_roundtrip_with_lower_levels(tmp_path):
    cx = gen_space_barrier(6, 3, 1, 2)
    path = tmp_path / "sb.khg"
    save_khg(cx, path, include_lower=True)
    back = load_khg(path, close=False)  # explicit levels must validate closure
    assert back.level(2) == cx.level(2)


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
    assert edges[3] == [(0, 1, 2)]


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
    back = load_khg_system(path)
    assert back.level(3) == H.level(3)
    assert back.universe.part_labels == ("A", "B")


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 10 ** 6), max_size=25),
    seed=st.integers(0, 10 ** 6),
)
def test_messy_khg_loads_like_build_complex(picks, seed):
    # unsorted vertices inside lines, shuffled lines, comments, blank and
    # repeated edges: the loaded levels equal build_complex on the edges in
    # the order the file lists them, and iterate in the same order
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
    assert all(list(loaded.level(i)) == list(expected.level(i)) for i in range(4))


@pytest.mark.parametrize("lower, drop_face, k", [
    (False, False, 3), (True, False, 3), (True, True, 3),
    (False, False, 4), (True, False, 4), (True, True, 4),
])
def test_load_khg_levels_iterate_as_close_down_builds(tmp_path, monkeypatch, lower, drop_face, k):
    # a file that lists every face of each level skips close_down's update;
    # any other file runs it. Either way each level iterates in its order
    cx = gen_random_dense(16, k, p=0.7, seed=11)
    lines = dump_khg(cx, include_lower=lower).splitlines()
    if drop_face:  # one lower face deleted by hand
        lines.remove(next(line for line in lines if line.startswith(f"edge@{k - 1} ")))
    text = "\n".join(lines) + "\n"
    path = tmp_path / "host.khg"
    path.write_text(text)
    _, _, edges, _ = parse_khg(text)
    want = close_down(edges, k)
    skipped = []
    monkeypatch.setattr(kmatch.khg, "close_down",
                        lambda edges, k, closed: skipped.append(closed) or close_down(edges, k, closed))
    loaded = load_khg(path)
    assert skipped == [lower and not drop_face]
    assert [list(loaded.level(i)) for i in range(k + 1)] == [list(want[i]) for i in range(k + 1)]
    assert loaded.levels == cx.levels


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
    assert all(list(a.level(i)) == list(b.level(i)) for i in range(4))


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
    st.text(alphabet="kpaedg @:#12x-\t", max_size=12),
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
