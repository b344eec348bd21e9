"""Command-line surface: exit codes, JSON output, reproducibility."""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kmatch.cli import build_parser, main
from kmatch.core import KSystem, VertexUniverse, allocation_from_index_multiset, build_complex
from kmatch.khg import save_khg
from kmatch.oracle import (
    GenSpec,
    brute_force_pm,
    gen_divisibility_barrier,
    gen_random_dense,
    gen_space_barrier,
)


@pytest.fixture()
def instances(tmp_path):
    paths = {}
    save_khg(gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]), tmp_path / "div.khg")
    paths["div"] = str(tmp_path / "div.khg")
    save_khg(gen_space_barrier(12, 3, 1, 5), tmp_path / "space.khg")
    paths["space"] = str(tmp_path / "space.khg")
    save_khg(gen_random_dense(12, 3, p=0.9, seed=5), tmp_path / "dense.khg")
    paths["dense"] = str(tmp_path / "dense.khg")
    spec = {"kind": "space-barrier", "n": 9, "k": 3, "params": {"j": 1, "s_size": 4}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    paths["spec"] = str(tmp_path / "spec.json")
    paths["tmp"] = str(tmp_path)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_decide_exit_codes(instances, capsys):
    code, out = run_cli(capsys, "decide", instances["div"], "--json", "--seed", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["tag"] == "DivisibilityBarrier"
    assert blob["diagnostics"]["reverified"] is True

    code, out = run_cli(capsys, "decide", instances["dense"], "--json", "--seed", "3")
    assert code == 0
    assert json.loads(out)["tag"] == "PerfectMatching"


def test_match_space_barrier(instances, capsys):
    code, out = run_cli(capsys, "match", instances["space"], "--json", "--seed", "2")
    blob = json.loads(out)
    assert blob["tag"] in ("SpaceBarrier", "Inconclusive")
    assert code == (0 if blob["tag"] == "SpaceBarrier" else 2)


def test_frac_command(instances, capsys):
    code, out = run_cli(capsys, "frac", instances["dense"], "--ell", "3", "--json", "--seed", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["completed"] and blob["extracted"] == 3 and blob["all_exact"]


def test_frac_flattens_a_two_part_host_under_the_plain_allocation(tmp_path, capsys):
    # through the host view the greedy's quota is keyed by the edges' own
    # one-part index vector, so every round is a perfect matching of n/k
    # edges; the host has two parts of 12 vertices
    save_khg(gen_random_dense(12, 3, r=2, p=0.9, seed=1), tmp_path / "two.khg")
    code, out = run_cli(capsys, "frac", str(tmp_path / "two.khg"), "--ell", "4", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["all_exact"]
    assert blob["supports"] == [24 // 3] * 4


def test_one_parser_leaks_no_options_between_calls(instances, capsys):
    # main reuses one parser per process; flags of one call must not stay set
    # for the next
    assert build_parser() is build_parser()
    _, out = run_cli(capsys, "frac", instances["dense"], "--ell", "1", "--json", "--weights")
    assert "matchings" in json.loads(out)
    _, out = run_cli(capsys, "frac", instances["dense"], "--ell", "1", "--json")
    assert "matchings" not in json.loads(out)
    _, out = run_cli(capsys, "decide", instances["div"], "--json", "--no-verify")
    assert "reverified" not in json.loads(out)["diagnostics"]
    _, out = run_cli(capsys, "decide", instances["div"], "--json")
    assert json.loads(out)["diagnostics"]["reverified"] is True


def test_barriers_command(instances, capsys):
    code, out = run_cli(capsys, "barriers", instances["div"], "--json")
    assert code == 0
    assert "divisibility" in json.loads(out)["found"]
    code, out = run_cli(capsys, "barriers", instances["dense"], "--json")
    blob = json.loads(out)
    if blob["found"]:
        assert code == 0
    else:
        assert code == 2


def _barrier_agreement_cases():
    # the 25 divisibility instances of criterion 9, with its seeds (their
    # places 75-99 in the mixture), and two shapes of 13 and 15 vertices
    shapes = [(5, 3), (4, 4), (6, 3), (3, 3), (5, 4), (6, 4), (7, 3), (4, 3)]
    gens = [[(1, 2), (3, 0)], [(2, 1), (0, 3)]]
    cases = [(shapes[i % 8], gens[i % 2], 75 + i) for i in range(25)]
    cases += [((7, 6), gens[0], 1), ((9, 6), gens[1], 2)]
    return [pytest.param(*case, id=f"{case[0][0]}x{case[0][1]}-seed{case[2]}") for case in cases]


@pytest.mark.parametrize("sizes, gens, seed", _barrier_agreement_cases())
def test_barriers_reports_the_barrier_decide_returns(tmp_path, capsys, sizes, gens, seed):
    path = str(tmp_path / "div.khg")
    host = gen_divisibility_barrier(list(sizes), 3, gens)
    save_khg(host, path, include_lower=True)
    _, out = run_cli(capsys, "decide", path, "--json", "--seed", str(seed))
    cert = json.loads(out)
    code, out = run_cli(capsys, "barriers", path, "--json", "--seed", str(seed))
    found = json.loads(out)["found"]
    kind = {"SpaceBarrier": "space", "DivisibilityBarrier": "divisibility"}.get(cert["tag"])
    if cert["tag"] == "PerfectMatching":
        # decide's exact search runs before any barrier stage, so a barrier
        # that does not block yields to the matching the host has
        assert brute_force_pm(host) is not None
    elif kind is None:
        assert found == {} and code == 2
    else:
        # decide stops at the first barrier; barriers runs both stages
        assert found[kind] == cert["payload"] and code == 0
        assert kind == "space" or "space" not in found


@pytest.mark.parametrize("sizes", [(6, 3), (8, 7)])
def test_match_decide_and_barriers_print_one_divisibility_barrier(tmp_path, capsys, sizes):
    # match's absorber is unavailable on these hosts, and its fallback runs
    # decide's divisibility stage, over the closed partition's coarsenings
    # on 9 vertices as on 15
    path = str(tmp_path / "div.khg")
    save_khg(gen_divisibility_barrier(list(sizes), 3, [(1, 2), (3, 0)]), path, include_lower=True)
    runs = [run_cli(capsys, command, path, "--json", "--seed", "3")
            for command in ("match", "decide", "barriers")]
    assert [code for code, _ in runs] == [0, 0, 0]
    match, decide, barriers = (json.loads(out) for _, out in runs)
    assert match["tag"] == decide["tag"] == "DivisibilityBarrier"
    payload = barriers["found"]["divisibility"]
    assert match["payload"] == decide["payload"] == payload
    assert payload["exhaustive"] is False
    assert payload["parts"] == [list(range(sizes[0])), list(range(sizes[0], sum(sizes)))]


def test_gen_and_roundtrip(instances, capsys, tmp_path):
    out_path = str(tmp_path / "gen.khg")
    code, _ = run_cli(capsys, "gen", instances["spec"], "-o", out_path, "--json")
    assert code == 0
    code, out = run_cli(capsys, "decide", out_path, "--json", "--seed", "1")
    assert json.loads(out)["tag"] == "SpaceBarrier"


def test_gen_to_stdout(instances, capsys):
    code, out = run_cli(capsys, "gen", instances["spec"])
    assert code == 0
    assert out.startswith("khg 1\n")


def test_oracle_command(instances, capsys):
    code, out = run_cli(capsys, "oracle", instances["div"], "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["perfect_matching_exists"] is False
    assert blob["fractional_feasible"] is True


def test_absorb_demo(instances, capsys, tmp_path):
    save_khg(gen_random_dense(30, 3, p=0.9, seed=3), tmp_path / "d30.khg")
    code, out = run_cli(capsys, "absorb-demo", str(tmp_path / "d30.khg"), "--json", "--seed", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["covers_w_and_leftover"] is True


def test_absorb_demo_without_an_absorber_exits_2(capsys, tmp_path):
    # the match-partite8 host is valid, but the demo's absorber cannot be
    # built on it: the reason is printed and the exit is 2, not 3
    alloc = allocation_from_index_multiset([(1, 1, 1)])
    save_khg(gen_random_dense(8, 3, r=3, p=0.9, seed=1, allocation=alloc), tmp_path / "pt.khg")
    (tmp_path / "alloc.json").write_text('{"allocation_index_multiset": [[1, 1, 1]]}')
    khg = str(tmp_path / "pt.khg")
    for extra in ([], ["--config", str(tmp_path / "alloc.json")]):
        code, out = run_cli(capsys, "absorb-demo", khg, "--json", "--seed", "1", *extra)
        assert code == 2
        assert json.loads(out) == {
            "reason": "AbsorberUnavailable: robust-vector lattice is incomplete"
        }
    # malformed input still exits 3
    (tmp_path / "bad.khg").write_text("not a khg file\n")
    assert main(["absorb-demo", str(tmp_path / "bad.khg"), "--json"]) == 3


def test_decide_host_outside_the_allocation_exits_3(capsys, tmp_path):
    # the space stage finds a barrier on this host, but it is not PF-partite
    # for one vertex per part, and decide, barriers and match reject it
    # before any stage
    save_khg(gen_space_barrier(4, 3, 1, 3, r=3), tmp_path / "sp.khg")
    assert main(["barriers", str(tmp_path / "sp.khg"), "--json"]) == 0
    assert "space" in json.loads(capsys.readouterr().out)["found"]
    (tmp_path / "alloc.json").write_text('{"allocation_index_multiset": [[1, 1, 1]]}')
    for command in ("decide", "barriers", "match"):
        argv = [command, str(tmp_path / "sp.khg"), "--json", "--config", str(tmp_path / "alloc.json")]
        assert main(argv) == 3, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "BadParams: system is not PF-partite for the given allocation" in captured.err


def test_absorb_demo_without_a_closed_partition_exits_2(capsys, tmp_path):
    # vertex 14 lies in no edge, so no closed partition exists; the host is
    # valid, and every command prints its outcome and exits 2, not 3
    host = KSystem(VertexUniverse.single(15), 3,
                   {3: [e for e in combinations(range(15), 3) if 14 not in e]})
    save_khg(host, tmp_path / "iso.khg")
    khg = str(tmp_path / "iso.khg")
    code, out = run_cli(capsys, "absorb-demo", khg, "--json")
    assert code == 2
    assert json.loads(out) == {
        "reason": "PreconditionFailed: vertex 14 reaches only 0 of its part, needs 1.9"
    }
    for command in ("decide", "match"):
        code, out = run_cli(capsys, command, khg, "--json")
        assert (code, json.loads(out)["tag"]) == (2, "Inconclusive")


K1_HEAD = "khg 1\nk 1\nparts 1\npart A 4: a b c d\n"


@pytest.mark.parametrize("edges, code, tag", [
    ("abcd", 0, "PerfectMatching"),
    ("abc", 2, "Inconclusive"),
])
def test_k1_hosts_exit_0_or_2(capsys, tmp_path, edges, code, tag):
    # at k = 1 the absorber's links are empty rows and the extraction has no
    # pair budget to cap; no command ends in a traceback
    path = tmp_path / "k1.khg"
    path.write_text(K1_HEAD + "".join(f"edge {v}\n" for v in edges))
    for command in ("decide", "match"):
        got, out = run_cli(capsys, command, str(path), "--json")
        assert (got, json.loads(out)["tag"]) == (code, tag), command
    got, out = run_cli(capsys, "absorb-demo", str(path), "--json")
    blob = json.loads(out)
    assert got == code
    if code == 0:
        assert blob["covers_w_and_leftover"] is True
    else:  # vertex d lies in no edge, so no closed partition exists
        assert blob == {"reason": "PreconditionFailed: vertex 3 reaches only 0 of its part, needs 0.5"}


def test_input_errors(capsys):
    code, _ = run_cli(capsys, "decide", "/nonexistent/file.khg", "--json")
    assert code == 3
    code, _ = run_cli(capsys, "gen", "/nonexistent/spec.json")
    assert code == 3


def test_gen_spec_without_kind_exits_3(tmp_path, capsys):
    for text in ('{"n": 6}', "[1, 2]"):
        (tmp_path / "spec.json").write_text(text)
        assert main(["gen", str(tmp_path / "spec.json")]) == 3
        assert "BadParams: a generator spec must be a JSON object with a kind" in capsys.readouterr().err


def test_byte_reproducibility(instances, capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "decide", instances["dense"], "--json", "--seed", "11")
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        _, out = run_cli(capsys, "frac", instances["dense"], "--ell", "2", "--json", "--seed", "11")
        outs.append(out)
    assert outs[0] == outs[1]


def test_human_output(instances, capsys):
    code, out = run_cli(capsys, "decide", instances["div"], "--seed", "3")
    assert code == 0
    assert "tag: DivisibilityBarrier" in out


def test_config_file(instances, capsys, tmp_path):
    # match echoes the config it ran with
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "ell": 2}))
    code, out = run_cli(
        capsys, "match", instances["dense"], "--config", str(cfg), "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["diagnostics"]["config"] == {"ell": 2, "seed": 4}
    # the --seed flag overrides the config file
    code, out = run_cli(
        capsys, "match", instances["dense"], "--config", str(cfg), "--json",
        "--seed", "9",
    )
    assert json.loads(out)["diagnostics"]["config"]["seed"] == 9
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "decide", instances["dense"], "--config", str(bad))
    assert code == 3


GOOD_KHG = "khg 1\nk 3\nparts 1\npart A 6: a b c d e f\nedge a b c\nedge d e f\n"


@pytest.mark.parametrize(
    "khg, config, extra, message",
    [
        (GOOD_KHG.replace("k 3", "k x"), None, [], "line 2: k 'x' is not an integer"),
        (GOOD_KHG.replace("k 3", "k 0"), None, [], "line 2: k must be at least 1, got 0"),
        (GOOD_KHG.replace("edge a b c", "edge a a b"), None, [], "line 5: edge repeats a vertex"),
        (GOOD_KHG.replace("edge a b c", "edge a b"), None, [], "line 5: edge lists 2 vertices"),
        (GOOD_KHG, {"seed": "x"}, [], "BadParams: seed must be an integer, got 'x'"),
        (GOOD_KHG, {"ell": "2"}, [], "BadParams: ell must be a nonnegative integer"),
        (GOOD_KHG, [1, 2], [], "BadParams: the config file must hold a JSON object"),
        (GOOD_KHG, {"gama": "abc", "verify": False}, [], "BadParams: unknown config keys: gama, verify"),
        (GOOD_KHG, {"nibble_attempts": 8, "nibble_rounds": None, "absorber_tries": 400}, [],
         "BadParams: unknown config keys: absorber_tries, nibble_attempts, nibble_rounds"),
        (GOOD_KHG, {"space_budget": 100}, [], "BadParams: unknown config keys: space_budget"),
        (GOOD_KHG, {"phi": "1/100", "epsilon": "1/20", "alpha": "1/10", "gamma": "3/20",
                    "mu": "1/5", "beta": "1/5", "zeta": "3/10", "mode": "general"}, [],
         "BadParams: unknown config keys: alpha, beta, epsilon, gamma, mode, mu, phi, zeta"),
    ],
)
def test_malformed_input_exits_3(tmp_path, capsys, khg, config, extra, message):
    path = tmp_path / "bad.khg"
    path.write_text(khg)
    argv = ["decide", str(path), "--json", *extra]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_frac_negative_ell_exits_3(tmp_path, capsys):
    path = tmp_path / "ok.khg"
    path.write_text(GOOD_KHG)
    assert main(["frac", str(path), "--ell", "-1", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BadParams: ell must be nonnegative, got -1" in captured.err


def test_unreadable_input_exits_3(tmp_path, capsys):
    text = GOOD_KHG.replace("part A 6: a", "part A 6: \xe9")
    (tmp_path / "latin1.khg").write_bytes(text.encode("latin-1"))
    for path in (tmp_path / "latin1.khg", tmp_path):
        assert main(["decide", str(path), "--json"]) == 3
        assert "error: cannot read input" in capsys.readouterr().err


_ARGV_FILE_TEXT = {
    "tiny.khg": GOOD_KHG.replace("edge d e f", "edge d e f\nedge a d e\nedge b c f"),
    "spec.json": json.dumps({"kind": "space-barrier", "n": 6, "k": 3, "params": {"j": 1, "s_size": 2}}),
    "cfg.json": json.dumps({"ell": 2}),
    "badkey.json": json.dumps({"gama": "abc"}),
    "list.json": "[1, 2]",
}
_ARGV_FILES = [*_ARGV_FILE_TEXT, "missing.khg", "."]
_ARGV_INTS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["x", "1.5", "", "99999"]))
_ARGV_OPTIONS = st.one_of(
    st.sampled_from(["--json", "--verify", "--no-verify"]),
    st.builds(lambda value: ["--seed", value], _ARGV_INTS),
    st.builds(lambda name: ["--config", name], st.sampled_from(_ARGV_FILES)),
    # options that only some commands take
    st.one_of(
        st.sampled_from(["--weights", "--state", "-h"]),
        st.builds(lambda flag, value: [flag, value], st.sampled_from(["--ell", "--cap"]), _ARGV_INTS),
        st.builds(lambda name: ["-o", name], st.sampled_from(["out.khg", "sub"])),
    ),
)


def _run_isolated(argv, files):
    """main(argv) inside a fresh directory holding `files` and a directory
    "sub", so gen -o and relative paths stay in it; (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.mkdir(os.path.join(tmp, "sub"))
        err = io.StringIO()
        here = os.getcwd()
        os.chdir(tmp)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors and -h
                    code = exc.code
                    event("argparse exit")
        finally:
            os.chdir(here)
    event(f"exit {code}")
    return code, err.getvalue()


@settings(max_examples=400, deadline=None)
@given(
    command=st.sampled_from(
        ["decide", "match", "frac", "barriers", "gen", "absorb-demo", "oracle", "nope"]
    ),
    target=st.one_of(
        st.sampled_from([["tiny.khg"], ["spec.json"]]),
        st.lists(st.sampled_from(_ARGV_FILES), max_size=2),
    ),
    options=st.lists(_ARGV_OPTIONS, max_size=3),
    junk=st.lists(st.text(alphabet="-abx0", max_size=4), max_size=1),
)
def test_argv_fuzz_exits_cleanly(command, target, options, junk):
    # writing to "sub", a directory, must fail cleanly
    argv = [command, *target]
    for opt in options:
        argv += opt if isinstance(opt, list) else [opt]
    argv += junk
    code, err = _run_isolated(argv, _ARGV_FILE_TEXT)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, argv


# small values only: a valid spec must generate in milliseconds
_SPEC_VALUES = st.one_of(
    st.integers(-1, 3),
    st.sampled_from(["x", 2.5, 0.5, None, True, [], [1, 2], [2, 1, 0], [[1, 2], [3, 0]], {"j": 1}]),
)
_SPEC_PARAMS = ["j", "s_size", "part_sizes", "lattice_generators", "p", "degree_floor",
                "index_multiset"]
_SPECS = st.builds(
    lambda kind, fields, params: {**kind, **fields, **params},
    st.sampled_from([{}, {"kind": "nope"}, *({"kind": kind} for kind in GenSpec.KINDS)]),
    st.dictionaries(st.sampled_from(["n", "k", "r", "seed", "params"]), _SPEC_VALUES, max_size=4),
    st.one_of(st.just({}), st.builds(
        lambda p: {"params": p},
        st.dictionaries(st.sampled_from(_SPEC_PARAMS), _SPEC_VALUES, max_size=4),
    )),
)


@settings(max_examples=300, deadline=None)
@given(spec=_SPECS, out=st.sampled_from([[], ["-o", "out.khg"], ["-o", "sub"]]))
def test_gen_spec_fuzz_exits_cleanly(spec, out):
    # random subsets of the spec fields, each of a random type
    argv = ["gen", "fuzz.json", "--json", *out]
    code, err = _run_isolated(argv, {"fuzz.json": json.dumps(spec)})
    assert code in (0, 3), (spec, err)
    assert "Traceback" not in err, spec


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "space-barrier"}, "BadParams: a space-barrier spec needs params.s_size"),
        ({"kind": "complete", "n": "x"}, "BadParams: n must be an integer"),
        ({"kind": "divisibility", "params": {"part_sizes": [3, 3], "lattice_generators": [1]}},
         "BadParams: params.lattice_generators must be [[int]], got [1]"),
        ({"kind": "complete", "n": 300}, "BadParams: 4455100 top edges are too many"),
    ],
)
def test_gen_spec_field_errors_exit_3(tmp_path, capsys, spec, message):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["gen", str(tmp_path / "spec.json")]) == 3
    assert message in capsys.readouterr().err


def _rewritten(text, how, rng):
    """The khg text with its edge lines shuffled, with the vertices of each
    edge line in a random order, with some edge lines listed twice, or with
    its vertex names, in order, under one part line."""
    lines = text.splitlines()
    head = [line for line in lines if not line.startswith("edge")]
    edges = [line for line in lines if line.startswith("edge")]
    if how == "one-part":
        names = [v for line in head if line.startswith("part ") for v in line.split(":")[1].split()]
        head = [line for line in head if not line.startswith("part")]
        head += ["parts 1", f"part V {len(names)}: " + " ".join(names)]
    elif how == "shuffled":
        rng.shuffle(edges)
    elif how == "permuted":
        for i, line in enumerate(edges):
            key, *verts = line.split()
            rng.shuffle(verts)
            edges[i] = " ".join([key, *verts])
    else:
        edges += rng.sample(edges, len(edges) // 3)
        rng.shuffle(edges)
    return "\n".join(head + edges) + "\n"


@pytest.mark.parametrize("host, seed", [("dense30-a", "1"), ("lp-fallback", "2"), ("dense12", "6"),
                                        ("div-two-part", "4")])
def test_output_does_not_depend_on_the_order_of_edge_lines(tmp_path, capsys, host, seed):
    # the same host written five ways prints the same bytes; the one-part
    # copy of a two-part host reads as the plain mode's flattened view of it
    build = {
        "dense30-a": lambda: gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=1001),
        "lp-fallback": lambda: gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=178118052),
        "dense12": lambda: gen_random_dense(12, 3, p=0.8, seed=906),
        "div-two-part": lambda: gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]),
    }[host]
    canonical = tmp_path / "host.khg"
    save_khg(build(), canonical, include_lower=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ell": 10}))
    commands = [["decide"], ["match", "--config", str(config)], ["frac", "--weights", "--ell", "3"]]
    if host in ("dense12", "div-two-part"):
        commands.append(["oracle"])
    if host == "div-two-part":
        commands.append(["barriers"])
    rng = random.Random(seed)
    files = [canonical]
    for how in ("shuffled", "permuted", "repeated", "one-part"):
        files.append(tmp_path / f"{how}.khg")
        files[-1].write_text(_rewritten(canonical.read_text(), how, rng))
    for command in commands:
        outs = {run_cli(capsys, command[0], str(path), "--json", "--seed", seed, *command[1:])
                for path in files}
        assert len(outs) == 1, command


def _closed(system):
    return build_complex(system.iter_top(), system.universe)


@pytest.mark.parametrize("command, build, ell, tag", [
    ("decide", lambda: _closed(gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)])), None,
     "DivisibilityBarrier"),
    ("match", lambda: gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=1001), 10,
     "PerfectMatching"),
])
def test_each_loaded_level_is_sorted_once(tmp_path, capsys, monkeypatch, command, build, ell, tag):
    # a k = 3 file written with its lower levels: the closure sorts each
    # level once, and the flattened view and the restrictions mask its rows
    import kmatch.core

    calls = []
    sorted_rows = kmatch.core._sorted_rows
    monkeypatch.setattr(kmatch.core, "_sorted_rows", lambda *a: calls.append(1) or sorted_rows(*a))
    host = build()
    assert host.closed and len(host.level(2))
    save_khg(host, tmp_path / "host.khg", include_lower=True)
    argv = [command, str(tmp_path / "host.khg"), "--json"]
    if ell:
        (tmp_path / "config.json").write_text(json.dumps({"ell": ell}))
        argv += ["--config", str(tmp_path / "config.json")]
    calls.clear()
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["tag"] == tag
    assert len(calls) == 3
