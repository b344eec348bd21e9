"""Command-line surface: exit codes, JSON output, reproducibility."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kmatch.cli import build_parser, main
from kmatch.khg import save_khg
from kmatch.oracle import (
    GenSpec,
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": "0.12", "seed": 4, "ell": 2}))
    code, out = run_cli(
        capsys, "decide", instances["dense"], "--config", str(cfg), "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["diagnostics"]["config"]["gamma"] == "3/25"
    assert blob["diagnostics"]["config"]["seed"] == 4
    # the --seed flag overrides the config file
    code, out = run_cli(
        capsys, "decide", instances["dense"], "--config", str(cfg), "--json",
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
        (GOOD_KHG, {"gamma": "abc"}, [], "BadParams: gamma='abc' is not a number"),
        (GOOD_KHG, {"ell": "2"}, [], "BadParams: ell must be a nonnegative integer"),
        (GOOD_KHG, [1, 2], [], "BadParams: the config file must hold a JSON object"),
        (GOOD_KHG, {"gama": "abc", "verify": False}, [], "BadParams: unknown config keys: gama, verify"),
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
    "cfg.json": json.dumps({"ell": 2, "gamma": "0.12"}),
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
