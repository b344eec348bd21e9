"""Command-line surface: exit codes, JSON output, reproducibility."""

import json

import pytest

from kmatch.cli import main
from kmatch.khg import save_khg
from kmatch.oracle import gen_divisibility_barrier, gen_random_dense, gen_space_barrier


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
