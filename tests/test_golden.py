"""Golden corpus: sha256 of the CLI's canonical --json bytes on fixed inputs.

The digests pin the exact certificates, so a refactor that claims to change
no behaviour must leave every one of them as it is. An intended change of
output updates the literal digest and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from kmatch.cli import main
from kmatch.core import allocation_from_index_multiset
from kmatch.khg import save_khg
from kmatch.oracle import gen_divisibility_barrier, gen_random_dense, gen_space_barrier


def _dense30(seed):
    # the criterion-10 recipe scaled to n=30
    return gen_random_dense(30, 3, p=0.92, degree_floor=(30, 18, 10), seed=seed)


# name -> (instance builder, argv after the file, config, expected digest)
CORPUS = {
    "match-dense30-a": (
        lambda: _dense30(1001),
        ["match", "--seed", "1"], {"ell": 10},
        "4dd3ca972ccca55c21c0d46636a640af5a86b8de064bd54cac01821bd88ce5c6",
    ),
    "match-dense30-b": (
        lambda: _dense30(1002),
        ["match", "--seed", "2"], {"ell": 10},
        "38563a528aa34ba1f25735ea179984a7a0317385fb870bff71a0b64bc5a0b5bd",
    ),
    "match-dense30-c": (
        lambda: _dense30(1003),
        ["match", "--seed", "3"], {"ell": 10},
        "090acc0347cd152f9348ca095998f619b2bbfcb290f841e3dd085ce56b5607e9",
    ),
    # greedy extraction misses here and the exact LP fallback runs, as
    # test_lp_fallback_entry_runs_an_lp_round checks
    "match-lp-fallback": (
        lambda: _dense30(178118052),
        ["match", "--seed", "2"], {"ell": 15},
        "f4f8df3fc9db784412b46d34461a5feda2746b62c9c4431f2db718a573c22c88",
    ),
    # the absorber is unavailable, and match's fallback runs decide's
    # divisibility stage over the closed partition's coarsenings
    "match-div9": (
        lambda: gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]),
        ["match", "--seed", "3"], None,
        "da43689a50a899c12f3e1819fc05a7ee5183efc9c5ab8be1757db11b417b768f",
    ),
    # a partite allocation: the absorber decomposes and cuts partite k-sets
    "match-partite8": (
        lambda: gen_random_dense(8, 3, r=3, p=0.9, seed=1,
                                 allocation=allocation_from_index_multiset([(1, 1, 1)])),
        ["match", "--seed", "1"], {"allocation_index_multiset": [[1, 1, 1]]},
        "72763283a0b25a98d01b55eec0d24dac5ec9fd0baf9a310da8a27e6df72efe36",
    ),
    # decide's exact search fills the allocation's quotas
    "decide-partite8": (
        lambda: gen_random_dense(8, 3, r=3, p=0.9, seed=1,
                                 allocation=allocation_from_index_multiset([(1, 1, 1)])),
        ["decide", "--seed", "1"], {"allocation_index_multiset": [[1, 1, 1]]},
        "ef6601de907693a0fea850f9e81bf030450bbccf021226ac2f72bed4f9c94338",
    ),
    "decide-dense9": (
        lambda: gen_random_dense(9, 3, p=0.9, seed=905),
        ["decide", "--seed", "5"], None,
        "4bf7af368a20e11d92ad63dc31a2ddde49f7359deaac836ec9b7cf4e3a60e7d1",
    ),
    "decide-dense12": (
        lambda: gen_random_dense(12, 3, p=0.8, seed=906),
        ["decide", "--seed", "6"], None,
        "db462762fed077f7c29d073c0b80413096bdb2950d1afab16f2a5ff5465aff9e",
    ),
    # n > 12: past the brute-force cap, so no oracle cross-check is attached
    "decide-dense15": (
        lambda: gen_random_dense(15, 3, p=0.85, seed=915),
        ["decide", "--seed", "12"], None,
        "5faef3070faf0dd68673d8398edb0a2bbb91e3d4fa26bbf3d475feea08c727af",
    ),
    "decide-space9": (
        lambda: gen_space_barrier(9, 3, 1, 4),
        ["decide", "--seed", "7"], None,
        "17351babd95b134316a621771fb2f3ccf787a695ef97951127c49591d7672569",
    ),
    "decide-space12": (
        lambda: gen_space_barrier(12, 3, 2, 9),
        ["decide", "--seed", "8"], None,
        "a6506004d1d705019bfc06b71329da84190ed33c3c0cd1c8fdd57f32274a4fdd",
    ),
    "decide-div8": (
        lambda: gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]),
        ["decide", "--seed", "9"], None,
        "75db1acd78c5651155819d12fd1abe11386eb5f0ec4758ca1f5907ef825318a0",
    ),
    "decide-div10": (
        lambda: gen_divisibility_barrier([6, 4], 3, [(2, 1), (0, 3)]),
        ["decide", "--seed", "10"], None,
        "d5a369fce19972dc8db81388e62ba4db24900d974ee2268a09bdfa7f9773862b",
    ),
    "barriers-div8": (
        lambda: gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]),
        ["barriers", "--seed", "9"], None,
        "c119322e40d0fde6ee3d60fa12e0b1a62806f988c32a1e6ee101c20562e61d9f",
    ),
    # n > 12: the divisibility stage tries decide's closed partition
    "barriers-div13": (
        lambda: gen_divisibility_barrier([7, 6], 3, [(1, 2), (3, 0)]),
        ["barriers", "--seed", "13"], None,
        "48c223789248abde9ddfbc841e7b7d04e83972d1a35c4435b2858f695e8fea2c",
    ),
    "absorb-demo-dense30": (
        lambda: gen_random_dense(30, 3, p=0.9, seed=3),
        ["absorb-demo", "--state", "--seed", "11"], None,
        "7095ba339be2288e46d1c008ea9d1a0d3337d2835f8ab7d9e0da798b1d2320fc",
    ),
    "frac-weights": (
        lambda: gen_random_dense(12, 3, p=0.9, seed=5),
        ["frac", "--ell", "3", "--weights", "--seed", "11"], None,
        "47236d9c5ef6b92d1e76277ad401eee462c27b7f90bbc2b2c2fc03c96f0f12fc",
    ),
}


def corpus_args(tmp_path, name):
    """Write the entry's instance (and config) under tmp_path; its CLI argv."""
    build, argv, config, _ = CORPUS[name]
    path = tmp_path / f"{name}.khg"
    # lower levels are written so the CLI reads exactly the generated complex
    save_khg(build(), path, include_lower=True)
    args = [argv[0], str(path), "--json", *argv[1:]]
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    return args


def run_corpus_entry(tmp_path, capsys, name):
    code = main(corpus_args(tmp_path, name))
    return code, capsys.readouterr().out


# absorber flags that older versions printed on every absorber: they compared
# the partition's witness t with a scale derived from a module constant
REMOVED_FLAGS = ("closure parameter t=", "closed partition witness t=")


def strip_removed(obj, key=None):
    """obj without what older versions printed: `coverage_passed` and
    `family.coverage`, the report of the sampled coverage audit (absorb
    checks every absorption exactly, so nothing read it), and the
    REMOVED_FLAGS strings."""
    if isinstance(obj, list):
        return [strip_removed(v) for v in obj
                if not (isinstance(v, str) and v.startswith(REMOVED_FLAGS))]
    if not isinstance(obj, dict):
        return obj
    return {k: strip_removed(v, k) for k, v in obj.items()
            if k != "coverage_passed" and (key, k) != ("family", "coverage")}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_digest(tmp_path, capsys, name):
    code, out = run_corpus_entry(tmp_path, capsys, name)
    assert code in (0, 2)
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS[name][3]
    assert canonical(strip_removed(json.loads(out))) == out


def test_lp_fallback_entry_runs_an_lp_round(tmp_path, capsys, monkeypatch):
    # the entry exists for its exact-LP round: at least one must run
    import kmatch.pipeline as pipeline

    runs, extract = [], pipeline.extract_weight_disjoint
    monkeypatch.setattr(pipeline, "extract_weight_disjoint",
                        lambda *args, **kwargs: runs.append(extract(*args, **kwargs)) or runs[-1])
    code, _ = run_corpus_entry(tmp_path, capsys, "match-lp-fallback")
    assert code == 0 and sum(run.diagnostics["lp_solves"] for run in runs) >= 1


# the matching pipeline's stages, which decide never runs
PIPELINE_STAGES = ("build_absorber", "extract_weight_disjoint", "sample_subgraph",
                   "color_classes", "nibble_match", "absorb")


DECIDE_ENTRIES = sorted(n for n in CORPUS if CORPUS[n][1][0] == "decide")


@pytest.mark.parametrize("name", DECIDE_ENTRIES)
def test_decide_entry_runs_no_pipeline_stage(tmp_path, capsys, monkeypatch, name):
    import kmatch.pipeline as pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("decide ran a matching pipeline stage")

    for stage in PIPELINE_STAGES:
        monkeypatch.setattr(pipeline, stage, refuse)
    _, out = run_corpus_entry(tmp_path, capsys, name)
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS[name][3]


@pytest.mark.parametrize("name", DECIDE_ENTRIES)
def test_decide_entry_prints_the_same_bytes_for_any_seed_and_ell(tmp_path, capsys, name):
    # decide reads no seed and no ell: the last --seed and --config given win
    args = corpus_args(tmp_path, name)
    ell = tmp_path / "ell.json"
    ell.write_text(json.dumps({**(CORPUS[name][2] or {}), "ell": 2}))
    for extra in (["--seed", "1"], ["--seed", "7"], ["--config", str(ell)]):
        main(args + extra)
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CORPUS[name][3]


@pytest.mark.parametrize("name", DECIDE_ENTRIES)
def test_decide_entry_draws_no_random_number(tmp_path, capsys, monkeypatch, name):
    import random

    def refuse(*args, **kwargs):
        raise AssertionError("decide made a random number generator")

    args = corpus_args(tmp_path, name)  # the generators draw, before the patch
    monkeypatch.setattr(random, "Random", refuse)
    main(args)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CORPUS[name][3]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py OLD_SRC, from the repository
    # root: compares every corpus output of src/ with the output of the kmatch
    # sources in OLD_SRC with the removed fields stripped, byte for byte, and
    # exits 1 when any entry differs
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    def run(src, args):
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "kmatch.cli", *args], env=env,
                              capture_output=True, text=True, check=False).stdout

    differs = 0
    for name in sorted(CORPUS):
        with tempfile.TemporaryDirectory() as tmp:
            args = corpus_args(Path(tmp), name)
            new, old = run("src", args), run(sys.argv[1], args)
        if new == old:
            print(f"{name}: identical")
        elif new == canonical(strip_removed(json.loads(old))):
            print(f"{name}: equal once stripped")
        else:
            differs += 1
            print(f"{name}: DIFFERS")
    sys.exit(1 if differs else 0)
