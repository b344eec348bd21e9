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
        "26af3debe6bc3738042717fc5f5a2e9d69b33a04f7c5ff2bdeb3bf3628411a83",
    ),
    "match-dense30-b": (
        lambda: _dense30(1002),
        ["match", "--seed", "2"], {"ell": 10},
        "13ad607e945778e644f5a96be1b2a7e2e24c5d48bff84cbaf1375f09907af13f",
    ),
    "match-dense30-c": (
        lambda: _dense30(1003),
        ["match", "--seed", "3"], {"ell": 10},
        "91cc7ef92aa311de1b4b996f041669624eddea6007dbce11e1bca7fb112f7c1c",
    ),
    # greedy extraction misses here and the exact LP fallback runs
    "match-lp-fallback": (
        lambda: _dense30(178118052),
        ["match", "--seed", "324388370"], {"ell": 15},
        "c2e0f8e46bdad2add5bdd6075f36809d28acaeb5c97d06907a757d83edbb8b5e",
    ),
    "match-div9": (
        lambda: gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]),
        ["match", "--seed", "3"], None,
        "88f1a9aeb2de4ee693dcab888b74fb4bcc5de4966191f22f2d10151adbc162b4",
    ),
    # a partite allocation: the absorber decomposes and cuts partite k-sets
    "match-partite8": (
        lambda: gen_random_dense(8, 3, r=3, p=0.9, seed=1,
                                 allocation=allocation_from_index_multiset([(1, 1, 1)])),
        ["match", "--seed", "1"], {"allocation_index_multiset": [[1, 1, 1]]},
        "e3109e66539704d33217b3ac88461a5efc7e3953d97d1613e0d85402cb343713",
    ),
    # decide's greedy witness fills the allocation's quotas
    "decide-partite8": (
        lambda: gen_random_dense(8, 3, r=3, p=0.9, seed=1,
                                 allocation=allocation_from_index_multiset([(1, 1, 1)])),
        ["decide", "--seed", "1"], {"allocation_index_multiset": [[1, 1, 1]]},
        "604ed46189c83f944b249c25f6c76ebbbfe5963e4ca69e5bb6afdca552cd5cd9",
    ),
    "decide-dense9": (
        lambda: gen_random_dense(9, 3, p=0.9, seed=905),
        ["decide", "--seed", "5"], None,
        "be4af764c9ed503627be0770444c41ebd1d0a7732db4f90b480658e961cfddef",
    ),
    "decide-dense12": (
        lambda: gen_random_dense(12, 3, p=0.8, seed=906),
        ["decide", "--seed", "6"], None,
        "dd6355a414f55d3838fddda4f5262585b82fdcd5683d634858a7bc78ca9b2a77",
    ),
    # n > 12: past the brute-force cap, so no oracle cross-check is attached
    "decide-dense15": (
        lambda: gen_random_dense(15, 3, p=0.85, seed=915),
        ["decide", "--seed", "12"], None,
        "5c589f8a10c2f39b0068d9e2086ea3887427978caffe6848466a682a49e68e10",
    ),
    "decide-space9": (
        lambda: gen_space_barrier(9, 3, 1, 4),
        ["decide", "--seed", "7"], None,
        "d69599383accabc2f9f89464c33821000833cd3c90943729a69f74a3d6a2a71c",
    ),
    "decide-space12": (
        lambda: gen_space_barrier(12, 3, 2, 9),
        ["decide", "--seed", "8"], None,
        "669d31a30ab03136478a98160215189a19e18e06731e282c280af93ba75953f7",
    ),
    "decide-div8": (
        lambda: gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]),
        ["decide", "--seed", "9"], None,
        "45dbd74cefa678cac97634fa315838b7d7e447074ec18698c8bd21e08966abae",
    ),
    "decide-div10": (
        lambda: gen_divisibility_barrier([6, 4], 3, [(2, 1), (0, 3)]),
        ["decide", "--seed", "10"], None,
        "1dba0e74f4f97c00c2e2ea2d6c40b92358234da32f7c5d08194243e500c4b7e8",
    ),
    "barriers-div8": (
        lambda: gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]),
        ["barriers", "--seed", "9"], None,
        "3bc8c563b7edf69f3d4e57c5309e73f72d720760905d50320e7999ca7499ea7c",
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
        "3bd96c62363c200fd2d5f2ebface8ce1afeafba3acc7d7395c5a9ff78648e5ce",
    ),
    "frac-weights": (
        lambda: gen_random_dense(12, 3, p=0.9, seed=5),
        ["frac", "--ell", "3", "--weights", "--seed", "11"], None,
        "e37fb757b2fb0077a935c28f52a2a2f631e90b01ddb038ac8ee4990e2e0e0a8c",
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
