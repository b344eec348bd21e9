"""Golden corpus: sha256 of the CLI's canonical --json bytes on fixed inputs.

The digests pin the exact certificates, so a refactor that claims to change
no behaviour must leave every one of them as it is. An intended change of
output updates the literal digest and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from kmatch.cli import main
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
        "25c85dd8352d612852ca8ecfd32e3ff51bee838515022163550214b13a18457a",
    ),
    "match-dense30-b": (
        lambda: _dense30(1002),
        ["match", "--seed", "2"], {"ell": 10},
        "50784bbd337f89e3169ffecd29661a99681ee0a6dc1db435d1ae8a01fee203e8",
    ),
    "match-dense30-c": (
        lambda: _dense30(1003),
        ["match", "--seed", "3"], {"ell": 10},
        "b3eb62f66d245a529ba9cbdecb06ba8c3a7309e3c07a45d026e249cbdbbaa737",
    ),
    # greedy extraction misses here and the exact LP fallback runs
    "match-lp-fallback": (
        lambda: _dense30(178118052),
        ["match", "--seed", "324388370"], {"ell": 15},
        "001bed2d37d7263f04a7a0d3ac5907c728f9e9fa039c0674799b546061417940",
    ),
    "match-div9": (
        lambda: gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]),
        ["match", "--seed", "3"], None,
        "88f1a9aeb2de4ee693dcab888b74fb4bcc5de4966191f22f2d10151adbc162b4",
    ),
    "decide-dense9": (
        lambda: gen_random_dense(9, 3, p=0.9, seed=905),
        ["decide", "--seed", "5"], None,
        "18ab918dce143554d19a31bdc744903598df9da000dafb85f91b8db460ac9d0a",
    ),
    "decide-dense12": (
        lambda: gen_random_dense(12, 3, p=0.8, seed=906),
        ["decide", "--seed", "6"], None,
        "757406d4100364bd08447674e0b1c07723f86f753a872e75d5e83cfa5d53a641",
    ),
    # n > 12: decide builds the closed partition instead of exhausting partitions
    "decide-dense15": (
        lambda: gen_random_dense(15, 3, p=0.85, seed=915),
        ["decide", "--seed", "12"], None,
        "406ff75b851c8c08ac15348a52837476a2150728c67380b521ad526af584dcfc",
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
        "69ac225388df729be83d1d797351b96b3528d124542d058a790b66315e7bd181",
    ),
    "frac-weights": (
        lambda: gen_random_dense(12, 3, p=0.9, seed=5),
        ["frac", "--ell", "3", "--weights", "--seed", "11"], None,
        "e37fb757b2fb0077a935c28f52a2a2f631e90b01ddb038ac8ee4990e2e0e0a8c",
    ),
}


def run_corpus_entry(tmp_path, capsys, name):
    build, argv, config, _ = CORPUS[name]
    path = tmp_path / f"{name}.khg"
    # lower levels are written so the CLI reads exactly the generated complex
    save_khg(build(), path, include_lower=True)
    args = [argv[0], str(path), "--json", *argv[1:]]
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    code = main(args)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_digest(tmp_path, capsys, name):
    code, digest = run_corpus_entry(tmp_path, capsys, name)
    assert code in (0, 2)
    assert digest == CORPUS[name][3]
