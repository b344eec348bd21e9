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
        "0fc74892f17299ac317c6523135f56d5213dfc6a9807ed66d96014d0cd97c334",
    ),
    "match-dense30-b": (
        lambda: _dense30(1002),
        ["match", "--seed", "2"], {"ell": 10},
        "feb591b1cfb0569f123c4ea5aef0f1046b7d0a7091ea8803287495afab0d4d97",
    ),
    "match-dense30-c": (
        lambda: _dense30(1003),
        ["match", "--seed", "3"], {"ell": 10},
        "0c10f70245992eec54a98099440733ed97a0452bc5599c8d4de7158d9d36ffcd",
    ),
    # greedy extraction misses here and the exact LP fallback runs
    "match-lp-fallback": (
        lambda: _dense30(178118052),
        ["match", "--seed", "324388370"], {"ell": 15},
        "e2eb938d8acce566df7328735d680df51498b4fbc393edf3b35190ab6813c94d",
    ),
    "match-div9": (
        lambda: gen_divisibility_barrier([6, 3], 3, [(1, 2), (3, 0)]),
        ["match", "--seed", "3"], None,
        "bc216e67fab1a4d08c6f27449a6569439e5d213f1631e409064069645ba1873c",
    ),
    "decide-dense9": (
        lambda: gen_random_dense(9, 3, p=0.9, seed=905),
        ["decide", "--seed", "5"], None,
        "3dd8be7215aa00d549268a2d144ad6c7e7896681d05e3a682e4497b9de0baa4a",
    ),
    "decide-dense12": (
        lambda: gen_random_dense(12, 3, p=0.8, seed=906),
        ["decide", "--seed", "6"], None,
        "77a3b4ec25c8273ed15d4f4749297bb31bb2f3dfde72150601e44007a80b6dde",
    ),
    # n > 12: decide builds the closed partition instead of exhausting partitions
    "decide-dense15": (
        lambda: gen_random_dense(15, 3, p=0.85, seed=915),
        ["decide", "--seed", "12"], None,
        "7d9fd83cb35da633ac1f5c9d597f1fe23d6b8eb26918dee810fa95662ccd8781",
    ),
    "decide-space9": (
        lambda: gen_space_barrier(9, 3, 1, 4),
        ["decide", "--seed", "7"], None,
        "88a6ef39be9dd8bfbcf29e0c22f29d06926d35112b836d7bdb187d6eec0724a9",
    ),
    "decide-space12": (
        lambda: gen_space_barrier(12, 3, 2, 9),
        ["decide", "--seed", "8"], None,
        "8f06f68c2ef9143243c075c7b394c93a1ee53a27c1ea3229e484a334e4e52f93",
    ),
    "decide-div8": (
        lambda: gen_divisibility_barrier([5, 3], 3, [(1, 2), (3, 0)]),
        ["decide", "--seed", "9"], None,
        "7f6e20ca4732ffb587add36a80c3e77a066288445d87c957da550381b3f29e6a",
    ),
    "decide-div10": (
        lambda: gen_divisibility_barrier([6, 4], 3, [(2, 1), (0, 3)]),
        ["decide", "--seed", "10"], None,
        "01cdd52b49c3b9ae2638c6b0fd84b4b6bee1adbf97f349d625f100eb8881ee51",
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
        "0026cbb175e776f52cd96e4fc35089d1a32990d2574a895c823b6b48a5042291",
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
