"""Command-line surface.

Subcommands: decide, match, frac, barriers, gen, absorb-demo, oracle.
Exit codes: 0 a certificate or result was emitted, 2 inconclusive or nothing
found, 3 input error. With --json the output is a canonical one-line JSON
document, byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .absorbing import AbsorberConfig, absorb, build_absorber
from .core import allocation_from_index_multiset, is_pf_partite, plain_allocation
from .errors import (
    AbsorberUnavailable,
    AbsorptionFailed,
    BadParams,
    BudgetExhausted,
    KmatchError,
    PreconditionFailed,
)
from .fractional import extract_weight_disjoint, verify_fractional
from .khg import dump_khg, load_khg
from .oracle import GenSpec, brute_force_fractional, brute_force_pm
from .pipeline import (
    MU,
    Certificate,
    PipelineConfig,
    _effective_mu,
    decide,
    divisibility_barrier_stage,
    host_view,
    run_matching_pipeline,
    space_barrier_stage,
    verify_certificate,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _emit(obj, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        _emit_human(obj)


def _emit_human(obj, indent=0) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                sys.stdout.write(f"{pad}{key}:\n")
                _emit_human(val, indent + 1)
            else:
                sys.stdout.write(f"{pad}{key}: {val}\n")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                _emit_human(val, indent + 1)
            else:
                sys.stdout.write(f"{pad}- {val}\n")
    else:
        sys.stdout.write(f"{pad}{obj}\n")


def _load_config(args) -> tuple:
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise BadParams("the config file must hold a JSON object")
    alloc_spec = raw.pop("allocation_index_multiset", None)
    config = PipelineConfig.from_json(raw, seed=args.seed)
    alloc = None
    if alloc_spec:
        try:
            alloc = allocation_from_index_multiset([tuple(v) for v in alloc_spec])
        except (TypeError, ValueError):
            raise BadParams("allocation_index_multiset must list integer vectors") from None
    return config, alloc


def _certificate_exit(view, cert: Certificate, args) -> int:
    """Recheck the certificate on the pipeline's view of the input, then emit it."""
    if args.verify and cert.conclusive:
        ok = verify_certificate(view, cert)
        cert.diagnostics["reverified"] = ok
        if not ok:
            cert = Certificate(
                tag="Inconclusive",
                payload={"reason": "certificate failed re-verification"},
                diagnostics=cert.diagnostics,
            )
    _emit(cert.to_json(), args.json)
    return EXIT_OK if cert.conclusive else EXIT_INCONCLUSIVE


def cmd_decide(args) -> int:
    _, alloc = _load_config(args)
    view = host_view(load_khg(args.file), alloc)
    return _certificate_exit(view, decide(view, alloc), args)


def cmd_match(args) -> int:
    config, alloc = _load_config(args)
    view = host_view(load_khg(args.file), alloc)
    return _certificate_exit(view, run_matching_pipeline(view, alloc, config), args)


def cmd_frac(args) -> int:
    config, alloc = _load_config(args)
    system = host_view(load_khg(args.file), alloc)
    alloc = alloc or plain_allocation(system.k)
    res = extract_weight_disjoint(system, alloc, args.ell, seed=config.seed)
    reports = [verify_fractional(system, g, alloc) for g in res.matchings]
    out = {
        "requested": res.requested,
        "extracted": len(res.matchings),
        "completed": res.completed,
        "min_pair_weight": res.diagnostics["min_pair_weight"],
        "all_exact": all(r["ok"] for r in reports),
        "supports": [r["support"] for r in reports],
    }
    if args.weights:
        out["matchings"] = [
            {"_".join(map(str, e)): str(w) for e, w in sorted(g.weights.items())}
            for g in res.matchings
        ]
    _emit(out, args.json)
    return EXIT_OK if res.completed else EXIT_INCONCLUSIVE


def cmd_barriers(args) -> int:
    _, alloc = _load_config(args)
    view = host_view(load_khg(args.file), alloc)
    if alloc is not None and not is_pf_partite(view, alloc):
        raise BadParams("system is not PF-partite for the given allocation")
    found = {}
    space = space_barrier_stage(view)
    if space is not None:
        found["space"] = space.to_json()
    div = divisibility_barrier_stage(view, alloc)
    if div is not None:
        found["divisibility"] = div.to_json()
    _emit({"found": found}, args.json)
    return EXIT_OK if found else EXIT_INCONCLUSIVE


def cmd_gen(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = GenSpec.from_json(fh.read())
    system = spec.generate()
    if system.implicit:
        raise BadParams(f"{system.top_count()} top edges are too many to write as khg")
    text = dump_khg(system)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.out, "edges": system.top_count()}, args.json)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_absorb_demo(args) -> int:
    config, alloc = _load_config(args)
    system = load_khg(args.file)
    alloc = alloc or plain_allocation(system.k)
    cfg = AbsorberConfig(seed=config.seed, mu=_effective_mu(system, MU))
    try:
        state = build_absorber(system, alloc, cfg)
        rng = random.Random(config.seed)
        avail = sorted(set(system.vertex_pool) - state.w_vertices)
        take = min(len(state.family.sets) * system.k, len(avail))
        take -= take % system.k
        leftover = sorted(rng.sample(avail, take)) if take else []
        matching = absorb(state, leftover)
    except (PreconditionFailed, AbsorberUnavailable, BudgetExhausted, AbsorptionFailed) as exc:
        # a valid host with no closed partition, or on which this absorber
        # cannot be built or cannot absorb
        _emit({"reason": f"{type(exc).__name__}: {exc}"}, args.json)
        return EXIT_INCONCLUSIVE
    out = {
        "w_size": len(state.w_vertices),
        "family": len(state.family.sets),
        "leftover": leftover,
        "matching_size": len(matching),
        "covers_w_and_leftover": matching.vertex_set()
        == state.w_vertices | set(leftover),
    }
    if args.state:
        out["state"] = state.to_json()
    _emit(out, args.json)
    return EXIT_OK if out["covers_w_and_leftover"] else EXIT_INCONCLUSIVE


def cmd_oracle(args) -> int:
    _load_config(args)
    system = load_khg(args.file)
    pm = brute_force_pm(system, cap=args.cap)
    frac = brute_force_fractional(system, cap=max(args.cap, 24))
    out = {
        "perfect_matching_exists": pm is not None,
        "fractional_feasible": frac,
    }
    if pm is not None:
        out["matching"] = [list(e) for e in pm.edges]
    _emit(out, args.json)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmatch",
        description="Perfect matchings in dense k-complexes: decide, match, and inspect.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (ell, seed, allocation_index_multiset)")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="re-verify certificates before emitting (default on)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common],
                       help="a bounded exact search and the barrier searches; reads no seed")
    p.add_argument("file")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("match", parents=[common], help="run the full matching pipeline")
    p.add_argument("file")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("frac", parents=[common], help="extract weight-disjoint fractional matchings")
    p.add_argument("file")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--weights", action="store_true", help="include full weight maps")
    p.set_defaults(func=cmd_frac)

    p = sub.add_parser("barriers", parents=[common], help="search for barrier certificates")
    p.add_argument("file")
    p.set_defaults(func=cmd_barriers)

    p = sub.add_parser("gen", parents=[common], help="generate an instance from a JSON spec")
    p.add_argument("spec")
    p.add_argument("-o", "--out", help="write khg here instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("absorb-demo", parents=[common], help="build an absorber and absorb a random leftover")
    p.add_argument("file")
    p.add_argument("--state", action="store_true", help="include the serialized absorber state")
    p.set_defaults(func=cmd_absorb_demo)

    p = sub.add_parser("oracle", parents=[common], help="brute-force ground truth for small instances")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=15)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: cannot read input: {exc}\n")
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: bad JSON input: {exc}\n")
        return EXIT_INPUT
    except KmatchError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
