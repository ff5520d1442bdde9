"""Command-line surface: reproducible JSON runs over configuration files.

Machine output (JSON) goes to stdout, a short human summary to stderr.
Every report embeds its run manifest (command, inputs, seed, flags, tool
version, digest of the result payload): identical manifests produce
byte-identical outputs, since all randomness flows from the --seed flag.

Exit codes: 0 success; 1 a mathematical invariant or bound violation was
detected (the counterexample is dumped); 2 invalid input or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

try:
    # the lean builtin module, as `random` does for sha512: hashlib loads
    # OpenSSL, about 4 MB of resident memory in every CLI process
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # its name before 3.12
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256

from . import __version__
from .configuration import (
    Configuration,
    configuration_to_json_dict,
    parse_configuration,
    parse_pairs,
    transversal_points,
    validate,
)
from .crosspos import CrossPosition, find_cross_position, is_deformed_cross_position
from .depth import antipodal_check, colourful_depth, d_depth, simplex_contains_origin
from .errors import InputError, ViolationError
from .exactgeom import point_from_strings
from .search import minimize_depth, random_configuration
from .witness import generate_witnesses, theorem_bound, verify_witness_set


def _canonical(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(command: str, inputs: list[str], seed: Optional[int],
          flags: dict, result: dict, summary: str) -> None:
    payload = _canonical(result)
    manifest = {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "flags": flags,
        "version": __version__,
        "output_digest": "sha256:" + sha256(payload.encode()).hexdigest(),
    }
    sys.stdout.write(_canonical({"manifest": manifest, "result": result}) + "\n")
    sys.stderr.write(summary + "\n")


def _read_config(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_configuration(fh.read())


def _parse_colours(text: str, d: int) -> tuple[int, ...]:
    try:
        subset = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"--colours must be comma-separated integers, got {text!r}")
    if len(subset) != d:
        raise InputError(f"--colours needs {d} entries for dimension {d}")
    return subset


def _cmd_gen(args) -> int:
    config = random_configuration(args.d, args.seed)
    result = configuration_to_json_dict(config)
    _emit("gen", [], args.seed, {"d": args.d}, result,
          f"generated d={args.d} configuration (seed {args.seed})")
    return 0


def _cmd_depth(args) -> int:
    config = _read_config(args.config)
    report = colourful_depth(config)
    _emit("depth", [args.config], None, {}, report.to_json_dict(),
          f"depth {report.depth} over {(config.dimension + 1) ** (config.dimension + 1)} "
          f"transversals (d={config.dimension})")
    return 0


def _cmd_ddepth(args) -> int:
    config = _read_config(args.config)
    subset = _parse_colours(args.colours, config.dimension)
    direction = point_from_strings(args.dir.split(","))
    value = d_depth(config, subset, direction)
    result = {
        "d_depth": value,
        "colours": list(subset),
        "direction": [str(c) for c in direction],
    }
    _emit("ddepth", [args.config], None,
          {"colours": args.colours, "dir": args.dir}, result,
          f"direction lies in {value} of {(config.dimension + 1) ** config.dimension} cones")
    return 0


def _cmd_cross(args) -> int:
    config = _read_config(args.config)
    subset = _parse_colours(args.colours, config.dimension)
    found = find_cross_position(config, subset, seed=args.seed)
    if isinstance(found, CrossPosition):
        result = dict(found.to_json_dict(), found=True)
        summary = "cross position found and certified"
    else:
        result = found.to_json_dict()
        summary = (f"no cross position found; minimum observed cone count "
                   f"{found.min_d_depth} over {found.candidates_tried} candidates")
    _emit("cross", [args.config], args.seed, {"colours": args.colours},
          result, summary)
    return 0


def _cmd_cross_check(args) -> int:
    with open(args.pairs, "r", encoding="utf-8") as fh:
        pairs = parse_pairs(fh.read())
    cert = is_deformed_cross_position(pairs)
    _emit("cross-check", [args.pairs], None, {}, cert.to_json_dict(),
          "covered" if cert.covered else "not covered: exact witness attached")
    return 0


def _cmd_witness(args) -> int:
    config = _read_config(args.config)
    ws = generate_witnesses(config, seed=args.seed)
    if not verify_witness_set(config, ws):
        raise ViolationError("generated witness set failed independent re-verification")
    _emit("witness", [args.config], args.seed, {}, ws.to_json_dict(),
          f"{len(ws.simplices)} verified simplices (bound {ws.bound})")
    return 0


def _cmd_search(args) -> int:
    report = minimize_depth(args.d, args.restarts, args.steps, args.seed)
    _emit("search", [], args.seed,
          {"d": args.d, "restarts": args.restarts, "steps": args.steps},
          report.to_json_dict(),
          f"best depth {report.best_depth} "
          f"(bound {report.comparison['lower_bound']}, "
          f"proven minimum {report.comparison['conjecture']})")
    return 0


def _verify_checks(config: Configuration, seed: int) -> list[dict]:
    import random as _random

    d = config.dimension
    checks = []
    report = validate(config)
    checks.append({"name": "validation", "passed": True,
                   "detail": report.to_json_dict()})

    if report.general_position:
        rng = _random.Random(seed)
        choices = [tuple(rng.randrange(d + 1) for _ in range(d + 1))
                   for _ in range(200)]
        mismatches = 0
        for choice in choices:
            verdict, _ = simplex_contains_origin(transversal_points(config, choice))
            for colour in range(d + 1):
                if antipodal_check(config, choice, colour) != verdict:
                    mismatches += 1
        checks.append({"name": "antipodal_equivalence",
                       "passed": mismatches == 0,
                       "detail": f"{len(choices)} sampled transversals, "
                                 f"{mismatches} mismatches"})
    else:
        checks.append({"name": "antipodal_equivalence", "passed": True,
                       "detail": "skipped: configuration not in general position"})

    if report.zero_in_core:
        depth = colourful_depth(config).depth
        bound = theorem_bound(d)
        ok = depth >= bound and depth >= 2 * d
        detail = f"depth {depth}, bounds {bound} and {2 * d}"
        if report.general_position:
            # in general position the minimum is d^2+1 (Sarrabezolles 2015)
            # and the maximum d^(d+1)+1 (Adiprasito et al. 2020)
            low, high = d * d + 1, d ** (d + 1) + 1
            ok = ok and low <= depth <= high
            detail += f"; general position: minimum {low}, maximum {high}"
        checks.append({"name": "depth_lower_bounds", "passed": ok, "detail": detail})
        ws = generate_witnesses(config, seed=seed)
        checks.append({"name": "witness_construction",
                       "passed": verify_witness_set(config, ws),
                       "detail": f"{len(ws.simplices)} simplices against bound {ws.bound}"})
    else:
        checks.append({"name": "depth_lower_bounds", "passed": True,
                       "detail": "skipped: origin not in core, bound not applicable"})
    return checks


def _cmd_verify(args) -> int:
    config = _read_config(args.config)
    checks = _verify_checks(config, args.seed)
    passed = all(c["passed"] for c in checks)
    result = {"passed": passed, "checks": checks}
    _emit("verify", [args.config], args.seed, {}, result,
          "all checks passed" if passed else "CHECK FAILED")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdepth",
        description="Exact colourful simplicial depth toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a random valid configuration")
    p.add_argument("-d", type=int, required=True, help="ambient dimension")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("depth", help="colourful simplicial depth of the origin")
    p.add_argument("config")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("ddepth", help="number of coloured cones containing a direction")
    p.add_argument("config")
    p.add_argument("--colours", required=True,
                   help="comma-separated colour subset of size d, e.g. 0,2")
    p.add_argument("--dir", required=True,
                   help="comma-separated rational coordinates, e.g. 1,-1/2")
    p.set_defaults(func=_cmd_ddepth)

    p = sub.add_parser("cross", help="search for a deformed cross position")
    p.add_argument("config")
    p.add_argument("--colours", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cross)

    p = sub.add_parser("cross-check",
                       help="decide coverage for a pair family file")
    p.add_argument("pairs")
    p.set_defaults(func=_cmd_cross_check)

    p = sub.add_parser("witness", help="construct verified origin-containing simplices")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("search", help="minimize depth by seeded hill descent")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--restarts", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the invariant suite on one configuration")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ViolationError as e:
        payload = {"violation": str(e), "counterexample": e.counterexample}
        sys.stdout.write(_canonical(payload) + "\n")
        sys.stderr.write(f"mathematical violation: {e}\n")
        return 1
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (OSError, UnicodeDecodeError) as e:
        # unreadable input file: a missing path, a directory, bytes that are
        # not UTF-8
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
