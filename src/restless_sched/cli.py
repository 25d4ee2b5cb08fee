"""Command-line front end.

Subcommands: validate, spectral, solve, compare, bounds, simulate,
generate, certify-sweep.  JSON for structured reports, CSV for sweeps;
floats are serialized with 17 significant digits.  Every command is
single-threaded and deterministic in its arguments, so rerunning it
gives byte-identical artifacts; ``simulate`` prints the same estimate
with or without ``--dump-csv``.  Exit codes: 0 success, 1 domain
failure (regime Neither, nonzero gap, bound violation, generation
failure, and in ``certify-sweep`` any seed that fails to generate or,
with ``--violate``, no instance certified), 2 usage or format error,
including ``bounds`` on an instance with one project or no verified
regime and a ``--violate`` that names no clause of ``--regime``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .assumptions import verify_assumption1, verify_assumption2
from .bounds import check_bounds_suite
from .dp import certify_myopic, optimal_value
from .exceptions import RestlessSchedError
from .filtering import BeliefProfile
from .generate import (
    GeneratorParams,
    gen_assumption1_instance,
    gen_assumption2_instance,
    perturb_violate,
)
from .policy import myopic_policy, round_robin_policy, stay_policy
from .simulate import estimate_value
from .spectral import discount_matrices, eigendecompose, reward_separation_check
from .types import ModelInstance, validate_instance

GAP_TOL = 1e-9
CSV_HEADER = f"# restless-sched {__version__}"


def _fmt(x: float) -> str:
    return "%.17g" % x


def _dump_json(obj) -> str:
    """JSON with every float at 17 significant digits."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _dump_json(obj.tolist())
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_dump_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out_path: str | None):
    doc = {"version": __version__, **doc}
    _emit(_dump_json(doc), out_path)


def _emit_csv(rows: list[str], out_path: str | None):
    _emit("\n".join([CSV_HEADER] + rows) + "\n", out_path)


def _load_instance(path: str) -> ModelInstance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}")
    try:
        inst = ModelInstance.from_json(text)
    except (ValueError, RestlessSchedError) as e:
        raise _UsageError(f"malformed instance {path}: {e}")
    report = validate_instance(inst)
    if not report.ok:
        raise _UsageError(f"invalid instance {path}: " + "; ".join(report.problems))
    return inst


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- commands


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    r1 = verify_assumption1(inst, alt_clause3=args.alt_clause3)
    r2 = verify_assumption2(inst, alt_clause3=args.alt_clause3)
    regime = r1.regime if r1.satisfied else r2.regime
    _emit_json(
        {
            "regime": regime,
            "assumption1": r1.to_json_dict(),
            "assumption2": r2.to_json_dict(),
        },
        args.out,
    )
    return 0 if regime != "Neither" else 1


def _cmd_spectral(args) -> int:
    inst = _load_instance(args.instance)
    dec = eigendecompose(inst.A)
    disc = discount_matrices(dec, inst.beta)
    sep = reward_separation_check(inst.R, disc.Q)
    _emit_json(
        {
            "eigenvalues": dec.eigenvalues,
            "upsilon_diag": np.diag(disc.Upsilon),
            "Q": disc.Q,
            "residual": dec.residual,
            "separation_margins": sep.margins,
            "separation_passed": bool(sep.passed),
        },
        args.out,
    )
    return 0 if sep.passed else 1


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    profile = BeliefProfile(inst.initial_beliefs, 0)
    value, action = optimal_value(inst, profile, 0, args.horizon)
    _emit_json({"optimal_value": value, "best_action": action, "horizon": args.horizon}, args.out)
    return 0


def _cmd_compare(args) -> int:
    inst = _load_instance(args.instance)
    report = certify_myopic(inst, args.horizon)
    _emit_json(report.to_json_dict(), args.out)
    return 0 if report.gap <= GAP_TOL else 1


def _cmd_bounds(args) -> int:
    inst = _load_instance(args.instance)
    try:
        samples = check_bounds_suite(inst, args.samples, args.seed)
    except ValueError as e:
        # An instance the suite cannot run on: one project, one state, or
        # neither regime.
        raise _UsageError(str(e)) from e
    rows = ["case,t,T,slack_low,slack_high,verdict"]
    rows += [
        f"{s.case},{s.t},{s.T},{_fmt(s.slack_low)},{_fmt(s.slack_high)},{s.verdict}"
        for s in samples
    ]
    _emit_csv(rows, args.out)
    return 0 if all(s.verdict == "Pass" for s in samples) else 1


_POLICIES = {
    "myopic": lambda inst: myopic_policy(inst),
    "round-robin": lambda inst: round_robin_policy(inst.n_projects),
    "stay-1": lambda inst: stay_policy(1),
}


def _cmd_simulate(args) -> int:
    inst = _load_instance(args.instance)
    policy = _POLICIES[args.policy](inst)
    mean, stderr, totals = estimate_value(
        inst, policy, args.horizon, args.n_traj, args.seed, return_totals=True
    )
    if args.dump_csv:
        _emit_csv(
            ["trajectory,discounted_total"]
            + [f"{i},{_fmt(v)}" for i, v in enumerate(totals)],
            args.dump_csv,
        )
    _emit_json(
        {"mean": mean, "stderr": stderr, "n_traj": args.n_traj, "seed": args.seed},
        args.out,
    )
    return 0


def _generator_params(args) -> GeneratorParams:
    return GeneratorParams(max_attempts=args.max_attempts)


def _check_violate(args) -> None:
    """Reject a ``--violate`` that does not name a clause 1 to 5 of
    ``--regime``: breaking another regime's clause leaves the generated
    regime intact."""
    if args.violate is None:
        return
    regime, _, clause = args.violate.partition(".")
    if regime != str(args.regime) or clause not in ("1", "2", "3", "4", "5"):
        raise _UsageError(
            f"--violate must name a clause {args.regime}.1 to {args.regime}.5 of "
            f"--regime {args.regime}, got {args.violate!r}"
        )


def _generate_one(args, seed: int) -> ModelInstance:
    params = _generator_params(args)
    if args.regime == 1:
        inst = gen_assumption1_instance(params, seed)
    else:
        inst = gen_assumption2_instance(params, seed)
    if args.violate:
        inst = perturb_violate(inst, args.violate, seed)
    return inst


def _cmd_generate(args) -> int:
    _check_violate(args)
    inst = _generate_one(args, args.seed)
    _emit_json(inst.to_json_dict(), args.out)
    return 0


def _cmd_certify_sweep(args) -> int:
    _check_violate(args)
    rows = ["seed,regime,status,gap,argmax_agreement"]
    n_pass = n_fail = n_ungenerated = 0
    for seed in range(args.seed, args.seed + args.instances):
        try:
            inst = _generate_one(args, seed)
        except RestlessSchedError as e:
            rows.append(f"{seed},{args.regime},generation-failed,,")
            print(f"seed {seed}: {e}", file=sys.stderr)
            n_ungenerated += 1
            continue
        report = certify_myopic(inst, args.horizon)
        if report.gap <= GAP_TOL:
            status = "pass"
            n_pass += 1
        else:
            status = "gap"
            n_fail += 1
        rows.append(
            f"{seed},{args.regime},{status},{_fmt(report.gap)},{_fmt(report.argmax_agreement)}"
        )
    rows.append(f"# pass {n_pass} fail {n_fail} of {n_pass + n_fail}")
    _emit_csv(rows, args.out)
    # A violated clause removes the optimality guarantee, so gaps there
    # are data, not failures; a sweep that certified nothing shows nothing.
    if args.violate:
        return 0 if n_pass + n_fail else 1
    return 0 if n_fail == 0 and n_ungenerated == 0 else 1


# ---------------------------------------------------------------- parser


def _at_least(minimum: int):
    """An argparse type: an integer ``minimum`` or more."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = minimum - 1
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return n

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restless-sched",
        description="Certification toolkit for myopic scheduling of restless projects.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the artifact here instead of stdout")
        return p

    p = add("validate", _cmd_validate, help="verify the assumption regimes of an instance")
    p.add_argument("instance")
    p.add_argument("--alt-clause3", action="store_true", help="mirrored clause-3 reference")

    p = add("spectral", _cmd_spectral, help="eigenstructure and reward separation")
    p.add_argument("instance")

    p = add("solve", _cmd_solve, help="exact finite-horizon optimum")
    p.add_argument("instance")
    p.add_argument("--horizon", type=_at_least(0), required=True)

    p = add("compare", _cmd_compare, help="optimal vs myopic value")
    p.add_argument("instance")
    p.add_argument("--horizon", type=_at_least(0), required=True)

    p = add("bounds", _cmd_bounds, help="sampled sensitivity-bound containment")
    p.add_argument("instance")
    p.add_argument("--samples", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)

    p = add("simulate", _cmd_simulate, help="Monte Carlo value estimate")
    p.add_argument("instance")
    p.add_argument("--horizon", type=_at_least(0), required=True)
    p.add_argument("--n-traj", type=_at_least(2), default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=sorted(_POLICIES), default="myopic")
    p.add_argument("--dump-csv", help="also write per-trajectory totals to this CSV")

    def add_gen_flags(p):
        p.add_argument("--regime", type=int, choices=(1, 2), required=True)
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--violate", metavar="CLAUSE", help="e.g. 1.5: break this clause")
        p.add_argument("--max-attempts", type=_at_least(1), default=1000)

    p = add("generate", _cmd_generate, help="sample a verified (or violated) instance")
    add_gen_flags(p)

    p = add("certify-sweep", _cmd_certify_sweep, help="generate and certify many instances")
    add_gen_flags(p)
    p.add_argument("--instances", type=_at_least(1), default=100)
    p.add_argument("--horizon", type=_at_least(0), default=3)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RestlessSchedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
