"""Command line front end: run one simulation, verify properties, compare schemes.

Exit codes: 0 success, 2 property failure or non-convergence, 3 partition
detected, 4 input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AdditionForbiddenError, LinkrevError, OverflowRiskError, ScenarioError
from .generate import exhaustive_void_scenarios, random_void_scenario
from .model import ALL_SCHEMES, CORE_SCHEMES, SchemeId
from .scenario import Scenario, load_scenario
from .schemes import state_bits
from .sim import Outcome, Schedule, run_scenario
from .traceio import EXPORT_FORMATS, export_trace
from .verify import EQUIVALENCE_PAIRS, check_order_invariance, standard_battery

EXIT_OK = 0
EXIT_PROPERTY = 2
EXIT_PARTITIONED = 3
EXIT_INPUT = 4

_SCHEME_NAMES = tuple(s.value for s in ALL_SCHEMES)


class _InputError(Exception):
    """User-supplied input could not be used; maps to exit code 4."""


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except (ScenarioError, OverflowRiskError, AdditionForbiddenError) as exc:
        raise _InputError(f"{path}: {exc}") from None
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None


def _parse_scheme(name: str) -> SchemeId:
    try:
        return SchemeId(name)
    except ValueError:
        raise _InputError(
            f"unknown scheme {name!r}; expected one of {', '.join(_SCHEME_NAMES)}"
        ) from None


def _parse_schedule(text: str, seed: int) -> Schedule:
    if text == "single":
        return Schedule.single_random(seed)
    if text == "subset":
        return Schedule.subset_random(seed)
    if text.startswith("fixed:"):
        steps = []
        for chunk in text[len("fixed:") :].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                steps.append(tuple(int(tok) for tok in chunk.split(",")))
            except ValueError:
                raise _InputError(f"bad fixed schedule chunk {chunk!r}") from None
        return Schedule.fixed(steps, label="cli")
    raise _InputError(
        f"unknown schedule {text!r}; expected single, subset, or fixed:1;2,3"
    )


def _outcome_exit(outcome: Outcome) -> int:
    if outcome is Outcome.CONVERGED:
        return EXIT_OK
    if outcome is Outcome.PARTITIONED:
        return EXIT_PARTITIONED
    return EXIT_PROPERTY


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    scheme = _parse_scheme(args.scheme)
    seed = args.seed if args.seed is not None else (scenario.seed or 0)
    schedule = _parse_schedule(args.schedule, seed)
    trace = run_scenario(scenario, scheme, schedule, step_limit=args.step_limit)

    counts = " ".join(f"{i}={c}" for i, c in sorted(trace.update_counts.items()))
    print(
        f"{trace.outcome} steps={len(trace.steps)} updates={trace.total_updates} "
        f"reversals={trace.total_reversals}"
    )
    print(f"updates by node: {counts}")
    if trace.certificate:
        print(f"partition certificate: {trace.certificate}")
    if trace.events_applied:
        applied = "; ".join(f"step {s}: {text}" for s, text in trace.events_applied)
        print(f"events applied: {applied}")
    if args.trace_out:
        Path(args.trace_out).write_text(export_trace(trace, args.format), encoding="utf-8")
        print(f"trace written to {args.trace_out} ({args.format})")
    return _outcome_exit(trace.outcome)


def cmd_verify(args: argparse.Namespace) -> int:
    schemes = CORE_SCHEMES if args.scheme == "all" else (_parse_scheme(args.scheme),)
    scenarios: list[Scenario] = [_load(p) for p in args.scenarios]
    if args.random:
        n, count = args.random
        scenarios.extend(random_void_scenario(n, args.seed + k) for k in range(count))
    if not scenarios and not args.exhaustive:
        print("nothing to verify: give scenario files, --random, or --exhaustive", file=sys.stderr)
        return EXIT_INPUT

    reports = []
    for scenario in scenarios:
        reports.extend(standard_battery(scenario, schemes, seed=args.seed))
    scenario_count = len(scenarios)
    if args.exhaustive:
        for scenario in exhaustive_void_scenarios(args.exhaustive):
            scenario_count += 1
            for scheme in schemes:
                reports.append(check_order_invariance(scenario, scheme))

    failed = [r for r in reports if not r.passed and not r.informational]
    by_check: dict[str, list] = {}
    for r in reports:
        by_check.setdefault(r.check, []).append(r)
    for check, group in sorted(by_check.items()):
        bad = [r for r in group if not r.passed and not r.informational]
        info = [r for r in group if r.informational]
        status = "FAIL" if bad else "PASS"
        extra = f" ({len(info)} informational)" if info else ""
        print(f"{status} {check}: {len(group) - len(bad)}/{len(group)}{extra}")
    for r in failed:
        print(f"  {r.line()}")
        if r.counterexample and args.verbose:
            print(f"    schedule: {r.counterexample.schedule.describe()}")
            print("    scenario:")
            for line in r.counterexample.scenario_text.splitlines():
                print(f"      {line}")
    for r in reports:
        if r.informational and r.detail and args.verbose:
            print(f"  {r.line()}")
    print(f"checked {len(reports)} reports across {scenario_count} scenarios")
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    schemes = [_parse_scheme(tok) for tok in args.schemes.split(",")]
    if len(schemes) < 2:
        raise LinkrevError("compare needs at least two schemes")
    seed = args.seed if args.seed is not None else (scenario.seed or 0)
    schedule = _parse_schedule(args.schedule, seed)

    rows = []
    worst = Outcome.CONVERGED
    for scheme in schemes:
        trace = run_scenario(scenario, scheme, schedule, step_limit=args.step_limit)
        bits = max(
            (state_bits(scheme, s) for rec in trace.steps for s in rec.new_states),
            default=max(state_bits(scheme, s) for s in trace.final_states),
        )
        rows.append((scheme.value, trace.outcome.value, len(trace.steps),
                     trace.total_updates, trace.total_reversals, bits, trace))
        if trace.outcome is Outcome.PARTITIONED:
            worst = Outcome.PARTITIONED
        elif trace.outcome is Outcome.STEP_LIMIT and worst is Outcome.CONVERGED:
            worst = Outcome.STEP_LIMIT

    header = f"{'scheme':<20} {'outcome':<12} {'steps':>6} {'updates':>8} {'reversals':>10} {'max-bits':>9}"
    print(header)
    print("-" * len(header))
    for name, outcome, steps, updates, reversals, bits, _ in rows:
        print(f"{name:<20} {outcome:<12} {steps:>6} {updates:>8} {reversals:>10} {bits:>9}")

    by_scheme = {SchemeId(name): trace for name, *_rest, trace in rows}
    for reference, shadow, gating in EQUIVALENCE_PAIRS:
        if reference in by_scheme and shadow in by_scheme:
            a, b = by_scheme[reference], by_scheme[shadow]
            same = (
                len(a.steps) == len(b.steps)
                and all(x.updated == y.updated for x, y in zip(a.steps, b.steps))
                and a.final_digest == b.final_digest
            )
            kind = "expected lockstep" if gating else "informational"
            if same:
                print(f"{reference.value} vs {shadow.value}: identical runs ({kind})")
            else:
                diff = _first_divergence(a, b)
                print(f"{reference.value} vs {shadow.value}: diverge ({kind}; {diff})")
    return _outcome_exit(worst)


def _first_divergence(a, b) -> str:
    for x, y in zip(a.steps, b.steps):
        if x.updated != y.updated or x.dag_digest != y.dag_digest:
            return f"first at step {x.index}"
    if len(a.steps) != len(b.steps):
        extra = abs(len(a.steps) - len(b.steps))
        longer = a.scheme.value if len(a.steps) > len(b.steps) else b.scheme.value
        return f"{longer} needs {extra} extra step(s)"
    return "final states differ"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkrev",
        description="Simulate and verify link reversal routing schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scheme on one scenario")
    run.add_argument("scenario", help="scenario file")
    run.add_argument("--scheme", required=True, help="|".join(_SCHEME_NAMES))
    run.add_argument("--schedule", default="single", help="single | subset | fixed:1;2,3")
    run.add_argument("--seed", type=int, default=None, help="overrides the scenario seed")
    run.add_argument("--step-limit", type=int, default=None)
    run.add_argument("--trace-out", default=None, help="write the trace to this file")
    run.add_argument("--format", default="jsonl", choices=EXPORT_FORMATS)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run the property battery")
    verify.add_argument("scenarios", nargs="*", help="scenario files")
    verify.add_argument("--random", nargs=2, type=int, metavar=("N", "COUNT"),
                        help="add COUNT random void scenarios with N nodes")
    verify.add_argument("--exhaustive", type=int, metavar="N",
                        help="enumerate every schedule on all connected N-node topologies")
    verify.add_argument("--scheme", default="all", help="all | one scheme name")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--verbose", action="store_true")
    verify.set_defaults(func=cmd_verify)

    compare = sub.add_parser("compare", help="run several schemes on one scenario")
    compare.add_argument("scenario", help="scenario file")
    compare.add_argument("--schemes", required=True, help="comma-separated scheme names")
    compare.add_argument("--schedule", default="single")
    compare.add_argument("--seed", type=int, default=None)
    compare.add_argument("--step-limit", type=int, default=None)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LinkrevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
