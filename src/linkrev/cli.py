"""Command line front end: run one simulation, verify properties, compare schemes.

Exit codes: 0 success, 2 property failure or non-convergence, 3 partition
detected, 4 input error, which includes a height or threshold that would
leave the signed 64-bit range in run or compare.  verify reports such a
run as a failing termination or determinism check of its scheme instead.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterable, Iterator
from itertools import chain

from .errors import (
    AdditionForbiddenError,
    LinkrevError,
    OverflowRiskError,
    ScenarioError,
    ScheduleError,
)
from .generate import exhaustive_void_scenarios, random_void_scenario
from .scenario import Scenario, load_scenario
from .schemes import ALL_SCHEMES, CORE_SCHEMES, SchemeId, initial_states, state_bits
from .sim import Outcome, Schedule, Trace, run_scenario
from .traceio import EXPORT_FORMATS, write_trace
from .verify import (
    EQUIVALENCE_PAIRS,
    CheckReport,
    check_order_invariance,
    check_scheme_equivalence,
    standard_battery,
)

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


def _parse_schedule(text: str, seed: int, n: int) -> Schedule:
    """The --schedule option; a fixed step naming an id outside 1..n is an input error."""
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
                step = tuple(int(tok) for tok in chunk.split(","))
            except ValueError:
                raise _InputError(f"bad fixed schedule chunk {chunk!r}") from None
            outside = sorted({i for i in step if not 1 <= i <= n})
            if outside:
                raise _InputError(
                    f"fixed schedule step {len(steps) + 1} names {outside}, "
                    f"which are not nodes 1..{n} of the scenario"
                )
            steps.append(step)
        try:
            return Schedule.fixed(steps, label="cli")
        except ScheduleError as exc:
            raise _InputError(str(exc)) from None
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
    schedule = _parse_schedule(args.schedule, seed, scenario.n)
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
        try:
            write_trace(trace, args.trace_out, args.format)
        except OSError as exc:
            raise _InputError(f"cannot write {args.trace_out}: {exc}") from None
        print(f"trace written to {args.trace_out} ({args.format})")
    return _outcome_exit(trace.outcome)


#: verify --exhaustive writes a progress line to stderr after this many scenarios.
PROGRESS_EVERY = 1000


class _Summary:
    """verify's summary, tallied as the reports arrive.

    Only the counts per check are kept for every report; a report itself is
    kept when it fails, or when it is informational with a detail and
    --verbose will print it.
    """

    def __init__(self, verbose: bool):
        self.verbose = verbose
        self.reports = 0
        self.counts: dict[str, list[int]] = {}  # check -> [reports, failed, informational]
        self.failed: list[CheckReport] = []
        self.notes: list[CheckReport] = []

    def add(self, reports: Iterable[CheckReport]) -> None:
        for r in reports:
            self.reports += 1
            counts = self.counts.setdefault(r.check, [0, 0, 0])
            counts[0] += 1
            if r.informational:
                counts[2] += 1
                if r.detail and self.verbose:
                    self.notes.append(r)
            elif not r.passed:
                counts[1] += 1
                self.failed.append(r)

    def show(self, scenario_count: int) -> None:
        for check, (total, bad, info) in sorted(self.counts.items()):
            if info == total:
                print(f"INFO {check}: {info} informational")
                continue
            status = "FAIL" if bad else "PASS"
            extra = f" ({info} informational)" if info else ""
            print(f"{status} {check}: {total - bad - info}/{total}{extra}")
        for r in self.failed:
            print(f"  {r.line()}")
            if r.counterexample and self.verbose:
                if r.counterexample.schedule is not None:
                    print(f"    schedule: {r.counterexample.schedule.describe()}")
                print("    scenario:")
                for line in r.counterexample.scenario_text.splitlines():
                    print(f"      {line}")
        for r in self.notes:
            print(f"  {r.line()}")
        print(f"checked {self.reports} reports across {scenario_count} scenarios")


def _random_scenarios(n: int, count: int, seed: int) -> Iterator[Scenario]:
    """The --random scenarios, each made only when its battery is due.

    A count below 1 is an input error.  The first scenario is made at once,
    so that a size the generator rejects is an input error before any
    battery runs.
    """
    if count < 1:
        raise _InputError(f"--random {n} {count}: the scenario count must be at least 1")
    try:
        first = random_void_scenario(n, seed)
    except ValueError as exc:
        raise _InputError(f"--random {n} {count}: {exc}") from None
    rest = (random_void_scenario(n, seed + k) for k in range(1, count))
    return chain((first,), rest)


def cmd_verify(args: argparse.Namespace) -> int:
    schemes = CORE_SCHEMES if args.scheme == "all" else (_parse_scheme(args.scheme),)
    loaded = [_load(p) for p in args.scenarios]
    randoms = _random_scenarios(*args.random, args.seed) if args.random else iter(())
    if args.exhaustive is not None and args.exhaustive < 1:
        raise _InputError(f"--exhaustive takes a node count, got {args.exhaustive}")
    if not loaded and args.random is None and args.exhaustive is None:
        print("nothing to verify: give scenario files, --random, or --exhaustive", file=sys.stderr)
        return EXIT_INPUT

    started = time.monotonic()
    summary = _Summary(args.verbose)
    scenario_count = 0
    for scenario in chain(loaded, randoms):
        scenario_count += 1
        summary.add(standard_battery(scenario, schemes, seed=args.seed))
    if args.exhaustive:
        for done, scenario in enumerate(exhaustive_void_scenarios(args.exhaustive), start=1):
            scenario_count += 1
            summary.add(check_order_invariance(scenario, scheme) for scheme in schemes)
            if done % PROGRESS_EVERY == 0:
                print(
                    f"exhaustive n={args.exhaustive}: {done} scenarios, {summary.reports} reports, "
                    f"{time.monotonic() - started:.1f} s",
                    file=sys.stderr,
                )
    summary.show(scenario_count)
    return EXIT_PROPERTY if summary.failed else EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    schemes = [_parse_scheme(tok) for tok in args.schemes.split(",")]
    if len(schemes) < 2:
        raise _InputError("compare needs at least two schemes")
    if len(set(schemes)) < len(schemes):
        raise _InputError(f"--schemes names a scheme twice: {args.schemes}")
    seed = args.seed if args.seed is not None else (scenario.seed or 0)
    schedule = _parse_schedule(args.schedule, seed, scenario.n)

    by_scheme: dict[SchemeId, Trace] = {}
    rows = []
    for scheme in schemes:
        try:
            trace = run_scenario(scenario, scheme, schedule, step_limit=args.step_limit)
        except OverflowRiskError as exc:
            raise _InputError(f"{scheme.value}: {exc}") from None
        # Every state a node held is its initial one or a recorded update.
        held = chain(
            initial_states(scheme, scenario.topology, scenario.heights).values(),
            (s for rec in trace.steps for s in rec.new_states),
        )
        bits = max(state_bits(scheme, s) for s in held)
        rows.append(
            f"{scheme.value:<20} {trace.outcome.value:<12} {len(trace.steps):>6} "
            f"{trace.total_updates:>8} {trace.total_reversals:>10} {bits:>9}"
        )
        by_scheme[scheme] = trace

    header = f"{'scheme':<20} {'outcome':<12} {'steps':>6} {'updates':>8} {'reversals':>10} {'max-bits':>9}"
    print(header)
    print("-" * len(header))
    print("\n".join(rows))

    code = max(_outcome_exit(trace.outcome) for trace in by_scheme.values())
    for reference, shadow, gating in EQUIVALENCE_PAIRS:
        if reference in by_scheme and shadow in by_scheme:
            # Judged as verify judges a gated pair; an informational pair
            # differs only in its label and in never setting the exit code.
            report = check_scheme_equivalence(by_scheme[reference], shadow, gating=True)
            kind = "expected lockstep" if gating else "informational"
            if report.passed:
                print(f"{reference.value} vs {shadow.value}: identical runs ({kind})")
            else:
                print(f"{reference.value} vs {shadow.value}: diverge ({kind}; {report.detail})")
                if gating:
                    code = max(code, EXIT_PROPERTY)
    return code


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
        if getattr(args, "step_limit", None) is not None and args.step_limit < 0:
            raise _InputError(f"--step-limit must not be negative, got {args.step_limit}")
        return args.func(args)
    except (_InputError, OverflowRiskError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LinkrevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
