"""Command-line front end: series, biject, enumerate, toggle, verify, render.

Exit codes are a stable contract: 0 success, 2 usage, 3 non-convergence,
4 invariant failure. Reports on stdout are byte-deterministic for identical
inputs and seeds; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time

from . import bijections as bj
from . import configurations as cf
from . import oracle as oc
from . import serialize as sz
from . import series as sr
from . import verify as vf
from .errors import DomainError, NonConvergenceError, ScheduleError
from .halfint import HalfInt
from .partitions import as_partition, interlaces
from .render import render_ascii, render_svg
from .toggles import toggle_between, toggle_pop, toggle_push

EXIT_OK, EXIT_USAGE, EXIT_NONCONV, EXIT_INVARIANT = 0, 2, 3, 4


def parse_partition(text: str):
    text = text.strip()
    if text in ("", "-", "empty"):
        return ()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise DomainError(f"parts must be integers: {text!r}") from None
    return as_partition(parts)


def _non_negative(parse):
    """An argparse type: `parse`, then refuse a value below zero."""
    def check(text: str):
        value = parse(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
        return value
    check.__name__ = parse.__name__  # argparse names it in its error
    return check


def parse_legs(text: str):
    parts = text.split("/")
    if len(parts) != 2:
        raise DomainError(f"legs look like 2,2/3,1 (got {text!r})")
    return parse_partition(parts[0]), parse_partition(parts[1])


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Report:
    """Collects outputs and named checks for one command run."""

    def __init__(self, args):
        self.command = " ".join(args.argv)
        # the handler's repr carries a memory address, so it stays out, and
        # the digest is of what the argv parsed to, not of its spelling
        self.inputs_digest = _digest({k: v for k, v in vars(args).items()
                                      if k not in ("fn", "argv")})
        self.outputs: list[str] = []
        self.checks: list[dict] = []
        self.started = time.monotonic()
        self.as_json = getattr(args, "json", False)

    def emit(self, text: str):
        self.outputs.append(text)

    def check(self, name: str, passed: bool, detail: str = ""):
        self.checks.append({"name": name, "passed": passed, "detail": detail})

    def finish(self) -> int:
        failed = [c for c in self.checks if not c["passed"]]
        if self.as_json:
            print(json.dumps({"command": self.command,
                              "inputs": self.inputs_digest,
                              "outputs": self.outputs,
                              "checks": self.checks,
                              "wall_time_s": 0.0}, sort_keys=True))
        else:
            for line in self.outputs:
                print(line)
            for c in self.checks:
                print(vf.CheckResult(**c).line())
        print(f"wall time: {time.monotonic() - self.started:.2f}s",
              file=sys.stderr)
        return EXIT_INVARIANT if failed else EXIT_OK


def cmd_series(args) -> int:
    report = Report(args)
    degree = args.degree
    if args.macmahon:
        kind, legs = "macmahon", None
    elif args.one_leg is not None:
        kind, legs = "one-leg", parse_partition(args.one_leg)
    elif args.two_leg is not None:
        kind, legs = "two-leg-spp", parse_legs(args.two_leg)
    else:
        kind, legs = "two-leg-rpp", parse_legs(args.two_leg_rpp)
    result = sr.evaluate_stable(kind, legs, degree)
    report.emit(str(result))
    if args.cross_check:
        if kind == "macmahon":
            census = oc.census_series(oc.WeightCensus.take("plane", None, degree))
            report.check("census-agreement", census == result)
        elif kind == "one-leg":
            census = oc.census_series(
                oc.WeightCensus.take("one-leg-spp", legs, degree))
            report.check("census-agreement", census == result)
            report.check("hook-product-agreement",
                         sr.hook_product("outside", legs, degree) == result)
        else:
            lam, mu = legs
            m = sr.macmahon_series(degree)
            other = sr.evaluate_stable(
                "two-leg-rpp" if kind == "two-leg-spp" else "two-leg-spp",
                (mu, lam), degree)
            lhs = result if kind == "two-leg-spp" else other
            rhs = (m * other) if kind == "two-leg-spp" else (m * result)
            residual = lhs - rhs
            report.check("product-identity", residual.is_zero(),
                         f"residual {residual}")
    return report.finish()


def _load_json(args) -> dict:
    if args.input and args.input != "-":
        with open(args.input) as fh:
            payload = json.load(fh)
    else:
        payload = json.load(sys.stdin)
    if not isinstance(payload, dict):
        raise DomainError("input must be a JSON object")
    return payload


def _write_json(args, obj):
    _write(args, json.dumps(obj, sort_keys=True))


def _write(args, text: str):
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# family: the forward map, its inverse, the type the forward map takes, and
# the types the inverse takes by payload key (None: the whole payload), which
# are also the parts of the forward map's image
_BIJECTIONS = {
    "plane": (bj.pp_to_tableau, bj.tableau_to_pp, cf.PlanePartition,
              {None: cf.HookTableau}),
    "one-leg": (bj.one_leg_forward, bj.one_leg_inverse, cf.OneLegSPP,
                {"rho": cf.OneLegRPP, "pi": cf.PlanePartition}),
    "two-leg": (lambda sigma, schedule: bj.two_leg_forward(sigma),
                bj.two_leg_inverse, cf.TwoLegSPP,
                {"rho": cf.TwoLegRPP, "pi": cf.PlanePartition}),
}


def _decode(obj, want):
    """The configuration in obj, which must be a `want`."""
    cfg = sz.config_from_json(obj)
    if not isinstance(cfg, want):
        raise DomainError(f"expected a {want.__name__}, "
                          f"got a {type(cfg).__name__}")
    return cfg


def cmd_biject(args) -> int:
    report = Report(args)
    forward, inverse, source, parts = _BIJECTIONS[args.family]
    if args.schedule is not None and (args.direction == "inverse"
                                      or args.family == "two-leg"):
        raise ScheduleError("--schedule orders the pops of a plane or one-leg "
                            "forward run; this run has none to order")
    schedule = (bj.DEFAULT_SCHEDULE if args.schedule is None
                else bj.ToggleSchedule.parse(args.schedule))
    payload = _load_json(args)
    if args.direction == "inverse":
        what = f"an inverse {args.family} input"
        image = tuple(_decode(payload if key is None
                              else sz.required(payload, key, what), want)
                      for key, want in parts.items())
        sigma = inverse(*image)
        _write_json(args, sz.config_to_json(sigma))
    else:
        sigma = _decode(payload, source)
        image = _image(forward(sigma, schedule), parts)
        _write_json(args, sz.config_to_json(image[0]) if None in parts
                    else {key: sz.config_to_json(cfg)
                          for key, cfg in zip(parts, image)})
    if args.round_trip:
        if args.direction == "inverse":
            same = _image(forward(sigma, schedule), parts) == image
        else:
            same = inverse(*image) == sigma
        report.check("round-trip", same)
        report.check("weight", cf.cfg_weight(sigma)
                     == sum(cf.cfg_weight(cfg) for cfg in image))
    return report.finish()


def _image(out, parts) -> tuple:
    """A forward map's output as a tuple of its parts."""
    return (out,) if None in parts else tuple(out)


def cmd_enumerate(args) -> int:
    _, leg_count, _ = sz.FORMATS[sz.CENSUS_FAMILIES[args.family]]
    legs = None
    if leg_count == 0 and args.legs is not None:
        raise DomainError(f"the {args.family} family has no legs: "
                          f"{args.legs!r}")
    if leg_count == 1:
        legs = parse_partition(args.legs or "")
    elif leg_count == 2:
        legs = parse_legs(args.legs or "/")
    members = oc.weighed_members(args.family, legs, args.bound)
    lines = [json.dumps(sz.census_header_to_json(
        args.family, legs, args.bound, len(members)), sort_keys=True)]
    lines += sorted(json.dumps(sz.config_to_json(cfg), sort_keys=True)
                    for _, cfg in members)
    _write(args, "\n".join(lines))
    return EXIT_OK


def cmd_toggle(args) -> int:
    lam = parse_partition(args.upper)
    nu = parse_partition(args.middle)
    mu = parse_partition(args.lower)
    if args.push is not None:
        result = toggle_push(lam, nu, mu, args.push)
        print(json.dumps(list(result)))
    elif interlaces(nu, lam) and interlaces(nu, mu):
        toggled, popped = toggle_pop(lam, nu, mu)
        print(json.dumps({"toggled": list(toggled), "popped": popped}))
    else:
        print(json.dumps(list(toggle_between(lam, nu, mu))))
    return EXIT_OK


def cmd_verify(args) -> int:
    # --suite reads None when not given, so that --census can refuse it
    # when it is; the run and the report's inputs digest read all
    given_suite = args.suite is not None
    args.suite = args.suite if given_suite else "all"
    report = Report(args)
    # each bound flag given, with the suite parameter it sets
    given = {flag: (key, value) for flag, key, value in (
        ("--degree", "degree", args.degree),
        ("--max-part", "max_part", args.max_part),
        ("--max-weight", "max_weight", args.max_weight),
        ("--lambda", "shapes", None if args.shape is None
         else (parse_partition(args.shape),))) if value is not None}
    if args.census:
        if given or given_suite:
            flag = next(iter(given), "--suite")
            raise DomainError(f"{flag} is not read by --census")
        return _verify_census(args, report)
    names = ("all" if args.suite == "all"
             else [] if args.suite == "none" else [args.suite])
    flags = {key: flag for flag, (key, _) in given.items()}
    vf.refuse_unread(names, flags, flags.get)
    if not names:
        report.emit("no suites requested; vacuous pass")
        return report.finish()
    results = vf.run_suites(names, **dict(given.values()))
    for row in results:
        report.check(row.name, row.passed, row.text())
    return report.finish()


def _verify_census(args, report) -> int:
    with open(args.census) as fh:
        family, legs, bound, count, members = sz.census_from_json(
            [json.loads(line) for line in fh if line.strip()])
    # `enumerate` writes no census past the oracle's caps, and the reference
    # series at such a bound may not fit in time or memory: refuse it first
    oc.cost_budget(family, legs, bound)
    if family == "plane":
        want = sr.macmahon_series(bound)
    elif family == "one-leg-spp":
        want = sr.hook_product("outside", legs, bound)
    elif family == "one-leg-rpp":
        want = sr.hook_product("inside", legs, bound)
    else:
        want = sr.evaluate_stable(family, legs, bound)
    counts: dict[HalfInt, int] = {}
    seen, duplicate, heavy = set(), None, None
    for cfg in members:
        text = json.dumps(sz.config_to_json(cfg), sort_keys=True)
        if text in seen:
            duplicate = duplicate or text
        seen.add(text)
        w = cf.cfg_weight(cfg)
        if w > bound:
            heavy = heavy or f"{text} of weight {w}"
        counts[w] = counts.get(w, 0) + 1
    got = sr.TruncatedSeries.from_terms(bound, list(counts.items()))
    detail = f"{len(members)} configurations vs series"
    if count != len(members):
        detail += f"; header count {count} for {len(members)} members"
    if duplicate:
        detail += f"; duplicate member {duplicate}"
    if heavy:
        detail += f"; member {heavy} over the bound {bound}"
    report.check(f"census-{family}", got == want and count == len(members)
                 and not duplicate and not heavy, detail)
    return report.finish()


def cmd_render(args) -> int:
    payload = _load_json(args)
    cfg = sz.config_from_json(payload)
    _write(args, render_svg(cfg) if args.format == "svg" else render_ascii(cfg))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative fraction such as -1/2 as a
    value, as it reads -1, so that `--degree -1/2` reaches the flag's own
    check instead of being taken for an unknown option. No flag of ours looks
    like a negative number, so nothing else is read differently; subparsers
    inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="pptoggle",
        description="toggle bijections, vertex-operator series, and brute-force "
                    "verification for plane-partition-like objects")
    top.add_argument("--json", action="store_true", help="machine-readable report")
    # the global flag is also accepted after the verb
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("series", help="evaluate a generating function",
                       parents=[shared])
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--macmahon", action="store_true")
    shape.add_argument("--one-leg", metavar="PARTS")
    shape.add_argument("--two-leg", metavar="LAM/MU")
    shape.add_argument("--two-leg-rpp", metavar="LAM/MU")
    p.add_argument("--degree", type=_non_negative(HalfInt.parse),
                   default=HalfInt.of(6),
                   help="truncation degree, e.g. 6 or 13/2")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("biject", parents=[shared], help="run a decomposition on JSON input")
    p.add_argument("family", choices=["plane", "one-leg", "two-leg"])
    p.add_argument("--direction", choices=["forward", "inverse"],
                   default="forward")
    p.add_argument("--schedule", default=None,
                   help="pop order of a plane or one-leg forward run: "
                        "off-diagonal (the default), lexicographic or "
                        "seeded:<n>")
    p.add_argument("--round-trip", action="store_true")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")
    p.set_defaults(fn=cmd_biject)

    p = sub.add_parser("enumerate", parents=[shared], help="write a census as JSON lines")
    p.add_argument("--family", required=True, choices=sz.CENSUS_FAMILIES)
    p.add_argument("--legs", help="2,1 for one-leg, 2,2/3,1 for two-leg")
    p.add_argument("--bound", type=_non_negative(HalfInt.parse),
                   required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("toggle", parents=[shared], help="toggle a middle partition")
    p.add_argument("--upper", required=True)
    p.add_argument("--middle", required=True)
    p.add_argument("--lower", required=True)
    p.add_argument("--push", type=int, help="push this value (valley case)")
    p.set_defaults(fn=cmd_toggle)

    p = sub.add_parser("verify", parents=[shared], help="run invariant suites")
    p.add_argument("--suite", default=None, help="a suite, all (the "
                   "default) or none")
    p.add_argument("--degree", type=_non_negative(int))
    p.add_argument("--max-part", type=_non_negative(int), dest="max_part")
    p.add_argument("--max-weight", type=_non_negative(int), dest="max_weight")
    p.add_argument("--lambda", dest="shape", metavar="PARTS",
                   help="restrict shape-indexed suites to one shape")
    p.add_argument("--census", help="check a census file against its series")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", parents=[shared], help="draw a configuration")
    p.add_argument("--input", default="-")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--output", default="-")
    p.set_defaults(fn=cmd_render)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    args.argv = argv  # the command a --json report names
    try:
        return args.fn(args)
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except (DomainError, ScheduleError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"invariant: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
