"""Command-line front end: run the checks, emit deterministic reports.

Exit codes: 0 when the requested check passes, 1 when it fails, 2 on usage
or validation errors, 3 when the program itself fails (an internal error).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Optional

from .emailgame import (
    CutoffStrategy,
    PayoffParams,
    best_response_check,
    check_ast_possibility,
    check_classical_impossibility,
    check_monotone_ck,
    state_b,
)
from .epistemic import ModelFormatError, ck_classical, ck_subjective, meet, model_from_dict
from .hypernat import finite, parse_hypernat
from .reports import CheckReport, jsonable, render_json
from .sorites import chain_relation

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3
MAX_RANGE = 10_000  # counts in one "lo..hi" sample range or entries in one comma list
MAX_COUNT_CHARS = 1000  # characters in one count, so that count+1 still renders
MAX_T = 1000  # largest e-mail-game truncation, a model of 2*MAX_T+1 states
MAX_FILE_BYTES = 16 * 1024 * 1024  # largest model document read
MAX_PAYOFF_CHARS = 1000  # in one payoff parameter, so that every expected payoff renders


class UsageError(Exception):
    """Bad inputs; reported on stderr with exit code 2."""


def _hyper(text: str):
    if len(text) > MAX_COUNT_CHARS:
        raise UsageError(f"a count has at most {MAX_COUNT_CHARS} characters, got {len(text)}")
    try:
        return parse_hypernat(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _split_csv(text: str) -> list:
    """The nonempty entries of a comma list, at most MAX_RANGE of them."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if len(tokens) > MAX_RANGE:
        raise UsageError(f"a comma list has more than {MAX_RANGE} entries")
    return tokens


def _hyper_list(text: str) -> list:
    values = [_hyper(token) for token in _split_csv(text)]
    if not values:
        raise UsageError("expected a comma-separated list of values")
    return values


def _finite_samples(text: str) -> list:
    """Either a comma list ("0,1,2") or an inclusive range ("0..10") of at
    most MAX_RANGE finite counts, each read in the count grammar."""
    if ".." in text:
        lo, hi = (_finite_sample(end) for end in text.split("..", 1))
        if lo > hi:
            raise UsageError(f"empty range {text!r}")
        if hi - lo >= MAX_RANGE:
            raise UsageError(f"range {text!r} has more than {MAX_RANGE} counts")
        return list(range(int(lo), int(hi) + 1))
    return [_finite_sample(token) for token in _split_csv(text)]


def _finite_sample(text: str):
    count = _hyper(text)
    if count.is_huge:
        raise UsageError(f"{count} is not a finite sample")
    return count


def _load_json(path: str):
    """Parse a JSON document of at most MAX_FILE_BYTES bytes, reading no
    more than one 64 KiB chunk past that; anything unreadable, too large or
    malformed is a usage error."""
    data = bytearray()
    try:
        with open(path, "rb") as handle:
            # In chunks: one read of MAX_FILE_BYTES would allocate that much.
            while len(data) <= MAX_FILE_BYTES and (chunk := handle.read(1 << 16)):
                data += chunk
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    if len(data) > MAX_FILE_BYTES:
        raise UsageError(f"{path}: larger than {MAX_FILE_BYTES} bytes")
    try:  # a text handle like open(path) gives: the same newlines and error positions
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, overlong ints, deep nesting
        raise UsageError(f"{path}: invalid JSON: {exc}") from None


def cmd_model_check(args) -> tuple:
    try:  # the parsed document is freed once the model is built from it
        model, events = model_from_dict(_load_json(args.file))
    except ModelFormatError as exc:
        raise UsageError(f"{args.file}: {exc}") from None
    if args.event not in events:
        raise UsageError(f"unknown event {args.event!r}; file defines {sorted(events)}")
    if args.state not in model.states:
        raise UsageError(f"unknown state {args.state!r}")
    event = events[args.event]
    if args.mode == "classical":
        verdict = ck_classical(model, event, args.state)
    else:
        verdict = ck_subjective(model, event, args.state)
    report = CheckReport(
        "model-check",
        {"file": args.file, "event": args.event, "state": args.state, "mode": args.mode},
    )
    report.add(
        {"event": args.event, "state": args.state, "mode": args.mode},
        "common knowledge",
        "common knowledge" if verdict else "not common knowledge",
        verdict,
    )
    extras = {"meet": [sorted(block) for block in meet(model)]}
    return report, extras


def cmd_email_impossibility(args) -> tuple:
    if args.truncation < 1:
        raise UsageError("--T must be >= 1")
    if args.truncation > MAX_T:
        raise UsageError(f"--T must be <= {MAX_T}")
    return check_classical_impossibility(args.truncation), None


def cmd_email_ast_ck(args) -> tuple:
    t = _hyper(args.t)
    if t < finite(1):
        raise UsageError("--t must be >= 1 (the state checked is (b,t,t))")
    state = state_b(t)
    verdict = check_ast_possibility(state)
    report = CheckReport("ast-ck", {"t": str(t)})
    report.add(
        {"state": str(state)},
        "B is common knowledge",
        "common knowledge" if verdict else "not common knowledge",
        verdict,
    )
    return report, None


def cmd_email_monotone(args) -> tuple:
    return check_monotone_ck(_hyper_list(args.samples)), None


def _check_payoff_length(name: str, text: str) -> None:
    """Bound a payoff parameter before Fraction reads it: neither its numerator
    nor its denominator has more digits than the text plus its exponent.
    Fraction strips every str.isspace() character, int() not all of them."""
    try:
        size = len(text) + abs(int(text.strip().lower().partition("e")[2] or 0))
    except ValueError:  # no number, which Fraction rejects, or too long for int()
        size = len(text)
    if size > MAX_PAYOFF_CHARS:
        raise UsageError(f"--{name} exceeds {MAX_PAYOFF_CHARS} characters, counting eN as N more")


def cmd_email_equilibrium(args) -> tuple:
    for name in ("M", "L", "p", "eps"):
        _check_payoff_length(name, getattr(args, name))
    try:
        params = PayoffParams(args.M, args.L, args.p, args.eps)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise UsageError(f"bad payoff parameters: {exc}") from None
    finite_samples = _finite_samples(args.finite_samples)
    huge_samples = _hyper_list(args.huge_samples)
    for count in huge_samples:
        if count.is_finite:
            raise UsageError(f"{count} is not a huge sample")
    cutoff = CutoffStrategy.play_a_while_finite()
    return best_response_check((cutoff, cutoff), params, finite_samples + huge_samples), None


def cmd_sorites_demo(args) -> tuple:
    alpha = _hyper(args.alpha)
    probes = _hyper_list(args.probes)
    rel = chain_relation()
    start = finite(1)
    report = CheckReport(
        "sorites-demo",
        {"alpha": str(alpha), "probes": [str(p) for p in probes]},
    )
    for index in [alpha] + probes:
        verdict = rel.related(start, index)
        expected = index.is_finite  # walking from index 1, only finite indices stay inside
        report.add(
            {"index": str(index)},
            "related" if expected else "unrelated",
            "related" if verdict else "unrelated",
            verdict == expected,
        )
    return report, None


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galaxyck",
        description="Common-knowledge checks on partition models, chains and the e-mail game.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    model = commands.add_parser("model", help="operations on JSON partition models")
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    check = model_sub.add_parser("check", help="common-knowledge verdict on a model file")
    check.add_argument("--file", required=True, help="JSON model document")
    check.add_argument("--event", required=True, help="event name from the file")
    check.add_argument("--state", required=True, help="state at which to test")
    check.add_argument("--mode", choices=("classical", "subjective"), default="classical")
    _add_format(check)
    check.set_defaults(handler=cmd_model_check)

    email = commands.add_parser("emailgame", help="electronic-mail game checks")
    email_sub = email.add_subparsers(dest="subcommand", required=True)

    imp = email_sub.add_parser("impossibility", help="B is nowhere classical common knowledge")
    imp.add_argument("--T", dest="truncation", type=int, default=50, help="truncation bound")
    _add_format(imp)
    imp.set_defaults(handler=cmd_email_impossibility)

    ast = email_sub.add_parser("ast-ck", help="galaxy common knowledge of B at (b,t,t)")
    ast.add_argument("--t", required=True, help="message count, e.g. 3 or w+0")
    _add_format(ast)
    ast.set_defaults(handler=cmd_email_ast_ck)

    mono = email_sub.add_parser("monotone", help="one-step persistence of the verdict")
    mono.add_argument("--samples", required=True, help="comma list of counts, e.g. 0,4,w+0")
    _add_format(mono)
    mono.set_defaults(handler=cmd_email_monotone)

    eq = email_sub.add_parser("equilibrium", help="best-response audit of the cutoff strategies")
    eq.add_argument("--M", default="2", help="coordination reward (rational)")
    eq.add_argument("--L", default="3", help="mismatch penalty (rational)")
    eq.add_argument("--p", default="1/2", help="probability of game b")
    eq.add_argument("--eps", default="1/10", help="per-message loss probability")
    eq.add_argument("--finite-samples", default="0..10", help="own counts, range or comma list")
    eq.add_argument("--huge-samples", default="w-2,w+0,w+5", help="huge own counts, comma list")
    _add_format(eq)
    eq.set_defaults(handler=cmd_email_equilibrium)

    sor = commands.add_parser("sorites", help="chain walk demonstrations")
    sor_sub = sor.add_subparsers(dest="subcommand", required=True)
    demo = sor_sub.add_parser("demo", help="relatedness of chain start vs probe indices")
    demo.add_argument("--alpha", default="w+0", help="chain end index")
    demo.add_argument("--probes", default="10,1000000,w+0,w-5", help="comma list of indices")
    _add_format(demo)
    demo.set_defaults(handler=cmd_sorites_demo)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, extras = args.handler(args)
        print(_render(report, extras, args.format))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must not read as a failed check
        detail = [type(exc).__name__] + str(exc).strip().splitlines()[:1]
        print(f"error: internal error: {': '.join(detail)}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if report.passed else EXIT_FAIL


def _render(report: CheckReport, extras: Optional[dict], fmt: str) -> str:
    if fmt == "json":
        payload = report.to_dict()
        if extras:
            payload.update(jsonable(extras))
        return render_json(payload)
    lines = [report.to_text()]
    if extras and "meet" in extras:
        lines.append("meet:")
        # State names as given, but a strict stdout cannot encode a lone
        # surrogate: such characters are written as backslash escapes.
        lines.extend(
            ("  " + ", ".join(block)).encode("utf-8", "backslashreplace").decode("utf-8")
            for block in extras["meet"]
        )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
