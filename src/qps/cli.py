"""Command-line front end: theorem suites, CLT sweeps, parameter solving.

Exit codes: 0 = all checks pass, 1 = a theorem check failed, 2 = usage
or configuration error.  Identical configuration + seed produces
byte-identical CSV/JSON; reports embed the tolerance configuration.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys

from . import convolution as cv
from . import entropy as ent
from .config import Tolerances, snapshot
from . import mean_magic as mm
from . import states as st
from .errors import QpsError, UnsupportedGError

# `channels`, `io` and `verify` (with its process pool) are imported by the
# commands that use them, so the other commands never load them.  A command
# that draws a seeded state loads numpy.random, whose `secrets` import pulls
# in `hmac` and `hashlib`, and `hashlib` maps OpenSSL's libcrypto (about
# 3.3 MiB resident) through `_hashlib`.  qps hashes nothing, so when `main`
# owns the process it leaves `_hashlib` out (`_leave_out_openssl`).

# The builtin modules `hashlib` serves its hashes from when `_hashlib` is absent.
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)

_ALPHAS = (0.5, 1.0, 2.0, math.inf)


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj, out_path) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 's,t', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_g(text: str):
    vals = [int(v) for v in text.split(",")]
    if len(vals) != 4:
        raise UsageError(f"expected 'g00,g01,g10,g11', got {text!r}")
    return [[vals[0], vals[1]], [vals[2], vals[3]]]


def _parse_alphas(text: str):
    try:
        alphas = tuple(float(token) for token in text.split(","))
    except ValueError:  # an empty or non-numeric token
        alphas = ()
    if not alphas or any(math.isnan(a) for a in alphas):  # NaN would pass every check
        raise UsageError(f"--alphas takes comma-separated numbers, got {text!r}")
    return alphas


def _resolve_params(args, d: int):
    """Pick the convolution parameters from --st / --g / --family, else the default G."""
    chosen = [k for k in ("st", "g", "family") if getattr(args, k, None)]
    if len(chosen) > 1:
        raise UsageError("give only one of --st, --g, --family")
    if getattr(args, "st", None):
        s, t = _parse_pair(args.st)
        return cv.beam_splitter_params(s, t, d)
    if getattr(args, "g", None):
        return cv.classify(_parse_g(args.g), d)
    family = getattr(args, "family", None)
    if family is None:
        return cv.default_params(d)
    if family == "beam-splitter":
        classes = cv.solve_params(d, "circle")
        if not classes:
            raise UsageError(f"no (s,t) classes for d={d}")
        s, t = classes[0].representative
        return cv.beam_splitter_params(s, t, d)
    if family == "amplifier":
        classes = cv.solve_params(d, "hyperbola")
        if not classes:
            raise UsageError(f"no (l,m) classes for d={d}")
        l, m = classes[0].representative
        return cv.amplifier_params(l, m, d)
    if family == "hadamard":
        return cv.hadamard_params(d)
    raise UsageError(f"unknown family {family!r}")


def _clt_params(args, d: int):
    """The resolved G, refused unless positive: the (1 - MG)^N bound is stated for positive G."""
    pm = _resolve_params(args, d)
    if not pm.positive:
        none = " (none exists for d=2)" if d == 2 else ""
        raise UnsupportedGError(
            f"the CLT bound needs a positive G; {pm.as_array().tolist()} is not{none}"
        )
    return pm


def cmd_clt(args, tol: Tolerances) -> int:
    """The CLT trajectory of a random state, one CSV row per power.

    ⊠^0 has rho's spectrum, shifted or not.  Every later power is rebuilt
    from its table, and so checked, by ``state_from_char(xi, spectrum=True)``,
    so the ``eigvalsh`` that decides its positivity gives the spectrum its H
    columns read, and only that spectrum is kept.
    """
    d, n = args.d, args.n
    params = _clt_params(args, d)
    rho = st.random_state(n, d, seed=args.seed)
    _, _, powers = cv.clt_trajectory(rho, params, args.N, tol)
    spectrum = rho.eigvals
    del rho  # the trajectory holds rho's table; its matrix is not read again
    lines = ["N,l2_distance,paper_bound," + ",".join(f"H_{a}" for a in _ALPHAS)]
    ok = True
    for step, (xi, dist, bound) in enumerate(powers):
        if step:
            spectrum = st.state_from_char(xi, spectrum=True).eigvals
        ok = ok and dist <= bound + 1e-9
        clean = ent.clean_spectrum(spectrum)
        hs = [ent.renyi_entropy_spectrum(clean, a) for a in _ALPHAS]
        lines.append(
            ",".join([str(step), _fmt(dist), _fmt(bound)] + [_fmt(h) for h in hs])
        )
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_channel_clt(args, tol: Tolerances) -> int:
    from . import channels as chn
    from . import io as qio

    channel = qio.read_channel(args.channel)
    rep = chn.channel_clt(channel, _clt_params(args, channel.d), args.N, tol)
    half = len(rep.shift) // 2  # the shift is a point of the Choi state's 2n qudits
    sp = ".".join(str(v) for v in rep.shift[:half]) if rep.shifted else ""
    sq = ".".join(str(v) for v in rep.shift[half:]) if rep.shifted else ""
    lines = ["N,choi_l2_distance,paper_bound,diamond_bound,shifted,shift_p,shift_q"]
    for row in rep.rows:
        lines.append(
            ",".join(
                [
                    str(row.step),
                    _fmt(row.distance),
                    _fmt(row.bound),
                    _fmt(row.diamond_bound),
                    "1" if rep.shifted else "0",
                    sp,
                    sq,
                ]
            )
        )
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if rep.ok else 1


def cmd_params(args, tol: Tolerances) -> int:
    d = args.d
    report = {"d": d, "tolerances": snapshot(tol)}
    for family, formula in (("circle", (d + 1) // 8), ("hyperbola", (d - 3) // 4 if d >= 3 else 0)):
        classes = cv.solve_params(d, family)
        report[family] = {
            "count": len(classes),
            "formula": max(formula, 0),
            "classes": [
                {"representative": list(c.representative), "members": [list(m) for m in c.members]}
                for c in classes
            ],
        }
    if d == 2:
        report["note"] = "no positive invertible G exists for d=2"
    _json_dump(report, args.out)
    return 0


def cmd_gap(args, tol: Tolerances) -> int:
    from . import io as qio

    state = qio.read_state(args.state)
    reading = mm.read_thresholds(st.char_function(state), tol)
    gap = mm.MagicGapReport.from_reading(reading)
    out = {
        "d": state.d,
        "n": state.n,
        **vars(gap),  # gap, log_gap, second_max, support_size
        "group_size": reading.group.size,
        "mean_value_vector": [int(k) for k in reading.phases],
        "zero_mean": reading.zero_mean,
        "tolerances": snapshot(tol),
    }
    _json_dump(out, args.out)
    return 0


def cmd_entropy_sweep(args, tol: Tolerances) -> int:
    d, n = args.d, args.n
    params = _resolve_params(args, d)
    alphas = _parse_alphas(args.alphas)
    rho = st.random_state(n, d, seed=args.seed)
    rep = ent.check_second_law(rho, params, args.N, alphas)
    lines = ["N," + ",".join(f"H_{a}" for a in alphas)]
    for step, row in enumerate(rep.table):
        lines.append(",".join([str(step)] + [_fmt(v) for v in row]))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if rep.ok else 1


def cmd_conv(args, tol: Tolerances) -> int:
    from . import io as qio

    if args.tol_supp is not None and args.form != "char":
        raise UsageError("--tol-supp is read only by --form char")
    rho = qio.read_state(args.rho)
    sigma = qio.read_state(args.sigma)
    params = _resolve_params(args, rho.d)
    out = cv.convolve(rho, sigma, params)
    if args.out:
        qio.write_state(out, args.out, form=args.form, tol=tol)
    else:
        _json_dump(qio.state_to_json(out, form=args.form, tol=tol), None)
    return 0


def cmd_verify(args, tol: Tolerances) -> int:
    from . import verify

    suite = args.suite
    if suite != "all" and suite not in verify.SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {('all',) + verify.SUITES}")
    checks = verify.run_suite(suite, args.d, args.n, args.seeds, args.jobs, args.seed, tol)
    passed = all(c.passed for c in checks)
    report = {
        "suite": suite,
        "config": {
            "d": args.d,
            "n": args.n,
            "seeds": args.seeds,
            "jobs": args.jobs,
            "tolerances": snapshot(tol),
        },
        "checks": [c.to_json() for c in checks],
        "pass": passed,
    }
    _json_dump(report, args.out)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qps",
        description="Qudit phase-space toolkit: convolution, magic gap, theorem checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_one=True, tol_supp=True):
        """--out, and the tolerance flags the command reads."""
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if tol_one:
            p.add_argument("--tol-one", type=float, help="override |Xi|=1 threshold")
        if tol_supp:
            p.add_argument("--tol-supp", type=float, help="override support threshold")

    def system(p):
        p.add_argument("--d", type=int, default=3, help="prime local dimension")
        p.add_argument("--n", type=int, default=1, help="number of qudits")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (mandatory for randomized runs)")

    def conv_flags(p):
        p.add_argument("--st", default=None, help="beam-splitter pair 's,t'")
        p.add_argument("--g", default=None, help="explicit G as 'g00,g01,g10,g11'")
        p.add_argument("--family", default=None,
                       choices=("beam-splitter", "amplifier", "hadamard"))

    p = sub.add_parser("clt", help="state central-limit trajectory and magic-gap bound")
    common(p)
    system(p)
    conv_flags(p)
    p.add_argument("--N", type=int, default=20)
    p.set_defaults(fn=cmd_clt)

    p = sub.add_parser("channel-clt", help="channel CLT trajectory from a Choi file")
    common(p)
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--st", default=None, help="beam-splitter pair 's,t' (default: the first "
                   "(s,t) class, else Hadamard; d=2 has no positive G and is refused)")
    p.add_argument("--N", type=int, default=12)
    p.set_defaults(fn=cmd_channel_clt)

    p = sub.add_parser("params", help="(s,t) and (l,m) class counts for a prime d")
    common(p, tol_one=False, tol_supp=False)
    p.add_argument("--d", type=int, default=3, help="prime local dimension")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("gap", help="magic-gap report for a state file")
    common(p)
    p.add_argument("state", help="state JSON file")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("entropy-sweep", help="Renyi entropies along iterated convolution")
    common(p, tol_one=False, tol_supp=False)
    system(p)
    conv_flags(p)
    p.add_argument("--N", type=int, default=15)
    p.add_argument("--alphas", default="0.5,1,2,inf")
    p.set_defaults(fn=cmd_entropy_sweep)

    p = sub.add_parser("conv", help="convolve two state files")
    common(p, tol_one=False)
    conv_flags(p)
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--form", default="dense", choices=("dense", "char"))
    p.set_defaults(fn=cmd_conv)

    p = sub.add_parser("verify", help="run a theorem-check suite")
    common(p)
    system(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel fan-out over seeds")
    p.add_argument("--suite", default="all")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(fn=cmd_verify)

    return parser


def _check_counts(args) -> None:
    """Refuse an integer count flag below its least value, naming the flag:
    --n, --seeds and --jobs below 1, --N (the last CLT or sweep power) below 0."""
    for flag, least in (("n", 1), ("seeds", 1), ("jobs", 1), ("N", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise UsageError(f"--{flag} must be >= {least}, got {value}")


def _leave_out_openssl() -> None:
    """Mark `_hashlib` absent, so that `hashlib` serves md5, sha1, sha2, sha3 and
    blake2 from CPython's builtin modules and libcrypto is never mapped.

    A build that lacks one of those modules keeps OpenSSL: `hashlib` would
    otherwise log the missing hash to stderr.
    """
    if all(importlib.util.find_spec(name) is not None for name in _BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)


def main(argv=None) -> int:
    """Run one command.  With no argv (`python -m qps.cli`, the `qps` script) main
    owns the process: it reads sys.argv and first keeps OpenSSL out."""
    if argv is None:
        _leave_out_openssl()
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k: getattr(args, k, None) for k in ("tol_one", "tol_supp")}
    try:
        tol = Tolerances(**{k: v for k, v in flags.items() if v is not None})  # 0 is an override
        _check_counts(args)
        return args.fn(args, tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (QpsError, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
