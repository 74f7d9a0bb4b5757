"""Command-line surface: eval, fit, synth, verify.

Tables are emitted as CSV (default) or JSON; figures are reproduced as data
tables, never rendered.  Delta weights of distributional quantities appear
in a header comment, not as sampled values.  Exit codes: 0 success, 2 bad
flags or malformed input, 3 numeric failure, 4 fit non-convergence, 5 failed
verification checks.  Spectral, permittivity, relaxation, response and the
memory kernels (kernelM, kernelK) are evaluated on the whole grid in one array
call; ``--at`` evaluates a single point as a number.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import fitio, kernels, models, verify
from .exceptions import (
    DomainError,
    EmptyDataset,
    ParseError,
    RelaxkitError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGENCE = 4
EXIT_VERIFY_FAILED = 5

QUANTITIES = (
    "spectral",
    "permittivity",
    "response",
    "relaxation",
    "pdf",
    "kernelM",
    "kernelK",
    "psi",
)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid start:stop:points[:log|:lin]."""

    start: float
    stop: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.points < 2:
            raise DomainError("grid needs at least 2 points")
        if not (self.start < self.stop):
            raise DomainError("grid start must be below stop")
        if self.spacing not in ("log", "lin"):
            raise DomainError("grid spacing must be 'log' or 'lin'")
        if self.spacing == "log" and self.start <= 0.0:
            raise DomainError("log grids need a positive start")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.points)
        return np.linspace(self.start, self.stop, self.points)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise DomainError(f"grid must be start:stop:points[:log|:lin], got {text!r}")
        spacing = parts[3] if len(parts) == 4 else "log"
        try:
            return cls(float(parts[0]), float(parts[1]), int(parts[2]), spacing)
        except ValueError as exc:
            raise DomainError(f"bad grid {text!r}: {exc}") from None


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relaxkit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _model_from_args(args) -> models.ModelSpec:
    if args.model is None:
        raise DomainError("--model is required")
    return models.ModelSpec(
        args.model,
        alpha=args.alpha,
        beta=args.beta,
        tau=args.tau,
        strict_experimental=args.strict_experimental,
    )


def _scale_from_args(args) -> models.PermittivityScale:
    return models.PermittivityScale(args.eps0, args.epsinf)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_table(args) -> tuple[list[str], list[tuple], list[str]]:
    """Returns (column names, rows, header comment lines)."""
    spec = _model_from_args(args)
    comments = [f"model = {spec.kind} alpha = {spec.alpha:g} beta = {spec.beta:g} tau = {spec.tau:g}"]
    if args.at is not None:
        grid = np.array([args.at], dtype=float)
    elif args.grid is not None:
        grid = GridSpec.parse(args.grid).values()
    else:
        raise DomainError("eval needs --grid start:stop:points[:log|:lin] or --at VALUE")

    q = args.quantity
    xs = grid.tolist()
    if q == "spectral":
        phi = models.spectral(spec, grid)
        rows = list(zip(xs, phi.real.tolist(), phi.imag.tolist()))
        return ["omega_tau", "re", "im"], rows, comments
    if q == "permittivity":
        eps_re, eps_im = models.permittivity(spec, _scale_from_args(args), grid)
        rows = list(zip(xs, eps_re.tolist(), eps_im.tolist()))
        return ["omega", "eps_re", "eps_im"], rows, comments
    if q == "response":
        tr = models.time_response(spec)
        comments.append(f"delta_weight = {tr.singular_weight:g}")
        return ["t", "phi"], list(zip(xs, models.response(spec, grid).tolist())), comments
    if q == "relaxation":
        return ["t", "n"], list(zip(xs, models.relaxation(spec, grid).tolist())), comments
    if q == "pdf":
        return ["xi", "g"], list(zip(xs, models.pdf_g(spec, grid).tolist())), comments
    if q in ("kernelM", "kernelK"):
        cfg = kernels.KernelConfig(spec)
        which = "M" if q == "kernelM" else "k"
        weight = kernels.kernel_singular_weight(cfg, which)
        comments.append(f"delta_weight = {weight:g}")
        kernel = kernels.memory_M_time if which == "M" else kernels.memory_k_time
        return ["t", q[-1]], list(zip(xs, kernel(cfg, grid).tolist())), comments
    if q == "psi":
        cfg = kernels.KernelConfig(spec)
        rows = [(s, kernels.characteristic_exponent(cfg, s)) for s in xs]
        return ["s", "psi"], rows, comments
    raise DomainError(f"unknown quantity {q!r}")


def _render_table(columns, rows, comments, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "comments": comments,
            "columns": list(columns),
            "rows": [[float(v) for v in row] for row in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    columns, rows, comments = _eval_table(args)
    _write_atomic(args.output, _render_table(columns, rows, comments, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    dataset = fitio.parse_csv(args.input, args.domain)
    kind = "auto" if args.auto else args.model
    if kind is None:
        raise DomainError("fit needs --model KIND or --auto")
    result = fitio.fit(dataset, kind, strict_experimental=args.strict_experimental)
    _write_atomic(args.output, fitio.fit_result_to_json(result) + "\n")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = _model_from_args(args)
    if args.grid is None:
        raise DomainError("synth needs --grid start:stop:points[:log|:lin]")
    grid = GridSpec.parse(args.grid).values()
    if args.domain == "frequency":
        scale = _scale_from_args(args)
        ds = fitio.synthesize(spec, scale, grid, args.noise, args.seed, domain="frequency")
        lines = [f"# {ds.meta}", "omega,eps_re,eps_im"]
        for w, re, im in zip(ds.omega, ds.eps_re, ds.eps_im):
            lines.append(f"{w:.12g},{re:.12g},{im:.12g}")
    else:
        ds = fitio.synthesize(spec, None, grid, args.noise, args.seed, domain="time")
        lines = [f"# {ds.meta}", "t,n"]
        for t, n in zip(ds.t, ds.n):
            lines.append(f"{t:.12g},{n:.12g}")
    _write_atomic(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _apply_tol_overrides(results, overrides):
    if not overrides:
        return results
    out = []
    for check in results:
        tol = check.tolerance
        if "*" in overrides:
            tol = overrides["*"]
        if check.name in overrides:
            tol = overrides[check.name]
        out.append(verify.CheckResult(check.suite, check.name, check.max_error, tol))
    return out


def cmd_verify(args) -> int:
    overrides = {}
    for item in args.tol or []:
        if "=" in item:
            name, _, value = item.partition("=")
            overrides[name.strip()] = float(value)
        else:
            overrides["*"] = float(item)
    results = _apply_tol_overrides(verify.run_suite(args.suite), overrides)
    ok = all(c.passed for c in results)
    if args.format == "json":
        text = json.dumps([c.as_dict() for c in results], indent=2) + "\n"
    else:
        lines = ["suite,check,max_error,tolerance,passed"]
        for c in results:
            lines.append(f"{c.suite},{c.name},{c.max_error:.6g},{c.tolerance:.6g},{c.passed}")
        text = "\n".join(lines) + "\n"
    _write_atomic(args.output, text)
    for c in results:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.suite}/{c.name} max_error={c.max_error:.3g} tol={c.tolerance:.3g}",
              file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=models.KINDS, help="relaxation law")
    p.add_argument("--alpha", type=float, default=1.0, help="width exponent (0, 1]")
    p.add_argument("--beta", type=float, default=1.0, help="asymmetry exponent")
    p.add_argument("--tau", type=float, default=1.0, help="characteristic time")
    p.add_argument("--eps0", type=float, default=10.0, help="static permittivity")
    p.add_argument("--epsinf", type=float, default=2.0, help="high-frequency permittivity")
    p.add_argument("--strict-experimental", action="store_true",
                   help="restrict beta to (0, 1] as experiments do")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxkit",
        description="Evaluate, verify and fit the standard non-Debye dielectric relaxation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="tabulate a model quantity on a grid")
    p_eval.add_argument("quantity", choices=QUANTITIES)
    _add_model_flags(p_eval)
    p_eval.add_argument("--grid", help="start:stop:points[:log|:lin]")
    p_eval.add_argument("--at", type=float, help="single abscissa instead of a grid")
    p_eval.add_argument("--output", help="write the table here (default stdout)")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.set_defaults(func=cmd_eval)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("input", help="CSV file (omega,eps_re,eps_im[,weight] or t,n[,weight])")
    p_fit.add_argument("--domain", choices=("frequency", "time"), default="frequency")
    p_fit.add_argument("--model", choices=fitio.TIME_KINDS, help="model kind to fit")
    p_fit.add_argument("--auto", action="store_true", help="select the best model by score")
    p_fit.add_argument("--strict-experimental", action="store_true")
    p_fit.add_argument("--output", help="write the JSON result here (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_model_flags(p_synth)
    p_synth.add_argument("--domain", choices=("frequency", "time"), default="frequency")
    p_synth.add_argument("--grid", help="start:stop:points[:log|:lin]")
    p_synth.add_argument("--noise", type=float, default=0.0, help="relative noise amplitude")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", help="write the CSV here (default stdout)")
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument(
        "suite", choices=tuple(verify.SUITES) + ("all",), help="which identity suite to run"
    )
    p_verify.add_argument("--tol", action="append",
                          help="override: either a number (all checks) or check-name=value")
    p_verify.add_argument("--output", help="write the report here (default stdout)")
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process (parse_args leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, EmptyDataset, DomainError) as exc:
        print(f"relaxkit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RelaxkitError as exc:
        print(f"relaxkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
