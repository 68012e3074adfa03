"""Command-line front end.

Subcommands:
  norm    power-iteration operator norm of the uniform-weight operator
  verify  run the structural identity suites, JSON line per suite
  dpp     sample the induced determinantal point process + diagnostics:
          one dpp.chain_run call; the kernel's spectrum comes from its
          Toeplitz blocks, so no dense matrix is built
  table   CSV of branching vs Toeplitz norms over a (q, n) sweep; the
          branching norm is the largest block norm ||T_k|| over k <= n
          (k = n alone for q = 1); one T_{n_max} is built per invocation
          and each of its leading sections T_k solved once

Exit codes: 0 success (-h included), 1 malformed input: every malformed
command line, one error line and no usage (the parser's ranges: --q,
--q-max >= 1; --n, --n-max >= 0; --samples >= 1000; --trials, --max-iter
>= 1; --seed >= 0; --tol finite and > 0; one of --symbol, --symbol-file),
a malformed or negative BTOEP_DENSE_CAP, an unreadable --symbol-file or
an output path that cannot be written; 2 norm non-convergence, 3
verification failure (a dense solve of verify that does not converge
included), 4 kernel rejection, 5 size limit exceeded: the
MAX_NORM_VERTICES limit of norm on vertices or, at any depth, on the q
weights, the MAX_DPP_VERTEX_SAMPLES limit of dpp on vertices x samples,
the dense cap on the tree of dpp or on the largest tree (q_max, n_max)
of table, each decided from (q, n) before anything is built; dpp and
table build no dense matrix but still refuse such trees.  verify exits 5
too when a dense matrix it builds would be over the cap.
Outputs depend only on the arguments, the seed and the BLAS build and
thread count, so reruns under one BLAS build and thread count are
byte-identical.  Another thread count can move the last digits of norm's
estimate and of verify's residuals (BLAS sums in another order), but
not a verdict or an exit code.  An empty --out, or an output path that
names a directory, whose directory (for a symlink, its target's) does
not exist, or whose file name is longer than that directory's NAME_MAX
bytes, is refused before any work.  Files are written after all computation
succeeds (dpp's samples file is formatted line by line as it is written
through, from the draws already made) and stdout is printed after them;
any other failed write exits 1 with nothing on stdout and none of the
run's files left.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import dpp as dpp_mod
from . import verify as verify_mod
from .operators import BranchingOperator, DenseCapError, _spectral_norm, dense_cap, toeplitz_dense
from .spectral import POWER_MAX_ITER, POWER_SEED, POWER_TOL, operator_norm
from .symbols import Symbol
from .tree import TreeShape

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3
EXIT_KERNEL_REJECTED = 4
EXIT_CAP_EXCEEDED = 5

# norm refuses larger trees before allocating: a complex vector of 2**26
# entries takes 1 GiB and the power iteration holds about 2 + 2/q of them
# at its peak (by tracemalloc: 3.07 at q = 2, 2.70 at q = 3, 2.28 at
# q = 8), about 3 GiB at this limit
MAX_NORM_VERTICES = 2**26
# the exact norm ||T_n|| that norm reports on stderr is a dense SVD of
# order n + 1; only q = 1 can reach this order under MAX_NORM_VERTICES
EXACT_NORM_MAX_ORDER = 1024
# dpp refuses more vertices x samples than this before allocating: it
# holds every draw until both files are written, as an occupancy byte per
# vertex and sample (64 MiB at the limit), which the diagnostics read and
# the samples file is formatted from line by line; the diagnostics add
# about two more bytes per vertex and sample of the deepest generations,
# and their per-ray estimates come in blocks sized in bytes, not in rays
MAX_DPP_VERTEX_SAMPLES = 2**26
# dpp writes --out with each of these appended
DPP_SUFFIXES = (".samples.jsonl", ".diagnostics.csv")
# the method column of both output formats of norm
NORM_METHOD = "PowerIteration"


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_symbol(args) -> Symbol:
    if args.symbol_file is None:
        return Symbol.from_json(args.symbol)
    try:
        return Symbol.from_json(Path(args.symbol_file).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read --symbol-file: {exc}") from exc


def _write(stdout: str, paths: list[str], texts: list) -> None:
    """Write texts[i], an iterable of strings written one by one, to
    paths[i] through (an existing symlink or /dev/stdout is written to, not
    replaced), then print stdout.  A failed write removes the files
    already written and any file it created, then re-raises."""
    written = []
    try:
        for path, text in zip(paths, texts):
            existed = os.path.lexists(path)
            with open(path, "w") as fh:
                fh.writelines(text)
            written.append(path)
    except BaseException:
        # a file the failed write created holds part of its text at most
        if not existed and os.path.lexists(path):
            written.append(path)
        for path in written:
            os.remove(path)
        raise
    print(stdout, end="")


class _SizeLimitError(Exception):
    """A tree refused from (q, n) before anything is built; main exits 5."""


def _check_limit(q: int, n: int, what: str, limit: int, samples: int = 1, width: int = 1) -> None:
    """Raise _SizeLimitError when |B_n| x samples, or width, is over limit.

    For q >= 2, |B_n| >= 2^n, so a depth of limit.bit_length() or more is
    over the limit and q^(n+1) is only formed for trees near it.
    """
    if width > limit or (q > 1 and n >= limit.bit_length()) or TreeShape(q, n).vertex_count * samples > limit:
        per, unit = (f" x {samples} samples", "vertex-samples") if samples > 1 else ("", "vertices")
        raise _SizeLimitError(f"(q={q}, n={n}){per} is over the {what} of {limit} {unit}")


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a malformed command line, so main exits 1; -h exits 0.

    A negative number with an exponent, such as --tol -1e-3, is a value, as
    argparse reads it from Python 3.13, not an unknown option."""
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


def _at_least(kind, low, strict=False):
    """argparse type: kind(text), >= low (> low if strict), finite; named kind for its error text."""
    def parse(text):
        value = kind(text)
        if not (low < value < np.inf if strict else low <= value < np.inf):
            raise argparse.ArgumentTypeError(f"must be {'finite and > ' if strict else '>= '}{low}, got {value}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _add_symbol_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--symbol", help='inline symbol JSON {"coeffs": [[k, re, im], ...]}')
    group.add_argument("--symbol-file", help="path to a symbol JSON file")


# one parser per process: parse_args reads it and never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="btoep",
        description="Branching-Toeplitz operators on rooted homogeneous trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="matrix-free operator norm")
    _add_symbol_args(p_norm)
    p_norm.add_argument("--q", type=_at_least(int, 1), required=True)
    p_norm.add_argument("--n", type=_at_least(int, 0), required=True)
    p_norm.add_argument("--tol", type=_at_least(float, 0, strict=True), default=POWER_TOL)
    p_norm.add_argument("--max-iter", type=_at_least(int, 1), default=POWER_MAX_ITER)
    p_norm.add_argument("--seed", type=_at_least(int, 0), default=POWER_SEED)
    p_norm.add_argument("--format", choices=["json", "csv"], default="json")
    p_norm.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--case", choices=["A1", "A2", "A3"])
    p_verify.add_argument("--trials", type=_at_least(int, 1), default=20)
    p_verify.add_argument("--seed", type=_at_least(int, 0), default=0)
    p_verify.add_argument("--fuzz-entry", action="store_true",
                          help="inject a perturbation (negative control)")
    p_verify.add_argument("--out")

    p_dpp = sub.add_parser("dpp", help="sample the determinantal point process")
    _add_symbol_args(p_dpp)
    p_dpp.add_argument("--q", type=_at_least(int, 1), required=True)
    p_dpp.add_argument("--n", type=_at_least(int, 0), required=True)
    p_dpp.add_argument("--samples", type=_at_least(int, dpp_mod.MIN_SAMPLES), default=10000)
    p_dpp.add_argument("--seed", type=_at_least(int, 0), default=0)
    p_dpp.add_argument("--out", default="dpp", help="output prefix for .samples.jsonl / .diagnostics.csv")

    p_table = sub.add_parser("table", help="norm comparison table over (q, n)")
    _add_symbol_args(p_table)
    p_table.add_argument("--q-max", type=_at_least(int, 1), default=4)
    p_table.add_argument("--n-max", type=_at_least(int, 0), default=4)
    p_table.add_argument("--format", choices=["json", "csv"], default="csv")
    p_table.add_argument("--out")

    return parser


def cmd_norm(args) -> int:
    # |B_0| = 1 passes any q, but the weights alone hold q entries
    _check_limit(args.q, args.n, "norm limit", MAX_NORM_VERTICES, width=args.q)
    op = BranchingOperator.uniform(args.q, args.n, args.f)
    report = operator_norm(op, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    if args.n + 1 > EXACT_NORM_MAX_ORDER:
        print(f"exact norm not computed: T_n has order {args.n + 1} > {EXACT_NORM_MAX_ORDER}", file=sys.stderr)
    else:
        # the operator norm is the largest block norm, ||T_n|| by interlacing
        exact = _spectral_norm(toeplitz_dense(args.f, args.n))
        err = abs(report.norm_estimate - exact) / exact if exact > 0 else report.norm_estimate
        print(f"exact norm {exact!r} (||T_n||), power iteration relative error {err:.3e}", file=sys.stderr)
    if args.format == "csv":
        text = (
            "norm,method,iterations,residual\n"
            f"{report.norm_estimate!r},{NORM_METHOD},{report.iterations},{report.residual!r}\n"
        )
    else:
        text = json.dumps({"norm": report.norm_estimate, "method": NORM_METHOD,
                           "iterations": report.iterations, "residual": report.residual}) + "\n"
    _write(text, args.outputs, [[text]])
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    try:
        if args.case:
            results = [
                verify_mod.run_case_equalities(
                    args.case, seed=args.seed, trials=args.trials, fuzz=args.fuzz_entry
                )
            ]
        else:
            results = verify_mod.run_all(seed=args.seed, trials=args.trials, fuzz=args.fuzz_entry)
    except np.linalg.LinAlgError as exc:
        return _fail(str(exc), EXIT_VERIFY_FAILED)
    text = "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in results)
    _write(text, args.outputs, [[text]])
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_dpp(args) -> int:
    _check_limit(args.q, args.n, "dpp limit", MAX_DPP_VERTEX_SAMPLES, args.samples)
    # no dense matrix is built, but trees over the dense cap stay refused
    _check_limit(args.q, args.n, "dense cap", dense_cap())
    try:
        # the [0, 1] check and the eigenvalues of the cardinality rows, both
        # from the Toeplitz blocks; the chain sampler reads only the symbol
        kernel = dpp_mod.build_kernel(args.f, args.q, args.n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_KERNEL_REJECTED)
    lines, report = dpp_mod.chain_run(kernel, args.samples, args.seed)
    _write("wrote {} and {}\n".format(*args.outputs), args.outputs, [lines, [report.to_csv()]])
    return EXIT_OK


def cmd_table(args) -> int:
    # vertex counts grow with q, so the largest tree of the grid is (q_max, n_max)
    _check_limit(args.q_max, args.n_max, "dense cap", dense_cap())
    # the operator is unitarily T_n + T_{n-1} x (q-1) + ... + T_0 x (q-1)q^(n-1),
    # so its norm is ||T_n|| for q = 1 and the largest ||T_k||, k <= n, for
    # q >= 2, bit for bit the top of singular_values: T_k is the leading
    # section of T_{n_max}, and one SVD per order serves the whole grid
    T = toeplitz_dense(args.f, args.n_max)
    top = [_spectral_norm(T[: k + 1, : k + 1]) for k in range(args.n_max + 1)]
    cells = []
    # an empty range of n leaves no row, however large q_max is
    for q in range(1, args.q_max + 1) if args.n_max >= 1 else ():
        for n in range(1, args.n_max + 1):
            tn = top[n]
            bn = max(top[: n + 1]) if q > 1 else tn
            cells.append((q, n, bn, tn, bn - tn))
    columns = ["q", "n", "branching_norm", "toeplitz_norm", "gap"]
    if args.format == "json":
        text = json.dumps({"columns": columns, "rows": [list(c) for c in cells]}) + "\n"
    else:
        rows = [",".join(columns)]
        rows += [f"{q},{n},{bn!r},{tn!r},{gap!r}" for q, n, bn, tn, gap in cells]
        text = "\n".join(rows) + "\n"
    _write(text, args.outputs, [[text]])
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {"norm": cmd_norm, "verify": cmd_verify, "dpp": cmd_dpp, "table": cmd_table}[args.command]
        if args.out == "":
            raise ValueError("--out must not be empty")
        # the run's output paths, none without --out: none may be a directory, lie
        # in a missing one or have a name over its directory's NAME_MAX, a symlink's
        # target included, so a refused --out leaves no output and costs no computation
        suffixes = DPP_SUFFIXES if handler is cmd_dpp else ("",)
        args.outputs = [args.out + s for s in suffixes] if args.out else []
        for path in args.outputs:
            if os.path.isdir(path):
                raise ValueError(f"--out path {path!r} is a directory")
            target = os.path.realpath(path) if os.path.islink(path) else path
            out_dir, name = os.path.dirname(target) or ".", os.path.basename(target)
            if not os.path.isdir(out_dir):
                raise ValueError(f"--out directory {out_dir!r} does not exist")
            if len(os.fsencode(name)) > (name_max := os.pathconf(out_dir, "PC_NAME_MAX")):
                raise ValueError(f"--out file name {name!r} is longer than {name_max} bytes")
        if handler is not cmd_norm:
            # every other subcommand keeps its trees under the dense cap
            dense_cap()
        if handler is not cmd_verify:
            args.f = _load_symbol(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        return handler(args)
    except (DenseCapError, _SizeLimitError) as exc:
        return _fail(str(exc), EXIT_CAP_EXCEEDED)
    except OSError as exc:
        # an --out that cannot be written even though its directory exists
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
