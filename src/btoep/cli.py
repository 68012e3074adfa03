"""Command-line front end.

Subcommands:
  norm    power-iteration operator norm of the uniform-weight operator
  verify  run the structural identity suites, JSON line per suite
  dpp     sample the induced determinantal point process + diagnostics;
          the draws come from the batched chain-rule sampler
          dpp.sample_chains, the seed of each from dpp.sample_seeds, and
          the diagnostics from dpp.sssp_statistics of those draws; the
          kernel's spectrum comes from its Toeplitz blocks, so no dense
          matrix is built
  table   CSV of branching vs Toeplitz norms over a (q, n) sweep; the
          branching norm is the largest block norm ||T_k|| over k <= n
          (k = n alone for q = 1), and each order k is solved once per
          invocation

Exit codes: 0 success, 1 malformed input (a malformed BTOEP_DENSE_CAP,
a negative --seed, an unreadable --symbol-file, an --out that cannot
be written and a dpp --out with a directory at either output path
included), 2 norm non-convergence, 3 verification failure,
4 kernel rejection, 5 size limit exceeded: the MAX_NORM_VERTICES limit
of norm, the MAX_DPP_VERTEX_SAMPLES limit of dpp on vertices x samples,
the dense cap on the tree of dpp or on the largest tree (q_max, n_max) of
table, each decided from (q, n) before anything is built; dpp and table
build no dense matrix but still refuse such trees.  verify exits 5 too
when a dense matrix it builds would be over the cap.
Outputs depend only on the arguments and the seed, so reruns are
byte-identical; files are written in one shot after all computation
succeeds, never partially.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dpp as dpp_mod
from . import verify as verify_mod
from .operators import BranchingOperator, DenseCapError, dense_cap, toeplitz_dense
from .spectral import POWER_SEED, operator_norm
from .symbols import Symbol
from .tree import TreeShape

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3
EXIT_KERNEL_REJECTED = 4
EXIT_CAP_EXCEEDED = 5

# norm refuses larger trees before allocating: a complex vector of 2**26
# entries takes 1 GiB and the power iteration holds several at once
MAX_NORM_VERTICES = 2**26
# the exact norm ||T_n|| that norm reports on stderr is a dense SVD of
# order n + 1; only q = 1 can reach this order under MAX_NORM_VERTICES
EXACT_NORM_MAX_ORDER = 1024
# dpp refuses more vertices x samples than this before allocating: it
# holds every draw until both files are written, an occupancy byte per
# vertex and sample for the diagnostics plus about 40 bytes per drawn
# point for the samples and their JSON lines
MAX_DPP_VERTEX_SAMPLES = 2**26
# dpp writes --out with each of these appended
DPP_SUFFIXES = (".samples.jsonl", ".diagnostics.csv")


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_symbol(args) -> Symbol:
    if args.symbol and args.symbol_file:
        raise ValueError("give either --symbol or --symbol-file, not both")
    if args.symbol:
        return Symbol.from_json(args.symbol)
    if args.symbol_file:
        try:
            text = Path(args.symbol_file).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read --symbol-file: {exc}") from exc
        return Symbol.from_json(text)
    raise ValueError("a symbol is required (--symbol or --symbol-file)")


def _emit(out: str | None, text: str) -> None:
    """Print text and, given --out, write the same bytes there."""
    print(text, end="")
    if out:
        Path(out).write_text(text)


def _over_limit(q: int, n: int, what: str, limit: int, samples: int = 1) -> int | None:
    """Exit 5 with an error line when |B_n| x samples is over limit, else None.

    For q >= 2, |B_n| >= 2^n, so a depth of limit.bit_length() or more is
    over the limit and q^(n+1) is only formed for trees near it.
    """
    if (q > 1 and n >= limit.bit_length()) or TreeShape(q, n).vertex_count * samples > limit:
        per, unit = (f" x {samples} samples", "vertex-samples") if samples > 1 else ("", "vertices")
        return _fail(f"(q={q}, n={n}){per} is over the {what} of {limit} {unit}", EXIT_CAP_EXCEEDED)
    return None


def _add_symbol_args(p):
    p.add_argument("--symbol", help='inline symbol JSON {"coeffs": [[k, re, im], ...]}')
    p.add_argument("--symbol-file", help="path to a symbol JSON file")


# one parser per process: parse_args reads it and never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btoep",
        description="Branching-Toeplitz operators on rooted homogeneous trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="matrix-free operator norm")
    _add_symbol_args(p_norm)
    p_norm.add_argument("--q", type=int, required=True)
    p_norm.add_argument("--n", type=int, required=True)
    p_norm.add_argument("--tol", type=float, default=1e-10)
    p_norm.add_argument("--max-iter", type=int, default=10000)
    p_norm.add_argument("--seed", type=int, default=POWER_SEED)
    p_norm.add_argument("--format", choices=["json", "csv"], default="json")
    p_norm.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--case", choices=["A1", "A2", "A3"])
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--fuzz-entry", action="store_true",
                          help="inject a perturbation (negative control)")
    p_verify.add_argument("--out")

    p_dpp = sub.add_parser("dpp", help="sample the determinantal point process")
    _add_symbol_args(p_dpp)
    p_dpp.add_argument("--q", type=int, required=True)
    p_dpp.add_argument("--n", type=int, required=True)
    p_dpp.add_argument("--samples", type=int, default=10000)
    p_dpp.add_argument("--seed", type=int, default=0)
    p_dpp.add_argument("--out", default="dpp", help="output prefix for .samples.jsonl / .diagnostics.csv")

    p_table = sub.add_parser("table", help="norm comparison table over (q, n)")
    _add_symbol_args(p_table)
    p_table.add_argument("--q-max", type=int, default=4)
    p_table.add_argument("--n-max", type=int, default=4)
    p_table.add_argument("--format", choices=["json", "csv"], default="csv")
    p_table.add_argument("--out")

    return parser


def cmd_norm(args) -> int:
    if args.q < 1 or args.n < 0 or not 0 < args.tol < np.inf or args.max_iter < 1:
        return _fail("invalid numeric parameters", EXIT_INPUT)
    if code := _over_limit(args.q, args.n, "norm limit", MAX_NORM_VERTICES):
        return code
    op = BranchingOperator.uniform(args.q, args.n, args.f)
    report = operator_norm(op, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    if args.n + 1 > EXACT_NORM_MAX_ORDER:
        print(f"exact norm not computed: T_n has order {args.n + 1} > {EXACT_NORM_MAX_ORDER}", file=sys.stderr)
    else:
        # the operator norm is the largest block norm, ||T_n|| by interlacing
        exact = float(np.linalg.norm(toeplitz_dense(args.f, args.n), 2))
        err = abs(report.norm_estimate - exact) / exact if exact > 0 else report.norm_estimate
        print(f"exact norm {exact!r} (||T_n||), power iteration relative error {err:.3e}", file=sys.stderr)
    if args.format == "csv":
        text = (
            "norm,method,iterations,residual\n"
            f"{report.norm_estimate!r},{report.method.value},"
            f"{report.iterations},{report.residual!r}"
        )
    else:
        text = report.to_json()
    _emit(args.out, text + "\n")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    if args.trials < 1:
        return _fail("--trials must be >= 1", EXIT_INPUT)
    if args.case:
        results = [
            verify_mod.run_case_equalities(
                args.case, seed=args.seed, trials=args.trials, fuzz=args.fuzz_entry
            )
        ]
    else:
        results = verify_mod.run_all(seed=args.seed, trials=args.trials, fuzz=args.fuzz_entry)
    _emit(args.out, "".join(json.dumps(dataclasses.asdict(r)) + "\n" for r in results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_dpp(args) -> int:
    if args.q < 1 or args.n < 0 or args.samples < 1000:
        return _fail("invalid numeric parameters (need samples >= 1000)", EXIT_INPUT)
    if code := _over_limit(args.q, args.n, "dpp limit", MAX_DPP_VERTEX_SAMPLES, args.samples):
        return code
    # no dense matrix is built, but trees over the dense cap stay refused
    if code := _over_limit(args.q, args.n, "dense cap", dense_cap()):
        return code
    try:
        # the [0, 1] check and the eigenvalues of the cardinality rows, both
        # from the Toeplitz blocks; the chain sampler reads only the symbol
        kernel = dpp_mod.build_kernel(args.f, args.q, args.n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_KERNEL_REJECTED)
    draws = dpp_mod.sample_chains(kernel, dpp_mod.sample_seeds(args.samples, args.seed))
    report = dpp_mod.sssp_statistics(kernel, draws)
    samples_path, diagnostics_path = (args.out + s for s in DPP_SUFFIXES)
    Path(samples_path).write_text(dpp_mod.samples_to_jsonl(draws))
    Path(diagnostics_path).write_text(report.to_csv())
    print(f"wrote {samples_path} and {diagnostics_path}")
    return EXIT_OK


def cmd_table(args) -> int:
    if args.q_max < 1 or args.n_max < 0:
        return _fail("invalid numeric parameters", EXIT_INPUT)
    # vertex counts grow with q, so the largest tree of the grid is (q_max, n_max)
    if code := _over_limit(args.q_max, args.n_max, "dense cap", dense_cap()):
        return code
    # the operator is unitarily T_n + T_{n-1} x (q-1) + ... + T_0 x (q-1)q^(n-1),
    # so its norm is ||T_n|| for q = 1 and the largest ||T_k||, k <= n, for
    # q >= 2, bit for bit the top of singular_values: one SVD per order
    # serves the whole grid
    top = [float(np.linalg.norm(toeplitz_dense(args.f, k), 2)) for k in range(args.n_max + 1)]
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
    _emit(args.out, text)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "norm": cmd_norm,
        "verify": cmd_verify,
        "dpp": cmd_dpp,
        "table": cmd_table,
    }[args.command]
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be >= 0")
        # dpp's --out is a prefix, so check the directory of the string as given
        out_dir = os.path.dirname(args.out or "") or "."
        if not os.path.isdir(out_dir):
            raise ValueError(f"--out directory {out_dir!r} does not exist")
        if handler is cmd_dpp:
            # both files or neither, so neither path may be a directory
            for path in (args.out + s for s in DPP_SUFFIXES):
                if os.path.isdir(path):
                    raise ValueError(f"--out path {path!r} is a directory")
        if handler is not cmd_norm:
            # every other subcommand keeps its trees under the dense cap
            dense_cap()
        if handler is not cmd_verify:
            args.f = _load_symbol(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        return handler(args)
    except DenseCapError as exc:
        return _fail(str(exc), EXIT_CAP_EXCEEDED)
    except OSError as exc:
        # an --out that cannot be written even though its directory exists
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
