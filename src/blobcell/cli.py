"""Batch command-line surface.

Subcommands build the algebras at a requested scale, run the verification
suites, and emit machine-readable artifacts:

* ``dims``   -- dimension table (cyclotomic algebra, quotient, shapes).
* ``verify`` -- invariant suites with per-check pass/fail and witnesses.
* ``basis``  -- the graded cellular basis, vector by vector.
* ``cell``   -- cell-module data (dimensions, Gram ranks, radicals).
* ``trace``  -- a symbolic straightening trace for a chosen dot.

A run builds the quotient algebra, its quiver-Hecke generator images and
its cellular basis at most once: the suites of ``verify`` share one lazy
build, and ``basis`` and ``cell`` share one helper.

``--oracle on`` (the default) certifies the symbolic straightenings of
the ``rewrite`` suite and of ``trace`` against the matrix representation;
the ``verify`` report records the setting as ``oracle``.

Reports are JSON (deterministic modulo the timestamp field); ``basis``
can also write its matrix as CSV, and the other commands refuse a ``.csv``
output path.  Parameters come from flags or a plain ``key=value``
config file, with the level presets as defaults.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Optional

from . import blob as B
from . import combinatorics as comb
from . import exactfield as xf
from . import hecke as H
from . import klrcalc as K

SUITES = ("hecke", "klr", "cellular", "jm", "rewrite", "all")


@dataclass
class RunConfig:
    """Validated numerical scope of one run."""

    n: int
    l: int
    e: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    kappa_hat: Optional[tuple] = None
    theta: Optional[tuple] = None
    suite: str = "all"
    out: Optional[str] = None
    oracle: bool = True

    def params(self) -> H.HeckeParams:
        """Resolved parameters; raises ValueError naming bad input."""
        if self.n < 1:
            raise ValueError(f"n = {self.n}: need at least one string")
        return H.default_params(self.n, self.l, e=self.e, p=self.p,
                                q=self.q, hat_kappa=self.kappa_hat)

    def weighting(self) -> tuple:
        return comb.theta_zero(self.l) if self.theta is None else self.theta


def _int_tuple(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


def read_config_file(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as ex:
        raise ValueError(f"cannot read config file {path}: "
                         f"{ex.strerror}") from None
    out = {}
    for number, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ValueError(f"config file {path}, line {number}: {line!r} "
                             f"is not key = value")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


ON_OFF = {**dict.fromkeys(("on", "true", "yes", "1"), True),
          **dict.fromkeys(("off", "false", "no", "0"), False)}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        raw.update(read_config_file(args.config))
        known = [f.name for f in fields(RunConfig)]
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValueError(f"unknown config key {', '.join(unknown)}; "
                             f"known keys: {', '.join(known)}")
    for key in ("n", "l", "e", "p", "q", "kappa_hat", "theta", "suite",
                "out", "oracle"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    for key in ("n", "l", "e", "p", "q", "kappa_hat", "theta"):
        text, many = raw.get(key), key in ("kappa_hat", "theta")
        if isinstance(text, str):   # a flag's integer is already parsed
            try:
                raw[key] = _int_tuple(text) if many else int(text)
            except ValueError:
                raise ValueError(f"{key} = {text!r}: expected "
                                 f"{'integers' if many else 'an integer'}"
                                 ) from None
    if isinstance(raw.get("oracle"), str):
        if raw["oracle"].lower() not in ON_OFF:
            raise ValueError(f"oracle = {raw['oracle']!r}: choose one of "
                             f"{', '.join(ON_OFF)}")
        raw["oracle"] = ON_OFF[raw["oracle"].lower()]
    if "n" not in raw or "l" not in raw:
        raise ValueError("both n and l are required")
    if raw["l"] < 1:
        raise ValueError(f"l = {raw['l']}: need at least one component")
    if raw.get("theta") is not None and len(raw["theta"]) != raw["l"]:
        raise ValueError("weighting length differs from the level")
    raw.setdefault("suite", "all")
    if raw["suite"] not in SUITES:
        raise ValueError(f"unknown suite {raw['suite']!r}; "
                         f"choose from {', '.join(SUITES)}")
    return RunConfig(**raw)


def emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _header(cfg: RunConfig, params: Optional[H.HeckeParams]) -> dict:
    head = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "n": cfg.n, "l": cfg.l}
    if params is not None:
        head.update({"e": params.e, "p": params.p, "q": params.q,
                     "kappa_hat": list(params.hat_kappa),
                     "kappa": list(params.kappa)})
    return head


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_dims(cfg: RunConfig) -> dict:
    """Dimension table: the cyclotomic algebra (l^n n!), the quotient
    (sum of squared standard-tableau counts) and the per-shape counts."""
    params = cfg.params() if cfg.n != 0 else None   # rejects n < 0
    shapes = comb.one_column_shapes(cfg.n, cfg.l)
    counts = {lam: comb.std_tableaux_count(lam) for lam in shapes}
    report = _header(cfg, params)
    report.update({
        "dim_H": cfg.l ** cfg.n * math.factorial(cfg.n),
        "dim_B": sum(c * c for c in counts.values()),
        "num_shapes": len(shapes),
        "shapes": [{"shape": str(lam), "std_tableaux": counts[lam]}
                   for lam in shapes],
    })
    return report


def _build(params: H.HeckeParams) -> tuple:
    """The quotient algebra, its generator images and the relations
    those images fail (build_blob -> KLRImages -> relation_failures)."""
    A = B.build_blob(params)
    try:
        images = B.KLRImages(A)
    except B.RelationFailure as ex:   # the weight split is not certified
        return A, None, [ex]
    return A, images, images.relation_failures()


def _certified_basis(cfg: RunConfig) -> tuple:
    """The parameters, the quotient algebra and its certified cellular
    basis; raises :class:`B.RelationFailure` on the first failing relation."""
    params = cfg.params()
    A = B.build_blob(params)
    return params, A, B.build_cellular_basis(A, B.klr_images(A),
                                             cfg.weighting())


def _uncertified(relation_fails: list) -> list[str]:
    """The failure recorded by a suite whose generator images fail."""
    return [f"generator images fail {len(relation_fails)} relations"]


def _cellular_basis(build, theta) -> tuple:
    """(cellular basis of the shared build, []), or (None, failures)."""
    A, images, relation_fails = build()
    if relation_fails:
        return None, _uncertified(relation_fails)
    try:
        return B.build_cellular_basis(A, images, theta), []
    except ValueError as ex:   # what the construction's certificate raises
        return None, [f"cellular basis construction failed: {ex}"]


def _suite_hecke(params: H.HeckeParams) -> list[str]:
    """The relations of H in its regular representation (that the unit
    generates H, the star certificate, and the Ariki-Koike presentation
    on the unit vector) and in its seminormal model.  Murphy's product
    formula is the seminormal matrix unit at (S, S) by construction:
    c_U(k) lies in the content set C(k), so ``murphy_eigenvalue(S, U)``
    is zero at the first k with c_U(k) != c_S(k) and one at U = S, and
    ``tableau_contents`` raises unless the contents separate the tableaux."""
    return (H.regular_rep(params).relation_failures()
            + H.SeminormalModel(params).relation_failures())


def _suite_klr(build) -> list[str]:
    return [str(f) for f in build()[2]]


def _suite_cellular(build, cellular_basis) -> list[str]:
    """The lines of :func:`B.check_cellularity`; no cell module is built,
    as sigma makes each Gram matrix symmetric (:func:`B.cell_modules`)."""
    basis, fails = cellular_basis()
    if basis is None:
        return list(fails)
    return list(B.check_cellularity(build()[0], basis))


def _suite_jm(build, cellular_basis) -> list[str]:
    basis, fails = cellular_basis()
    if basis is None:
        return list(fails)
    A, images, _ = build()
    return list(B.check_jm(A, basis, B.jm_images(A, images)))


def _oracle_invariant(images, k: int, shape, res) -> bool:
    """Whether the straightened terms ``res`` of y_k e(i^shape) evaluate
    in the held generator images to the held Y_k E[i^shape]."""
    lhs = xf.block_matmul(
        (images.Y[k], images.E[comb.i_lambda(shape, images.params.mc)]),
        images.p)
    return xf.block_equal(
        lhs, K.evaluate_sum([w for w, _ in res.terms], images), images.p)


def _suite_rewrite(params: H.HeckeParams, build, oracle: bool) -> list[str]:
    mc, n, l = params.mc, params.n, params.l
    images, fails = None, []
    if oracle:
        _, images, relation_fails = build()
        if relation_fails:
            images, fails = None, _uncertified(relation_fails)
    mumax = comb.mu_max(n, l)
    for shape in comb.one_column_shapes(n, l):
        for k in range(1, n + 1):
            try:
                res = K.straighten_dot(k, shape, mc)
            except K.NotProvablyZero as ex:
                fails.append(f"straighten_dot({k}, {shape}): {ex}")
                continue
            if shape == mumax and not res.zero:
                fails.append(f"y_{k} e(i^max) did not straighten to zero")
            if images is not None and \
                    not _oracle_invariant(images, k, shape, res):
                fails.append(f"straighten_dot({k}, {shape}) is not "
                             "oracle-invariant")
    return fails


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    """Run the selected invariant suites; exit code 1 on any failure.
    The suites that need the generator images or the cellular basis
    share one build of each, made by the first of them to run."""
    params = cfg.params()
    theta = cfg.weighting()
    wanted = SUITES[:-1] if cfg.suite == "all" else (cfg.suite,)
    build = functools.cache(functools.partial(_build, params))
    basis = functools.cache(functools.partial(_cellular_basis, build, theta))
    run = {"hecke": lambda: _suite_hecke(params),
           "klr": lambda: _suite_klr(build),
           "cellular": lambda: _suite_cellular(build, basis),
           "jm": lambda: _suite_jm(build, basis),
           "rewrite": lambda: _suite_rewrite(params, build, cfg.oracle)}
    report = _header(cfg, params)
    report["oracle"] = cfg.oracle
    report["suites"] = suites = {}
    for name in wanted:
        fails = run[name]()
        suites[name] = {"passed": not fails, "failures": fails}
    code = int(any(s["failures"] for s in suites.values()))
    report["passed"] = code == 0
    return report, code


def cmd_basis(cfg: RunConfig) -> dict:
    """Dump the graded cellular basis: one coefficient vector per pair of
    standard tableaux; with --out ending in .csv the basis matrix is also
    written column by column."""
    params, A, basis = _certified_basis(cfg)
    report = _header(cfg, params)
    report["dim"] = A.dim
    report["vectors"] = [
        {"shape": str(lam), "S": str(S), "T": str(T),
         "degree": basis.degree(S, T),
         "vector": [int(x) for x in basis.matrix[:, idx]]}
        for idx, (lam, S, T) in enumerate(basis.index)]
    if cfg.out and cfg.out.endswith(".csv"):
        xf.dump_matrix_csv(cfg.out, basis.matrix)
    return report


def cmd_cell(cfg: RunConfig) -> dict:
    """Cell-module table: dimension, Gram rank and radical per shape; raises
    the first line of :func:`B.check_cellularity` on a basis that fails it.
    Both steps read one table of the y_k and psi_r on the basis."""
    params, A, basis = _certified_basis(cfg)
    cells = B.check_cellularity(A, basis)
    if cells:
        raise ValueError(cells[0])
    modules = B.cell_modules(A, basis)
    report = _header(cfg, params)
    report["modules"] = [
        {"shape": str(m.shape), "dim": m.dim, "gram_rank": m.gram_rank,
         "radical_dim": m.radical_dim} for m in modules]
    return report


def cmd_trace(cfg: RunConfig, k: int) -> dict:
    """Straightening trace of y_k e(i^max) at the balanced maximal shape.
    Large scales run symbolically; with the oracle on (and a small scale)
    the exact expansion is certified against the matrix representation."""
    params = cfg.params()
    if not 1 <= k <= cfg.n:
        raise ValueError(f"dot index k = {k} is outside 1..n = 1..{cfg.n}")
    mc = params.mc
    shape = comb.mu_max(cfg.n, cfg.l)
    symbolic = not cfg.oracle or cfg.n > 4
    res = K.straighten_dot(k, shape, mc, symbolic=symbolic)
    if not symbolic and \
            not _oracle_invariant(B.klr_images(B.build_blob(params)), k,
                                  shape, res):
        raise ValueError("trace is not oracle-invariant")
    report = _header(cfg, params)
    report.update({
        "k": k,
        "shape": str(shape),
        "mode": "symbolic" if symbolic else "exact",
        "zero": res.zero,
        "trace": json.loads(res.trace.to_json()),
    })
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcell",
        description="Exact construction and verification of generalized "
                    "blob algebras and their graded cellular bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--n", type=int, help="number of strings")
        sp.add_argument("--l", type=int, help="level (number of components)")
        sp.add_argument("--e", type=int, help="quantum characteristic")
        sp.add_argument("--p", type=int, help="coefficient prime")
        sp.add_argument("--q", type=int, help="root of unity mod p")
        sp.add_argument("--kappa-hat", dest="kappa_hat",
                        help="integral multicharge, e.g. '0,22,44,67'")
        sp.add_argument("--theta", help="weighting, e.g. '0,0'")
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--out", help="output path (JSON; .csv for the basis "
                        "matrix)")
        sp.add_argument("--oracle", choices=("on", "off"), default=None,
                        help="certify the rewrite suite and trace against "
                        "the matrix representation")

    add_common(sub.add_parser("dims", help="dimension table"))
    spv = sub.add_parser("verify", help="run invariant suites")
    add_common(spv)
    spv.add_argument("--suite", choices=SUITES, default=None)
    add_common(sub.add_parser("basis", help="dump the cellular basis"))
    add_common(sub.add_parser("cell", help="cell-module table"))
    spt = sub.add_parser("trace", help="straightening trace at mu_max")
    add_common(spt)
    spt.add_argument("--k", type=int, default=5, help="dot index")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if (cfg.out or "").endswith(".csv") and args.command != "basis":
            raise ValueError(f"--out {cfg.out}: only basis writes a CSV "
                             f"matrix; {args.command} writes JSON")
        if cfg.out and (os.path.isdir(cfg.out) or not os.path.isdir(
                os.path.dirname(cfg.out) or ".")):   # fail before any work
            why = errno.EISDIR if os.path.isdir(cfg.out) else errno.ENOENT
            raise OSError(why, os.strerror(why), cfg.out)
        if args.command == "dims":
            report, code = cmd_dims(cfg), 0
        elif args.command == "verify":
            report, code = cmd_verify(cfg)
        elif args.command == "basis":
            report, code = cmd_basis(cfg), 0
        elif args.command == "cell":
            report, code = cmd_cell(cfg), 0
        else:
            report, code = cmd_trace(cfg, args.k), 0
        # a .csv out path of basis receives the matrix artifact; the
        # report then stays on stdout
        emit(report, None if (cfg.out or "").endswith(".csv") else cfg.out)
    except (ValueError, K.NotProvablyZero, B.RelationFailure) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:   # writing --out, or standard output (no name)
        name = "standard output" if ex.filename is None else ex.filename
        print(f"error: cannot write {name}: {ex.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
