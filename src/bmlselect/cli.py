"""Command-line interface: score one model, run subset selection, or drive
Monte Carlo experiments.

Every setting is resolved in one step: the config file's ``key = value``
lines, overlaid by the flags that were given, each parsed once by the parser
its name selects.  A command reads only that dict, and a setting that the
run would not read exits 2.  `select` and `criteria` score through one
engine (:func:`~bmlselect.selection.score_candidates`): `criteria` is the
full model's row of the table `select` ranks, so a value it cannot give
reads ``undefined (<reason>)`` in the words of `select`'s ``excluded``
column.  Every output, a file or `criteria`'s stdout, is written by
:func:`_write_csv`: plain CSV prefixed by ``# key = value`` comment lines
that echo the fully resolved configuration (including any defaulted seed);
`select` prints each row by one ``%`` template per pattern of blank cells.
Numbers carry 17 significant digits, so a fixed seed yields byte-identical
files regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import sys

import numpy as np

from . import __version__
from .covariance import PRIOR_KINDS, CovarianceSpec
from .criteria import CRITERION_NAMES, check_names, needs_prior
from .exceptions import (
    BmlselectError,
    CandidateExplosionError,
    CovarianceError,
    DataParseError,
    SingularDesignError,
)
from .model_core import Dataset
from .selection import EXCLUSION_REASONS, SelectionOptions, report_from_table, score_candidates
from .simulation import BETA_PATTERNS, ExperimentSpec, _plan_blocks, run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
# Ranked positions the `select` writer formats at a time.
_WRITE_CHUNK = 512


def _fmt(x) -> str:
    return format(float(x), ".17g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmlselect",
        description="Variable selection for Gaussian linear regression via "
        "marginal-likelihood information criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, command):
        if command != "simulate":
            p.add_argument("--data", help="input CSV: header row, response first, predictors after")
        p.add_argument("--config", help="flat key = value config file; flags override it")
        p.add_argument("--out", help="output CSV path")
        p.add_argument(
            "--criterion",
            action="append",
            help="criterion name, comma list, or 'all'; repeatable",
        )
        p.add_argument("--prior", choices=PRIOR_KINDS, help="prior scale family (default ridge)")
        p.add_argument("--lambda", dest="lam", type=float, help="fix the prior scale")
        p.add_argument(
            "--estimate-lambda",
            action="store_true",
            default=None,
            help="re-estimate the prior scale per candidate (the default)",
        )
        p.add_argument("--phi", type=float, help="fix the covariance parameter")
        if command != "criteria":  # which scores the full model alone
            p.add_argument(
                "--include-null",
                action=argparse.BooleanOptionalAction,
                help="include the empty model among candidates (default yes)",
            )

    for name, text in (("select", "exhaustive subset selection on a data file"),
                       ("criteria", "score the full model of a data file")):
        p_data = sub.add_parser(name, help=text)
        add_common(p_data, name)
        p_data.add_argument("--covariance", choices=("identity", "ar1", "nerm"))

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment grid")
    add_common(p_sim, "simulate")
    p_sim.add_argument(
        "--covariance",
        "--model",
        dest="covariance",
        choices=("identity", "constant_variance", "ar1", "nerm"),
        help="generating model kind",
    )
    p_sim.add_argument("--seed", type=int, help="master seed (defaulted and echoed if absent)")
    p_sim.add_argument("--replications", type=int)
    p_sim.add_argument("--n-grid", help="comma list of sample sizes")
    p_sim.add_argument("--snr-grid", help="comma list of signal-to-noise ratios")
    p_sim.add_argument("--beta-pattern", choices=tuple(BETA_PATTERNS))
    return parser


# ---------------------------------------------------------------------------
# Settings and input parsing
# ---------------------------------------------------------------------------


def _load_config(path: str, keys: set[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataParseError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataParseError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in keys:
            raise DataParseError(f"{path}: line {lineno}: unknown key {key!r}")
        # In a simulate config, as on its command line, `model` is `covariance`.
        cfg["covariance" if key == "model" else key] = value.strip()
    return cfg


def _read_data(path: str):
    """Parse a headered CSV: first column response, remaining predictors.
    Blank lines are skipped; every other cell must be a finite number."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataParseError(f"cannot read data {path}: {exc}") from exc
    if not rows:
        raise DataParseError(f"{path}: empty file")
    header = rows[0]
    ncol = len(header)
    if ncol < 2:
        raise DataParseError(f"{path}: need a response column plus at least one predictor")
    values = []
    for rownum, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != ncol:
            raise DataParseError(
                f"{path}: row {rownum}: expected {ncol} fields, found {len(row)}"
            )
        parsed = []
        for colnum, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataParseError(
                    f"{path}: row {rownum}, column {colnum}: not a number: {cell!r}"
                ) from None
            if not math.isfinite(parsed[-1]):
                raise DataParseError(
                    f"{path}: row {rownum}, column {colnum}: not a finite number: {cell!r}"
                )
        values.append(parsed)
    if not values:
        raise DataParseError(f"{path}: no data rows")
    data = np.asarray(values, dtype=float)
    return data[:, 0], data[:, 1:], header


def _as_bool(value, what: str) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise DataParseError(f"{what}: expected a boolean, got {value!r}")


def _as_int(value, what: str) -> int:
    try:
        return int(str(value))
    except ValueError:
        raise DataParseError(f"{what}: expected an integer, got {value!r}") from None


def _as_float(value, what: str) -> float:
    try:
        return float(str(value))
    except ValueError:
        raise DataParseError(f"{what}: expected a number, got {value!r}") from None


def _split_list(value, what: str) -> list[str]:
    """The items of a comma list (or of a repeated flag's comma lists).  An
    empty item beside a non-empty one is refused; all-empty gives no items."""
    text = ",".join(value) if isinstance(value, list) else str(value)
    parts = [p.strip() for p in text.split(",")]
    if any(parts) and not all(parts):
        raise DataParseError(f"{what}: empty item in {text!r}")
    return [p for p in parts if p]


def _list_of(parse):
    return lambda value, what: tuple(parse(item, what) for item in _split_list(value, what))


def _as_criteria(value, what: str) -> tuple[str, ...]:
    names = _split_list(value, what)
    if any(n.lower() == "all" for n in names):
        return CRITERION_NAMES
    return check_names(dict.fromkeys(names))


# The parser of each setting that is not used as its text.  Flag values pass
# through it too; those argparse has already typed come back unchanged.
_PARSERS = {
    "lambda": _as_float,
    "phi": _as_float,
    "seed": _as_int,
    "replications": _as_int,
    "nerm_group_size": _as_int,
    "include_null": _as_bool,
    "estimate_lambda": _as_bool,
    "n_grid": _list_of(_as_int),
    "snr_grid": _list_of(_as_float),
    "group_sizes": _list_of(_as_int),
    "criterion": _as_criteria,
}
# (dataclass field, setting) of the values a user may set; a value set
# neither way is left to the dataclass default.
_OPTION_FIELDS = (("prior_kind", "prior"), ("include_null", "include_null"))
_SIMULATE_FIELDS = (
    ("master_seed", "seed"),
    ("phi_true", "phi"),
    ("replications", "replications"),
    ("n_grid", "n_grid"),
    ("snr_grid", "snr_grid"),
    ("beta_pattern", "beta_pattern"),
    ("nerm_group_size", "nerm_group_size"),
    ("criteria", "criterion"),
)
# A command's config keys are its flags' destinations (``lam`` is read as
# ``lambda``) and these keys, which have no flag there.
_CONFIG_ONLY_KEYS = {
    "select": {"group_sizes"},
    "criteria": {"group_sizes"},
    "simulate": {"model", "nerm_group_size"},
}


def _settings(ns) -> dict:
    """The run's parsed settings: the config file's keys, overlaid by each flag given."""
    flags = {"lambda" if dest == "lam" else dest: value
             for dest, value in vars(ns).items() if dest not in ("command", "config")}
    raw = _load_config(ns.config, set(flags) | _CONFIG_ONLY_KEYS[ns.command]) if ns.config else {}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    s = {key: _PARSERS[key](value, key) if key in _PARSERS else value
         for key, value in raw.items()}
    # estimate_lambda only says whether lambda is left unfixed, so it must agree.
    if s.get("estimate_lambda") and "lambda" in s:
        raise DataParseError("--lambda and --estimate-lambda are mutually exclusive")
    if s.get("estimate_lambda") is False and "lambda" not in s:
        raise DataParseError("estimate_lambda = false does not apply without lambda")
    return s


def _resolve_covariance(s: dict) -> CovarianceSpec:
    kind = s.get("covariance", "identity")
    if kind == "nerm" and "group_sizes" not in s:
        raise DataParseError("nerm covariance requires group_sizes in the config file")
    return CovarianceSpec(kind=kind, phi=s.get("phi"), group_sizes=s.get("group_sizes"))


def _require(value, flag: str):
    if value is None:
        raise DataParseError(f"missing required option {flag}")
    return value


def _writable(path: str) -> str:
    """``path``, once it opens for writing; a file created to find out is removed."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise DataParseError(f"cannot write {path}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_csv(fh, meta: dict, head, lines) -> None:
    """Write the ``# key = value`` lines of ``meta``, the header cells ``head``
    and the CSV ``lines``, already formatted (no cell needs quoting), to the
    open text stream ``fh``.  Every command's output goes through here."""
    fh.writelines(f"# {key} = {value}\n" for key, value in meta.items())
    fh.write(",".join(head) + "\n")
    fh.writelines(lines)


def _resolve_data_run(s: dict):
    """(data path, dataset, criteria, options) of a `select` or `criteria` run."""
    data_path = _require(s.get("data"), "--data")
    y, x, _ = _read_data(data_path)
    dataset = Dataset(y=y, x_full=x, cov=_resolve_covariance(s))
    options = SelectionOptions(lam=s.get("lambda"),  # checks the prior whatever the criteria
                               **{f: s[k] for f, k in _OPTION_FIELDS if k in s})
    return data_path, dataset, s.get("criterion", CRITERION_NAMES), options


def _cmd_select(s: dict) -> int:
    out_path = _writable(_require(s.get("out"), "--out"))
    data_path, dataset, criteria, options = _resolve_data_run(s)
    table = score_candidates(dataset, criteria, options)
    selected = {name: report_from_table(table, name) for name in criteria}
    ranked, excluded = table.rank(criteria[0])

    with_lambda = needs_prior(criteria)
    meta = {
        "command": "select",
        "version": __version__,
        "data": data_path,
        "n": dataset.n,
        "p_omega": dataset.p_omega,
        "covariance": dataset.cov.describe(),
        "phi": "none"
        if dataset.cov.kind == "identity"
        else (_fmt(table.phi_hat) + " (estimated)" if table.phi_hat is not None else _fmt(dataset.cov.phi)),
        "prior": options.prior_kind,
        "lambda": "estimated per candidate" if options.lam is None else _fmt(options.lam),
        "criteria": ",".join(criteria),
        "include_null": str(options.include_null).lower(),
        "ranked_by": criteria[0],
    }
    labels = table.labels()

    def template(i):
        """The row format of every candidate whose blank cells are row ``i``'s:
        "%.17g" prints a value as _fmt does, "%.0s" takes one and prints nothing."""
        excluded_by = table.excluded(i)
        lam = ["%.0s," if math.isnan(table.lambda_hat[i]) else "%.17g,"] if with_lambda else []
        scores = ["%.0s," if name in excluded_by else "%.17g," for name in criteria]
        reasons = "; ".join(f"{name}: {why}" for name, why in sorted(excluded_by.items()))
        return "".join(["%s,%s,%d,", *lam, *scores, reasons.replace("%", "%%"), "\n"])

    # One template per pattern of blank cells (lambda_hat's NaN and the exclusion
    # codes, as the digits of one integer), made from the pattern's first row.
    blank = np.column_stack((np.isnan(table.lambda_hat), table.exclusion))
    code = blank @ len(EXCLUSION_REASONS) ** np.arange(blank.shape[1])
    _, first, pattern = np.unique(code, return_index=True, return_inverse=True)
    templates = [template(i) for i in first.tolist()]

    def body():
        positions = np.concatenate((ranked, excluded))
        for lo in range(0, len(positions), _WRITE_CHUNK):
            part = positions[lo:lo + _WRITE_CHUNK]
            values = table.scores[part]
            if with_lambda:
                values = np.column_stack((table.lambda_hat[part], values))
            yield "".join(
                templates[k] % (rank if rank <= len(ranked) else "", labels[i], size, *row)
                for rank, i, k, size, row in zip(
                    itertools.count(lo + 1), part.tolist(), pattern[part].tolist(),
                    table.members[part].sum(axis=1).tolist(), values.tolist()))

    head = ["rank", "candidate", "p", *(["lambda_hat"] if with_lambda else []), *criteria,
            "excluded"]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, meta, head, body())
    for name in criteria:
        print(f"selected[{name}] = {selected[name].label()}")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_criteria(s: dict) -> int:
    out_path = s.get("out")
    if out_path:
        _writable(out_path)
    data_path, dataset, criteria, options = _resolve_data_run(s)
    # The full model is the one row of the engine's table.
    table = score_candidates(dataset, criteria, options,
                             members=np.ones((1, dataset.p_omega), dtype=bool))
    excluded = table.excluded(0)
    if "singular design" in excluded.values():  # its whitened columns fail the rank rule
        raise SingularDesignError(f"singular design for candidate {table.candidate(0).label()}")
    cov = dataset.cov if table.phi_hat is None else dataset.cov.with_phi(table.phi_hat)
    meta = {
        "command": "criteria",
        "version": __version__,
        "data": data_path,
        "n": dataset.n,
        "p": dataset.p_omega,
        "covariance": cov.describe(),
        "prior": options.prior_kind,
        "lambda": "none" if not needs_prior(criteria) else (
            _fmt(options.lam) if options.lam is not None
            else _fmt(table.lambda_hat[0]) + " (estimated)"),
    }
    lines = [f"{name},{f'undefined ({excluded[name]})' if name in excluded else _fmt(value)}\n"
             for name, value in zip(criteria, table.scores[0].tolist())]
    text = io.StringIO()
    _write_csv(text, meta, ("criterion", "value"), lines)
    sys.stdout.write(text.getvalue())
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text.getvalue())
    return EXIT_OK


def _cmd_simulate(s: dict) -> int:
    out_path = _writable(_require(s.get("out"), "--out"))
    if "lambda" in s:
        raise DataParseError("simulate always re-estimates lambda; drop --lambda")
    given = {f: s[k] for f, k in _OPTION_FIELDS + _SIMULATE_FIELDS if k in s}
    kind = s.get("covariance")
    if kind is not None:
        given["model_kind"] = "constant_variance" if kind == "identity" else kind
    spec = ExperimentSpec(**given)
    for key, reads in (("phi", spec.model_kind != "constant_variance"),
                       ("nerm_group_size", spec.model_kind == "nerm")):
        if key in s and not reads:
            raise DataParseError(f"{key} does not apply to the {spec.model_kind} model")
    cells = len(spec.cells())
    print(
        f"simulate: {cells} cells x {spec.replications} replications = "
        f"{cells * spec.replications} replications on {_plan_blocks(spec)[1]} workers",
        file=sys.stderr,
    )
    results = run_experiment(spec)
    meta = {
        "command": "simulate",
        "version": __version__,
        "model": spec.model_kind,
        "phi": _fmt(spec.phi_true),
        "n_grid": ",".join(str(n) for n in spec.n_grid),
        "snr_grid": ",".join(_fmt(s) for s in spec.snr_grid),
        "beta_pattern": spec.beta_pattern,
        "replications": spec.replications,
        "criteria": ",".join(spec.criteria),
        "seed": spec.master_seed,
        "prior": spec.prior_kind,
        "include_null": str(spec.include_null).lower(),
    }
    if spec.model_kind == "nerm":
        meta["nerm_group_size"] = spec.nerm_group_size
    head = ("model_kind", "n", "snr", "beta_pattern", "criterion", "replications",
            "true_model_count", "mean_prediction_error", "se_prediction_error")
    lines = (f"{res.model_kind},{res.n},{_fmt(res.snr)},{res.beta_pattern},{name},"
             f"{res.replications},{summary.true_model_count},"
             f"{_fmt(summary.mean_prediction_error)},{_fmt(summary.standard_error)}\n"
             for res in results for name, summary in res.by_criterion.items())
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, meta, head, lines)
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = {"select": _cmd_select, "criteria": _cmd_criteria, "simulate": _cmd_simulate}
        return command[ns.command](_settings(ns))
    except (DataParseError, CovarianceError, CandidateExplosionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BmlselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
