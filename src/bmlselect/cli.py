"""Command-line interface: score one model, run subset selection, or drive
Monte Carlo experiments.

Output files are plain CSV prefixed by ``# key = value`` comment lines that
echo the fully resolved configuration (including any defaulted seed).
Numbers carry 17 significant digits, so a fixed seed yields byte-identical
files regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys

from . import __version__
from .covariance import PRIOR_KINDS, CovarianceSpec
from .criteria import CRITERION_NAMES, check_names, needs_prior, score
from .exceptions import (
    BmlselectError,
    CandidateExplosionError,
    CovarianceError,
    DataParseError,
    PenaltyUndefinedError,
)
from .model_core import CandidateModel, Dataset
from .selection import (
    SelectionOptions,
    fit_candidate,
    report_from_table,
    resolve_whitened,
    score_candidates,
)
from .simulation import (
    BETA_PATTERNS,
    CriterionSummary,
    ExperimentResult,
    ExperimentSpec,
    resolve_workers,
    run_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmlselect",
        description="Variable selection for Gaussian linear regression via "
        "marginal-likelihood information criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data):
        if with_data:
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
            help="re-estimate the prior scale per candidate (the default)",
        )
        p.add_argument("--phi", type=float, help="fix the covariance parameter")
        p.add_argument(
            "--include-null",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="include the empty model among candidates (default yes)",
        )

    for name, text in (("select", "exhaustive subset selection on a data file"),
                       ("criteria", "score the full model of a data file")):
        p_data = sub.add_parser(name, help=text)
        add_common(p_data, with_data=True)
        p_data.add_argument("--covariance", choices=("identity", "ar1", "nerm"))

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment grid")
    add_common(p_sim, with_data=False)
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
# Config and input parsing
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
        cfg[key] = value.strip()
    return cfg


def _read_data(path: str):
    """Parse a headered CSV: first column response, remaining predictors."""
    import numpy as np

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
        values.append(parsed)
    if not values:
        raise DataParseError(f"{path}: no data rows")
    data = np.asarray(values, dtype=float)
    return data[:, 0], data[:, 1:], header


def _pick(cli_value, cfg: dict, key: str, default=None):
    if cli_value is not None:
        return cli_value
    if key in cfg:
        return cfg[key]
    return default


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


def _resolve_criteria(ns, cfg, default=None) -> tuple[str, ...] | None:
    raw = ns.criterion if ns.criterion else cfg.get("criterion")
    if raw is None:
        return default
    names = _split_list(raw, "criterion")
    if any(n.lower() == "all" for n in names):
        return CRITERION_NAMES
    return check_names(dict.fromkeys(names))


# (dataclass field, flag and config key, parser) of the values a user may set;
# a value set neither way is left to the dataclass default.
_OPTION_FIELDS = (
    ("prior_kind", "prior", lambda v, _: v),
    ("include_null", "include_null", _as_bool),
)
_SIMULATE_FIELDS = (
    ("master_seed", "seed", _as_int),
    ("phi_true", "phi", _as_float),
    ("replications", "replications", _as_int),
    ("n_grid", "n_grid", lambda v, what: tuple(_as_int(n, what) for n in _split_list(v, what))),
    ("snr_grid", "snr_grid",
     lambda v, what: tuple(_as_float(s, what) for s in _split_list(v, what))),
    ("beta_pattern", "beta_pattern", lambda v, _: v),
    ("nerm_group_size", "nerm_group_size", _as_int),
)
# A command's config keys are its flags' destinations (``lam`` is read as
# ``lambda``) and these keys, which have no flag there.
_CONFIG_ONLY_KEYS = {
    "select": {"group_sizes"},
    "criteria": {"group_sizes"},
    "simulate": {"model", "nerm_group_size"},
}


def _config_keys(ns) -> set[str]:
    flags = {"lambda" if dest == "lam" else dest for dest in vars(ns)} - {"command", "config"}
    return flags | _CONFIG_ONLY_KEYS[ns.command]


def _given(ns, cfg, fields) -> dict:
    """The parsed values of ``fields`` that were set by flag or config."""
    given = {}
    for name, key, parse in fields:
        value = _pick(getattr(ns, key, None), cfg, key)
        if value is not None:
            given[name] = parse(value, key)
    return given


def _resolve_options(ns, cfg) -> SelectionOptions:
    """The prior choice and include_null; the prior is checked whatever the criteria."""
    lam = _pick(ns.lam, cfg, "lambda")
    lam = None if lam is None else _as_float(lam, "lambda")
    estimate = ns.estimate_lambda or _as_bool(cfg.get("estimate_lambda", False), "estimate_lambda")
    if lam is not None and estimate:
        raise DataParseError("--lambda and --estimate-lambda are mutually exclusive")
    return SelectionOptions(lam=lam, **_given(ns, cfg, _OPTION_FIELDS))


def _resolve_covariance(ns, cfg) -> CovarianceSpec:
    kind = _pick(ns.covariance, cfg, "covariance", "identity")
    phi = ns.phi if ns.phi is not None else cfg.get("phi")
    phi = None if phi is None else _as_float(phi, "phi")
    sizes = None
    if kind == "nerm":
        raw = cfg.get("group_sizes")
        if raw is None:
            raise DataParseError("nerm covariance requires group_sizes in the config file")
        sizes = tuple(_as_int(s, "group_sizes") for s in _split_list(raw, "group_sizes"))
    return CovarianceSpec(kind=kind, phi=phi, group_sizes=sizes)


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


def _header_lines(meta: dict) -> list[str]:
    return [f"# {key} = {value}" for key, value in meta.items()]


def _resolve_data_run(ns, cfg):
    """(data path, dataset, criteria, options) of a `select` or `criteria` run."""
    data_path = _require(_pick(ns.data, cfg, "data"), "--data")
    y, x, _ = _read_data(data_path)
    dataset = Dataset(y=y, x_full=x, cov=_resolve_covariance(ns, cfg))
    criteria = _resolve_criteria(ns, cfg, CRITERION_NAMES)
    return data_path, dataset, criteria, _resolve_options(ns, cfg)


def _cmd_select(ns, cfg) -> int:
    out_path = _writable(_require(_pick(ns.out, cfg, "out"), "--out"))
    data_path, dataset, criteria, options = _resolve_data_run(ns, cfg)
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
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        for line in _header_lines(meta):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        head = ["rank", "candidate", "p"]
        if with_lambda:
            head.append("lambda_hat")
        head += list(criteria)
        head.append("excluded")
        writer.writerow(head)
        positions = itertools.chain(enumerate(ranked.tolist(), start=1),
                                    (("", i) for i in excluded.tolist()))
        for rank, i in positions:
            model, excluded_by = table.candidates[i], table.excluded(i)
            rec = [rank, model.label(), model.p]
            if with_lambda:
                lam = table.lambda_hat[i]
                rec.append("" if math.isnan(lam) else _fmt(lam))
            rec += ["" if name in excluded_by else _fmt(value)
                    for name, value in zip(criteria, table.scores[i].tolist())]
            rec.append("; ".join(f"{name}: {why}" for name, why in sorted(excluded_by.items())))
            writer.writerow(rec)
    for name in criteria:
        print(f"selected[{name}] = {selected[name].label()}")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_criteria(ns, cfg) -> int:
    out_path = _pick(ns.out, cfg, "out")
    if out_path:
        _writable(out_path)
    data_path, dataset, criteria, options = _resolve_data_run(ns, cfg)
    wd, phi_est = resolve_whitened(dataset)
    cov = dataset.cov if phi_est is None else dataset.cov.with_phi(phi_est.value)
    model = CandidateModel(tuple(range(1, dataset.p_omega + 1)))
    fit, _ = fit_candidate(wd, model, options, needs_prior(criteria))

    values = []
    for name in criteria:
        try:
            values.append((name, _fmt(score(name, fit))))
        except PenaltyUndefinedError as exc:
            values.append((name, f"undefined ({exc})"))
    meta = {
        "command": "criteria",
        "version": __version__,
        "data": data_path,
        "n": dataset.n,
        "p": dataset.p_omega,
        "covariance": cov.describe(),
        "prior": options.prior_kind,
        "lambda": "none"
        if fit.prior is None
        else _fmt(fit.prior.lam) + (" (estimated)" if options.lam is None else ""),
    }
    lines = _header_lines(meta) + ["criterion,value"] + [f"{k},{v}" for k, v in values]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_simulate(ns, cfg) -> int:
    out_path = _writable(_require(_pick(ns.out, cfg, "out"), "--out"))
    if _resolve_options(ns, cfg).lam is not None:
        raise DataParseError("simulate always re-estimates lambda; drop --lambda")
    given = _given(ns, cfg, _OPTION_FIELDS + _SIMULATE_FIELDS)
    criteria = _resolve_criteria(ns, cfg)
    if criteria is not None:
        given["criteria"] = criteria
    kind = _pick(ns.covariance, cfg, "model") or cfg.get("covariance")
    if kind is not None:
        given["model_kind"] = "constant_variance" if kind == "identity" else kind
    spec = ExperimentSpec(**given)
    cells = len(spec.cells())
    print(
        f"simulate: {cells} cells x {spec.replications} replications = "
        f"{cells * spec.replications} replications on {resolve_workers()} workers",
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
    write_results_csv(out_path, results, meta)
    print(f"wrote {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Results CSV round trip
# ---------------------------------------------------------------------------

_RESULT_COLUMNS = (
    "model_kind",
    "n",
    "snr",
    "beta_pattern",
    "criterion",
    "replications",
    "true_model_count",
    "mean_prediction_error",
    "se_prediction_error",
)


def write_results_csv(path: str, results: list[ExperimentResult], meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in _header_lines(meta):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_RESULT_COLUMNS)
        for res in results:
            for name, summary in res.by_criterion.items():
                writer.writerow(
                    [
                        res.model_kind,
                        res.n,
                        _fmt(res.snr),
                        res.beta_pattern,
                        name,
                        res.replications,
                        summary.true_model_count,
                        _fmt(summary.mean_prediction_error),
                        _fmt(summary.standard_error),
                    ]
                )


def read_results_csv(path: str):
    """Re-parse a simulate CSV into (meta, [ExperimentResult]); floats round-trip exactly."""
    meta: dict[str, str] = {}
    body: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif line:
                body.append(line)
    if not body:
        raise DataParseError(f"{path}: no result rows")
    reader = csv.reader(body)
    header = next(reader)
    if tuple(header) != _RESULT_COLUMNS:
        raise DataParseError(f"{path}: unexpected header {header}")
    results: list[ExperimentResult] = []
    current_key = None
    current: ExperimentResult | None = None
    for row in reader:
        rec = dict(zip(_RESULT_COLUMNS, row))
        key = (rec["model_kind"], rec["n"], rec["snr"], rec["beta_pattern"], rec["replications"])
        if key != current_key:
            current = ExperimentResult(
                model_kind=rec["model_kind"],
                n=int(rec["n"]),
                snr=float(rec["snr"]),
                beta_pattern=rec["beta_pattern"],
                replications=int(rec["replications"]),
                by_criterion={},
            )
            results.append(current)
            current_key = key
        current.by_criterion[rec["criterion"]] = CriterionSummary(
            true_model_count=int(rec["true_model_count"]),
            mean_prediction_error=float(rec["mean_prediction_error"]),
            standard_error=float(rec["se_prediction_error"]),
        )
    return meta, results


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
        cfg = _load_config(ns.config, _config_keys(ns)) if ns.config else {}
        if ns.command == "select":
            return _cmd_select(ns, cfg)
        if ns.command == "criteria":
            return _cmd_criteria(ns, cfg)
        return _cmd_simulate(ns, cfg)
    except (DataParseError, CovarianceError, CandidateExplosionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BmlselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
