"""Run-configuration files: parsing, validation, and resolution.

A run configuration is a flat, typed, sectioned key-value file (INI syntax)
or the equivalent JSON object.  Sections and keys are closed sets: any
unknown section or key is an error naming the offender, and so is a
``[model]`` key that the chosen family and source do not read (the table
``models.FAMILIES``), so typos cannot silently change semantics.
``resolve_setup`` validates every tree it is given, parsed from a file or
built in code, the same way, then turns it into live objects: model,
dataset, fitted anchor, information matrices, and the tuning for the engine.

Grammar (INI form; every key optional unless marked required)::

    [model]
    family = gaussian_location | logistic | poisson      (required)
    source = synthetic | csv                             (default synthetic)
    n = <int>                 records to generate        (required if synthetic)
    d = <int>                 gaussian dimension (default 10, csv: columns),
                              logistic/poisson covariate count (required if
                              synthetic, csv: columns - 1)
    data_seed = <int>         generator seed             (synthetic only)
    weights = auto | <floats> curvature weights          (gaussian only)
    theta_star = <floats>     generator parameter        (synthetic only)
    zero_inflation = <float>  response zeroing probability   (poisson synthetic)
    covariate_scales = <floats>  covariate scale multipliers (poisson synthetic)
    path = <str>              csv path                   (required if csv)
    columns = <int>           csv column count           (required if csv)
    header = true | false     csv header flag            (csv only)

    [tuning]
    frak_h, frak_b, frak_t = <float>   (frak_t may be inf)
    c_h, c_b, c_beta = <float>         (c_beta may be inf)
    gamma  = identity | jhat_inv | ihat_inv | jstar_inv | istar_inv
    lambda = identity | jhat_inv | ihat_inv | jstar_inv | istar_inv
    policy = with_replacement | without_replacement
    variant = plain | momentum | control_variate
    boundary_lo, boundary_hi = <floats> coordinate box

    [execution]
    epochs = <float> | steps = <int>    (exactly one)
    seed = <int>
    replicates = <int>
    thin = <int>
    init = mle | zero | stationary | overdispersed:<float>
    average_start_epochs = <float>
    burnin_fraction = <float>

    [prediction]
    matrices = empirical | truth
    m_values = <floats>       iterate-average lengths in epochs (default 1, 8);
                              predict fails if none set here can be given,
                              and reports the default's as unavailable
    t_grid = <floats>

    [recommend]
    target = local_fiducial | sandwich_weighted | bagged | posterior
    w1, w2 = <float>           sandwich_weighted mixture weights
    family = sgd | sgld | sgld_fp   posterior route
    frak_b = <float>           batch exponent to design around
    c_b = <float>              batch constant to design around
    policy = with_replacement | without_replacement

    [output]
    dir = <str>
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .inference import InfoMatrices, empirical_info, fit_mle
from .linalg import sym_inv
from .models import (
    FAMILIES,
    SOURCES,
    CsvSchema,
    Dataset,
    ModelSpec,
    TruthSpec,
    generate,
    load_csv,
)
from .tuning import TuningConfig

_SCHEMA: dict[str, dict[str, str]] = {
    "model": {
        "family": "str",
        "source": "str",
        "n": "int",
        "d": "int",
        "data_seed": "int",
        "weights": "floats_or_auto",
        "theta_star": "floats",
        "zero_inflation": "float",
        "covariate_scales": "floats",
        "path": "str",
        "columns": "int",
        "header": "bool",
    },
    "tuning": {
        "frak_h": "float",
        "frak_b": "float",
        "frak_t": "float",
        "c_h": "float",
        "c_b": "float",
        "c_beta": "float",
        "gamma": "str",
        "lambda": "str",
        "policy": "str",
        "variant": "str",
        "boundary_lo": "floats",
        "boundary_hi": "floats",
    },
    "execution": {
        "epochs": "float",
        "steps": "int",
        "seed": "int",
        "replicates": "int",
        "thin": "int",
        "init": "str",
        "average_start_epochs": "float",
        "burnin_fraction": "float",
    },
    "prediction": {
        "matrices": "str",
        "m_values": "floats",
        "t_grid": "floats",
    },
    "recommend": {
        "target": "str",
        "w1": "float",
        "w2": "float",
        "family": "str",
        "frak_b": "float",
        "c_b": "float",
        "policy": "str",
    },
    "output": {
        "dir": "str",
    },
}

MATRIX_TOKENS = ("identity", "jhat_inv", "ihat_inv", "jstar_inv", "istar_inv")


def _coerce(section: str, key: str, kind: str, value) -> object:
    """Convert a raw (string or JSON) value to its declared type."""
    try:
        if kind == "str":
            return str(value)
        if kind == "int":
            if isinstance(value, bool):
                raise ValueError
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("true", "yes", "1"):
                return True
            if text in ("false", "no", "0"):
                return False
            raise ValueError
        if kind in ("floats", "floats_or_auto"):
            if kind == "floats_or_auto" and str(value).strip().lower() == "auto":
                return "auto"
            if isinstance(value, (list, tuple)):
                return [float(v) for v in value]
            parts = [p for p in str(value).replace(",", " ").split() if p]
            return [float(p) for p in parts]
    except (TypeError, ValueError):
        pass
    raise ConfigError(
        f"[{section}] {key} = {value!r} is not a valid {kind}"
    )


def _validate_tree(tree: dict) -> dict:
    out: dict[str, dict] = {}
    for section, entries in tree.items():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of"
                f" {sorted(_SCHEMA)}"
            )
        if not isinstance(entries, dict):
            raise ConfigError(f"section [{section}] must hold key = value entries")
        out[section] = {}
        for key, raw in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; expected"
                    f" one of {sorted(_SCHEMA[section])}"
                )
            out[section][key] = _coerce(section, key, _SCHEMA[section][key], raw)
    if "model" not in out or "family" not in out.get("model", {}):
        raise ConfigError("config must declare [model] family")
    return out


def parse_config(path: str) -> dict:
    """Parse and validate a configuration file (INI or JSON by content)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            tree = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(tree, dict):
            raise ConfigError(f"{path}: JSON config must be an object of sections")
        return _validate_tree(tree)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: invalid config syntax: {exc}") from None
    tree = {s: dict(parser.items(s)) for s in parser.sections()}
    return _validate_tree(tree)


def config_hash(tree: dict) -> str:
    """Stable digest of everything that affects results (output dir aside)."""
    hashed = {k: v for k, v in sorted(tree.items()) if k != "output"}
    blob = json.dumps(hashed, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Setup:
    """A fully resolved configuration, ready to run or predict."""

    tree: dict
    model: ModelSpec
    data: Dataset
    mle_theta: np.ndarray
    info: InfoMatrices
    prediction_info: InfoMatrices
    cfg: TuningConfig
    n_steps: int
    replicates: int
    thin: int
    #: ``mle``, ``zero``, ``stationary``, or ``("overdispersed", scale)``
    init_token: str | tuple[str, float]
    #: first step of the iterate-average window
    average_start: int
    burnin_fraction: float
    m_values: list[float]
    t_grid: list[float]
    hash: str = ""

    @property
    def n(self) -> int:
        return self.data.n


def _build_model_data(tree: dict) -> tuple[ModelSpec, Dataset, TruthSpec | None]:
    m = tree["model"]
    name, source = m["family"], m.get("source", "synthetic")
    if name not in FAMILIES:
        raise ConfigError(
            f"unknown model family {name!r}; expected one of {sorted(FAMILIES)}"
        )
    if source not in SOURCES:
        raise ConfigError(f"[model] source must be synthetic or csv, got {source!r}")
    family = FAMILIES[name]
    for key in m:
        if key not in family.reads(source):
            culprit = f"family {name}"
            if any(key in family.reads(other) for other in SOURCES):
                culprit = f"source {source}"  # read for this family, from the other source
            raise ConfigError(f"[model] {key} is not read for {culprit}")
    for key in SOURCES[source][0]:  # the keys the source requires
        if key not in m:
            raise ConfigError(f"[model] {key} is required for {source} data")
    params = {
        k: np.asarray(m[k], float) if isinstance(m[k], list) else m[k]
        for k in (*family.model_keys, *family.data_keys)
        if k in m and m[k] != "auto"
    }
    if source == "synthetic":
        dim = m.get("d", family.default_dim)
        if dim is None:
            raise ConfigError(f"[model] d (covariate count) required for {name}")
        params[family.dim_param] = dim
        return generate(name, m["n"], seed=m.get("data_seed", 0), **params)
    data = load_csv(m["path"], CsvSchema(columns=m["columns"], header=m.get("header", False)))
    model = family.model(m.get("d", m["columns"] - family.response_columns), **params)
    return model, data, None


def _resolve_matrix(
    token: str,
    info: InfoMatrices,
    truth: TruthSpec | None,
    what: str,
) -> np.ndarray | None:
    if token == "identity":
        return None
    if token in ("jhat_inv", "ihat_inv"):
        base = info.j_mat if token == "jhat_inv" else info.i_mat
    elif token in ("jstar_inv", "istar_inv"):
        if truth is None or truth.j_star is None:
            raise ConfigError(
                f"{what} = {token}: ground-truth matrices are not available"
                " for this data source"
            )
        base = truth.j_star if token == "jstar_inv" else truth.i_star
    else:
        raise ConfigError(
            f"{what} must be one of {MATRIX_TOKENS}, got {token!r}"
        )
    return sym_inv(base)


def resolve_setup(tree: dict) -> Setup:
    """Validate ``tree`` and build every live object a command needs from it."""
    tree = _validate_tree(tree)
    model, data, truth = _build_model_data(tree)
    mle = fit_mle(model, data)
    info = empirical_info(model, data, mle.theta_hat)

    p = tree.get("prediction", {})
    matrices = p.get("matrices", "empirical")
    if matrices == "empirical":
        prediction_info = info
    elif matrices == "truth":
        if truth is None or truth.j_star is None:
            raise ConfigError(
                "[prediction] matrices = truth, but ground truth is not"
                " available for this data source"
            )
        prediction_info = InfoMatrices(truth.j_star, truth.i_star)
    else:
        raise ConfigError(
            f"[prediction] matrices must be empirical or truth, got {matrices!r}"
        )

    t = tree.get("tuning", {})
    gamma = _resolve_matrix(t.get("gamma", "identity"), info, truth, "[tuning] gamma")
    lam = _resolve_matrix(t.get("lambda", "identity"), info, truth, "[tuning] lambda")
    boundary = None
    if ("boundary_lo" in t) != ("boundary_hi" in t):
        raise ConfigError("[tuning] boundary_lo and boundary_hi must appear together")
    if "boundary_lo" in t:
        boundary = (
            np.asarray(t["boundary_lo"], float),
            np.asarray(t["boundary_hi"], float),
        )
    e = tree.get("execution", {})
    # pass only the keys the tree sets: TuningConfig owns every default
    keys = ("frak_h", "frak_b", "frak_t", "c_h", "c_b", "c_beta", "policy", "variant")
    scalars = {k: t[k] for k in keys if k in t}
    if "seed" in e:
        scalars["seed"] = e["seed"]
    cfg = TuningConfig(
        **scalars,
        gamma=gamma,
        lam=lam,
        boundary=boundary,
    )

    if ("epochs" in e) == ("steps" in e):
        raise ConfigError("[execution] must set exactly one of epochs or steps")
    n_steps = e["steps"] if "steps" in e else cfg.epochs_to_steps(data.n, e["epochs"])
    if n_steps < 1:
        raise ConfigError("[execution] run length must be at least one step")
    start_epochs = e.get("average_start_epochs", 0.0)
    if not (math.isfinite(start_epochs) and start_epochs >= 0.0):
        raise ConfigError("[execution] average_start_epochs must be finite and >= 0")
    average_start = cfg.epochs_to_steps(data.n, start_epochs) if start_epochs > 0.0 else 0

    init_token = e.get("init", "mle")
    kind, colon, arg = init_token.partition(":")
    if kind == "overdispersed" and colon:
        scale = _coerce("execution", "init", "float", arg)
        if not (math.isfinite(scale) and scale > 0.0):
            raise ConfigError("[execution] init overdispersion scale must be finite and > 0")
        init_token = (kind, scale)
    elif init_token not in ("mle", "zero", "stationary"):
        raise ConfigError(
            "[execution] init must be mle, zero, stationary, or"
            f" overdispersed:<scale>, got {init_token!r}"
        )
    burnin = e.get("burnin_fraction", 0.1)
    if not 0.0 <= burnin < 1.0:
        raise ConfigError("[execution] burnin_fraction must be in [0, 1)")

    replicates, thin = e.get("replicates", 1), e.get("thin", 1)
    for key, value in (("replicates", replicates), ("thin", thin)):
        if value < 1:
            raise ConfigError(f"[execution] {key} must be >= 1")

    return Setup(
        tree=tree,
        model=model,
        data=data,
        mle_theta=mle.theta_hat,
        info=info,
        prediction_info=prediction_info,
        cfg=cfg,
        n_steps=n_steps,
        replicates=replicates,
        thin=thin,
        init_token=init_token,
        average_start=average_start,
        burnin_fraction=burnin,
        m_values=[float(v) for v in p.get("m_values", [1.0, 8.0])],
        t_grid=[float(v) for v in p.get("t_grid", [])],
        hash=config_hash(tree),
    )


def recommend_kwargs(tree: dict) -> dict:
    """Translate the [recommend] section into recommend_tuning arguments."""
    r = dict(tree.get("recommend", {}))
    if "target" not in r:
        raise ConfigError("[recommend] target is required for the tune command")
    kwargs: dict = {"target": r.pop("target")}
    kwargs.update(r)
    return kwargs
