"""Declarative JSON configs describing a process, a function, and
estimation parameters.

Schema::

    {
      "process":    {"kind": "ar1", "a": 0.5, "sigma": 1.0},
      "function":   {"kind": "magnitude"}            # or {"compose": [...]}
      "estimation": {"samples": 1000000, "bins": null, "seed": 42,
                     "quad_tol": 1e-9, "grid": 201}
    }

Process kinds: ar1{a, sigma}, cyclic_walk{M, a}, tightness{},
iid_gaussian{sigma}, iid_uniform{lo, hi}.  Function kinds: identity,
magnitude, scale{k}, square, shift_mod{period, offset}, quantizer{edges};
a compose list applies entries first-to-last.  Function domains default
to the process support.
"""

import json
from dataclasses import dataclass

from . import pbf
from .errors import BadParameterError, ParseError
from .estimate import QuadratureConfig
from .process import (
    make_ar1,
    make_cyclic_walk,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
)

_PROCESS_KINDS = {
    "ar1": (make_ar1, ("a", "sigma")),
    "cyclic_walk": (make_cyclic_walk, ("M", "a")),
    "tightness": (make_tightness_example, ()),
    "iid_gaussian": (make_iid_gaussian, ("sigma",)),
    "iid_uniform": (make_iid_uniform, ("lo", "hi")),
}


@dataclass(frozen=True)
class EstimationParams:
    samples: int = 10**6
    bins: int = None
    seed: int = 42
    quad_tol: float = 1e-9
    grid: int = 201
    block_order: int = 4

    @property
    def quad_cfg(self):
        return QuadratureConfig(abs_tol=self.quad_tol)


@dataclass(frozen=True)
class AnalysisSpec:
    process: object
    function: object
    estimation: EstimationParams
    raw: dict


def _require(mapping, key, where):
    if key not in mapping:
        raise ParseError(f"missing field {key!r} in {where}")
    return mapping[key]


def _is_int(val):
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _build_process(spec):
    if not isinstance(spec, dict):
        raise ParseError("field 'process' must be an object")
    kind = _require(spec, "kind", "process")
    if kind not in _PROCESS_KINDS:
        raise ParseError(
            f"unknown process kind {kind!r}; choose from {sorted(_PROCESS_KINDS)}"
        )
    builder, names = _PROCESS_KINDS[kind]
    kwargs = {}
    for name in names:
        val = _require(spec, name, f"process {kind!r}")
        if not _is_number(val):
            raise ParseError(f"process field {name!r} must be numeric")
        kwargs[name] = val
    extra = set(spec) - {"kind", *names}
    if extra:
        raise ParseError(f"unexpected process fields {sorted(extra)}")
    try:
        return builder(**kwargs)
    except BadParameterError as exc:
        raise ParseError(f"bad parameters for process {kind!r}: {exc}") from exc


def _build_single_function(spec, lo, hi):
    kind = _require(spec, "kind", "function")
    lo = spec.get("lo", lo)
    hi = spec.get("hi", hi)
    try:
        if kind == "identity":
            return pbf.identity(lo, hi)
        if kind == "magnitude":
            return pbf.magnitude(lo, hi)
        if kind == "scale":
            return pbf.scale(_require(spec, "k", "scale"), lo, hi)
        if kind == "square":
            return pbf.square(lo, hi)
        if kind == "shift_mod":
            return pbf.shift_mod(
                _require(spec, "period", "shift_mod"),
                spec.get("offset", 0.0),
                lo,
                hi,
            )
        if kind == "quantizer":
            return pbf.quantizer(_require(spec, "edges", "quantizer"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad parameters for function {kind!r}: {exc}") from exc
    raise ParseError(f"unknown function kind {kind!r}")


def _build_function(spec, process):
    if not isinstance(spec, dict):
        raise ParseError("field 'function' must be an object")
    lo, hi = process.support
    if "compose" in spec:
        parts = spec["compose"]
        if not isinstance(parts, list) or not parts:
            raise ParseError("'compose' must be a non-empty list")
        f = _build_single_function(parts[0], lo, hi)
        for part in parts[1:]:
            r_lo, r_hi = f.range_hull()
            g = _build_single_function(part, r_lo, r_hi)
            f = pbf.compose(g, f)
        return f
    return _build_single_function(spec, lo, hi)


# admissible (low, high) of the integer estimation values; None is open
_INT_RANGES = {
    "samples": (1000, None),
    "bins": (1, None),
    "seed": (0, None),
    "grid": (101, None),
    "block_order": (0, 6),
}


def check_estimation(key, value, label=None):
    """Refuse an estimation value of the wrong type or out of range.

    Config files and command-line flags share these limits; ``label``
    names the value in the ParseError.
    """
    label = label or f"estimation field {key!r}"
    if key == "quad_tol":
        if not (_is_number(value) and value > 0):
            raise ParseError(f"{label} must be a positive number")
        return
    if key == "bins" and value is None:
        return
    if not _is_int(value):
        raise ParseError(f"{label} must be an integer")
    lo, hi = _INT_RANGES[key]
    if value < lo or (hi is not None and value > hi):
        limit = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ParseError(f"{label} must be {limit}, got {value}")


def _build_estimation(spec):
    spec = spec or {}
    if not isinstance(spec, dict):
        raise ParseError("field 'estimation' must be an object")
    extra = set(spec) - {"quad_tol", *_INT_RANGES}
    if extra:
        raise ParseError(f"unexpected estimation fields {sorted(extra)}")
    for key, value in spec.items():
        check_estimation(key, value)
    return EstimationParams(**spec)


def parse_config(text, source="<config>"):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: top level must be an object")
    process = _build_process(_require(raw, "process", source))
    function = _build_function(_require(raw, "function", source), process)
    estimation = _build_estimation(raw.get("estimation"))
    return AnalysisSpec(process=process, function=function, estimation=estimation, raw=raw)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))
