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
to the process support; every function kind but quantizer also takes lo
and hi.  Unknown fields and non-numeric, non-finite (NaN, Infinity) or
bool values are refused with ParseError, and a function whose domain
does not cover the process window with IncompatibleSpecError.
"""

import json
import math
from dataclasses import dataclass

from . import pbf
from .errors import IncompatibleSpecError, ParseError
from .estimate import QuadratureConfig
from .process import (
    make_ar1,
    make_cyclic_walk,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
)

# kinds: builder, required and optional numeric fields; a function's lo
# and hi bound its domain, which defaults to the process support
_PROCESS_KINDS = {
    "ar1": (make_ar1, ("a", "sigma"), ()),
    "cyclic_walk": (make_cyclic_walk, ("M", "a"), ()),
    "tightness": (make_tightness_example, (), ()),
    "iid_gaussian": (make_iid_gaussian, ("sigma",), ()),
    "iid_uniform": (make_iid_uniform, ("lo", "hi"), ()),
}

_FUNCTION_KINDS = {
    "identity": (pbf.identity, (), ("lo", "hi")),
    "magnitude": (pbf.magnitude, (), ("lo", "hi")),
    "scale": (pbf.scale, ("k",), ("lo", "hi")),
    "square": (pbf.square, (), ("lo", "hi")),
    "shift_mod": (pbf.shift_mod, ("period",), ("offset", "lo", "hi")),
    "quantizer": (pbf.quantizer, ("edges",), ()),
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
    """An int or float that is finite as a float; json reads NaN,
    Infinity and 1e999 as non-finite floats."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int past the float range
        return False


def _kind(spec, kinds, where):
    """The ``kind`` field of ``spec``, one of the keys of ``kinds``."""
    if not isinstance(spec, dict):
        raise ParseError(f"a {where} spec must be an object")
    kind = _require(spec, "kind", where)
    if not (isinstance(kind, str) and kind in kinds):
        raise ParseError(f"unknown {where} kind {kind!r}; choose from {sorted(kinds)}")
    return kind


def _build(spec, kinds, where, defaults):
    """Build ``spec`` with the builder of its kind in ``kinds``; the
    spec's fields override the ``defaults`` that the kind takes."""
    kind = _kind(spec, kinds, where)
    builder, required, optional = kinds[kind]
    for name in required:
        _require(spec, name, f"{where} {kind!r}")
    extra = set(spec) - {"kind", *required, *optional}
    if extra:
        raise ParseError(f"unexpected fields {sorted(extra)} for {where} {kind!r}")
    kwargs = {name: val for name, val in defaults.items() if name in optional}
    for name, val in spec.items():
        if name == "kind":
            continue
        if name == "edges":
            if not (isinstance(val, list) and all(map(_is_number, val))):
                raise ParseError(
                    f"{where} field 'edges' must be a list of finite numbers"
                )
        elif not _is_number(val):
            raise ParseError(
                f"{where} field {name!r} must be numeric, a finite number"
            )
        kwargs[name] = val
    try:
        return builder(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad parameters for {where} {kind!r}: {exc}") from exc


def _build_function(spec, process):
    if not isinstance(spec, dict):
        raise ParseError("field 'function' must be an object")
    lo, hi = process.support
    if "compose" not in spec:
        return _build(spec, _FUNCTION_KINDS, "function", {"lo": lo, "hi": hi})
    if set(spec) != {"compose"}:
        raise ParseError("a 'compose' function takes no other fields")
    parts = spec["compose"]
    if not isinstance(parts, list) or not parts:
        raise ParseError("'compose' must be a non-empty list")
    f = _build(parts[0], _FUNCTION_KINDS, "function", {"lo": lo, "hi": hi})
    for part in parts[1:]:
        r_lo, r_hi = f.range_hull()
        g = _build(part, _FUNCTION_KINDS, "function", {"lo": r_lo, "hi": r_hi})
        try:
            f = pbf.compose(g, f)
        except ValueError as exc:
            raise ParseError(f"bad 'compose' list: {exc}") from exc
    return f


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
            raise ParseError(f"{label} must be a finite positive number")
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
    process = _build(
        _require(raw, "process", source), _PROCESS_KINDS, "process", {}
    )
    f = _build_function(_require(raw, "function", source), process)
    qlo, qhi = process.quad_support
    if f.domain_lo > qlo + 1e-9 or f.domain_hi < qhi - 1e-9:
        raise IncompatibleSpecError(
            f"function domain [{f.domain_lo}, {f.domain_hi}) does not cover "
            f"the process support window [{qlo}, {qhi})"
        )
    estimation = _build_estimation(raw.get("estimation"))
    return AnalysisSpec(process=process, function=f, estimation=estimation, raw=raw)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))
