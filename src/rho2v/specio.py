"""Density spec files (JSON) and report serialization.

A density spec looks like

    {
      "electron_count": 1,
      "frame": [{"position": [0, 0, 0], "charge": 1.0}],
      "terms": [
        {"kind": "slater_s", "center": [0, 0, 0],
         "coefficient": 0.3183098861837907, "exponent": 1.0, "power": 0}
      ],
      "normalize": false,
      "potential_offset": 0.0
    }

"frame" (ground truth), "normalize", "power", and "potential_offset" are
optional.  Parse failures raise SpecError naming the offending field, e.g.
"terms[2].exponent: must be a positive number".

Reports are JSON documents with a fixed envelope (tool, version, command,
input hashes, the tolerance set used, result); serialization sorts keys so
a rerun with identical inputs and flags is byte-identical.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .density import DensityModel, NuclearFrame, PrimitiveKind, RadialPrimitive, normalize
from .errors import SpecError

__all__ = ["load_spec", "parse_spec", "spec_offset", "make_report", "render_report"]

_KINDS = {"slater_s": PrimitiveKind.SLATER_S, "gaussian": PrimitiveKind.GAUSSIAN}


def _fail(field: str, message: str):
    raise SpecError(f"{field}: {message}")


def _number(value, field: str, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, "must be a number")
    x = float(value)
    if math.isnan(x) or math.isinf(x):
        _fail(field, "must be finite")
    if positive and x <= 0.0:
        _fail(field, "must be a positive number")
    if nonnegative and x < 0.0:
        _fail(field, "must be a nonnegative number")
    return x


def _triple(value, field: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        _fail(field, "must be a 3-component list [x, y, z]")
    return np.array([_number(v, f"{field}[{i}]") for i, v in enumerate(value)])


def parse_spec(data, source: str = "<spec>") -> DensityModel:
    """Validate a parsed JSON document and build the density model."""
    if not isinstance(data, dict):
        _fail(source, "top level must be a JSON object")

    n = data.get("electron_count")
    if isinstance(n, bool) or not isinstance(n, int):
        _fail("electron_count", "must be an integer")
    if n < 1:
        _fail("electron_count", "must be >= 1")

    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list):
        _fail("terms", "must be a list of primitive terms")
    terms = []
    for i, term in enumerate(raw_terms):
        where = f"terms[{i}]"
        if not isinstance(term, dict):
            _fail(where, "must be an object")
        kind_name = term.get("kind")
        if kind_name not in _KINDS:
            _fail(f"{where}.kind", f"must be one of {sorted(_KINDS)}")
        if "center" not in term:
            _fail(f"{where}.center", "missing")
        center = _triple(term["center"], f"{where}.center")
        if "coefficient" not in term:
            _fail(f"{where}.coefficient", "missing")
        coeff = _number(term["coefficient"], f"{where}.coefficient", nonnegative=True)
        if "exponent" not in term:
            _fail(f"{where}.exponent", "missing")
        expo = _number(term["exponent"], f"{where}.exponent", positive=True)
        power = term.get("power", 0)
        if isinstance(power, bool) or not isinstance(power, int) or power < 0:
            _fail(f"{where}.power", "must be a nonnegative integer")
        terms.append((center, RadialPrimitive(_KINDS[kind_name], coeff, expo, power)))

    frame = None
    if data.get("frame") is not None:
        raw_frame = data["frame"]
        if not isinstance(raw_frame, list) or not raw_frame:
            _fail("frame", "must be a nonempty list of centers")
        positions, charges = [], []
        for i, entry in enumerate(raw_frame):
            where = f"frame[{i}]"
            if not isinstance(entry, dict):
                _fail(where, "must be an object")
            if "position" not in entry:
                _fail(f"{where}.position", "missing")
            positions.append(_triple(entry["position"], f"{where}.position"))
            if "charge" not in entry:
                _fail(f"{where}.charge", "missing")
            charges.append(_number(entry["charge"], f"{where}.charge", positive=True))
        try:
            frame = NuclearFrame(np.array(positions), np.array(charges))
        except ValueError as err:
            _fail("frame", str(err))

    do_normalize = data.get("normalize", False)
    if not isinstance(do_normalize, bool):
        _fail("normalize", "must be a boolean")

    if "potential_offset" in data:
        _number(data["potential_offset"], "potential_offset")

    try:
        model = DensityModel(terms=tuple(terms), electron_count=n, frame=frame)
    except ValueError as err:
        _fail(source, str(err))
    if do_normalize:
        try:
            model = normalize(model)
        except ValueError as err:
            _fail("normalize", str(err))
    return model


def spec_offset(data) -> float:
    """Tagged constant potential shift declared in a spec (default 0)."""
    if isinstance(data, dict) and "potential_offset" in data:
        return _number(data["potential_offset"], "potential_offset")
    return 0.0


def load_spec(path):
    """Read and validate a spec file; returns (model, raw_document)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise SpecError(f"{path}: cannot read spec file ({err})") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}:{err.lineno}: invalid JSON ({err.msg})") from err
    return parse_spec(data, source=str(path)), data


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def make_report(command: str, input_paths, tolerances: dict, result: dict) -> dict:
    return {
        "tool": "rho2v",
        "version": __version__,
        "command": command,
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in input_paths],
        "tolerances": tolerances,
        "result": result,
    }


def _numpy_value(obj):
    """json's default hook: numpy arrays and scalars as Python lists and numbers,
    a dataclass instance as the dict of its fields, an Enum member as its value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# stands in for result["table"] while json dumps the rest of the report
_TABLE = "\0table"


def _json_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    return repr(x) if math.isfinite(x) else ("Infinity" if x > 0 else "-Infinity")


def render_report(report: dict, indent: int = 2) -> str:
    """json.dumps(report, indent=indent, sort_keys=True) and a newline, byte for byte.

    The report may hold numpy arrays and scalars and library records
    (dataclasses, Enum members); _numpy_value writes each as plain JSON.

    A result "table" that is a mapping of columns (lst) is written as the
    list of its rows: each key names a 1-d float array, all of one length
    n >= 1, and row i is the object {key: column[i]}.  json's pure-Python
    encoder, which an indent selects, is slow on long tables, so the cells
    are filled into one row template, as the cube text is, and the table is
    put in place of a marker in the dump of the rest of the report.  Any
    other result, a list table included, goes through json.dumps as it is.
    """
    result = report.get("result")
    columns = result.get("table") if isinstance(result, dict) else None
    if not isinstance(columns, dict):
        return json.dumps(report, indent=indent, sort_keys=True, default=_numpy_value) + "\n"
    keys = sorted(columns)
    cells = np.column_stack([columns[k] for k in keys])
    values = cells.ravel().tolist()
    if not np.isfinite(cells).all():
        values = [_json_float(v) for v in values]
    step = " " * indent  # as json spells an int indent; items of the table sit 3 levels deep
    item, field = "\n" + step * 3, "\n" + step * 4
    row = item + "{" + ",".join(f"{field}{json.dumps(k).replace('%', '%%')}: %s" for k in keys) + item + "}"
    table = "[" + ",".join([row] * len(cells)) % tuple(values) + "\n" + step * 2 + "]"
    text = json.dumps(
        {**report, "result": {**result, "table": _TABLE}}, indent=indent, sort_keys=True, default=_numpy_value
    )
    return text.replace(json.dumps(_TABLE), table, 1) + "\n"
