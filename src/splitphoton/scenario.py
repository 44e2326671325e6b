"""Line-oriented scenario files: sections of key = value pairs.

Format::

    # comment
    [mode]
    a = 1.0
    n = 1
    c = 1.0

    [mirror]          # optional; omit for free space
    D = 5.0

    [detector]        # one section per instrument
    id = D1
    position = 3.0
    insertion = 0.5
    removal = 4.0     # optional
    efficiency = 0.9

    [electron_gun]    # instead of detectors; id, position and insertion only
    id = EG1
    position = -3.0
    insertion = 3.0   # shot time

    [run]
    model = conventional-qm
    trials = 20000
    seed = 7
    source_blocking = false
    tie_rule = closest

Only ``position`` is required: an omitted key takes its dataclass field's
default, an omitted id is ``D<k>``/``EG<k>`` for the k-th instrument section.
Ids are non-empty, without ``#``, NUL, line breaks or surrounding whitespace.
Unknown sections or keys, non-finite numbers and values that fail validation
are rejected with the offending line number; a rule across instruments
(distinct ids and positions, one kind, one electron gun per side) with the
header line of the first section that breaks it.
"""

from __future__ import annotations

import math
from enum import Enum

from .experiments import Instrument, InstrumentKind, OutcomeModel, Scenario
from .wavestate import ModeSpec

__all__ = ["ScenarioError", "parse_scenario", "serialize_scenario", "load_scenario"]


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ScenarioError(f"expected a boolean, got {raw!r}")
    return raw.lower() in ("true", "yes", "1")


def _model(raw: str) -> OutcomeModel:
    try:
        return OutcomeModel(raw)
    except ValueError:
        raise ScenarioError(f"unknown model {raw!r}") from None


_INSTRUMENT = {"id": ("id", str), "position": ("position", float),
               "insertion": ("insertion_time", float)}
# section -> file key -> (constructor field, caster), in serialization order
_SCHEMA = {
    "mode": {"a": ("a", float), "n": ("n", int), "c": ("c", float)},
    "mirror": {"D": ("mirror_distance", float)},
    "detector": {**_INSTRUMENT, "removal": ("removal_time", float),
                 "efficiency": ("efficiency", float)},
    "electron_gun": _INSTRUMENT,
    "run": {"model": ("model", _model), "trials": ("trials", int), "seed": ("seed", int),
            "source_blocking": ("source_blocking", _bool), "tie_rule": ("tie_rule", str)},
}
# instrument section -> (kind, prefix of the ids given to sections without one)
_KINDS = {
    "detector": (InstrumentKind.PHOTON_DETECTOR, "D"),
    "electron_gun": (InstrumentKind.ELECTRON_GUN, "EG"),
}


def _parse_value(caster, raw: str, key: str, line: int):
    try:
        value = caster(raw)
    except ScenarioError as exc:
        raise ScenarioError(str(exc), line) from None
    except (TypeError, ValueError):
        raise ScenarioError(f"bad value {raw!r} for key {key!r}", line) from None
    if caster is float and not math.isfinite(value):
        raise ScenarioError(f"value {raw!r} for key {key!r} must be finite", line)
    return value


class _Section(dict):
    """One section's parsed field -> value pairs, name, and header and key lines."""

    def __init__(self, name: str, line: int | None = None):
        super().__init__()
        self.name, self.line, self.lines = name, line, {}


def _build(section: _Section, make):
    """``make(section)``, reporting a ValueError it raises at the line of the first
    key, in file order, whose value makes ``make`` fail."""
    try:
        return make(section)
    except ValueError as exc:
        partial: dict = {}
        for key, value in section.items():
            partial[key] = value
            try:
                make(partial)
            except ValueError as first:
                raise ScenarioError(str(first), section.lines[key]) from None
        raise ScenarioError(str(exc), section.line) from None


def _instrument(kind: InstrumentKind, default_id: str, fields: dict) -> Instrument:
    # the position placeholder serves only _build's partial rebuilds
    ins = Instrument(kind=kind, **{"id": default_id, "position": 0.0, **fields})
    ins.validate()
    return ins


def _scenario(**fields) -> Scenario:
    scenario = Scenario(**fields)
    scenario.validate()
    return scenario


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    sections = {name: _Section(name) for name in ("mode", "mirror", "run")}
    instruments: list[_Section] = []
    current: _Section | None = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if name in _KINDS:
                current = _Section(name, lineno)
                instruments.append(current)
            else:
                current = sections[name]
                if current.line is not None:
                    raise ScenarioError(f"duplicate section [{name}]", lineno)
                current.line = lineno
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioError("key outside any section", lineno)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current.name]:
            raise ScenarioError(f"unknown key {key!r} in section [{current.name}]", lineno)
        field, caster = _SCHEMA[current.name][key]
        if field in current:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        current.lines[field] = lineno
        current[field] = _parse_value(caster, raw_value, key, lineno)

    mode = _build(sections["mode"], lambda fields: ModeSpec(**fields))
    mirror = sections["mirror"]
    if mirror.line is not None and not mirror:
        raise ScenarioError("[mirror] section requires key D", mirror.line)
    _build(mirror, lambda fields: _scenario(mode=mode, **fields))

    # instrument index -> Instrument, at its section's header line
    listed = _Section("instruments")
    for index, fields in enumerate(instruments, start=1):
        if "position" not in fields:
            raise ScenarioError(f"[{fields.name}] section #{index} is missing key 'position'",
                                fields.line)
        kind, prefix = _KINDS[fields.name]
        listed[index] = _build(fields, lambda f: _instrument(kind, f"{prefix}{index}", f))
        listed.lines[index] = fields.line

    run = sections["run"]
    _build(run, lambda fields: _scenario(mode=mode, **mirror, **fields))
    return _build(listed, lambda found: _scenario(mode=mode, instruments=list(found.values()),
                                                   **mirror, **run))


def _text(value) -> str:
    if isinstance(value, Enum):
        return value.value
    # str of a float (numpy's too) is its shortest round-trip repr
    return str(value).lower() if isinstance(value, bool) else str(value)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form, keys in schema order and None values left out (so free
    space has no [mirror]); parse(serialize(s)) reproduces a valid s exactly."""
    section_of = {kind: name for name, (kind, _) in _KINDS.items()}
    targets = [("mode", scenario.mode), ("mirror", scenario)]
    targets += [(section_of[ins.kind], ins) for ins in scenario.instruments]
    targets.append(("run", scenario))
    blocks = []
    for name, target in targets:
        values = ((key, getattr(target, field)) for key, (field, _) in _SCHEMA[name].items())
        lines = [f"{key} = {_text(value)}" for key, value in values if value is not None]
        if lines:
            blocks.append("\n".join([f"[{name}]", *lines]))
    return "\n\n".join(blocks) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
