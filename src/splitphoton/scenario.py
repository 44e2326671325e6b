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
    insertion = 0.0
    removal = 4.0     # optional
    efficiency = 1.0

    [electron_gun]
    id = EG1
    position = -3.0
    insertion = 3.0   # shot time

    [run]
    model = conventional-qm
    trials = 100000
    seed = 0
    source_blocking = false
    tie_rule = earliest-inserted

Unknown sections or keys, non-finite numbers and values that fail
validation are rejected with the offending line number.
"""

from __future__ import annotations

import math

from .experiments import Instrument, InstrumentKind, OutcomeModel, Scenario
from .wavestate import ModeSpec

__all__ = ["ScenarioError", "parse_scenario", "serialize_scenario", "load_scenario"]


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _parse_bool(raw: str, line: int) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioError(f"expected a boolean, got {raw!r}", line)


def _parse_value(caster, raw: str, key: str, line: int):
    try:
        value = caster(raw)
    except (TypeError, ValueError):
        raise ScenarioError(f"bad value {raw!r} for key {key!r}", line) from None
    if caster is float and not math.isfinite(value):
        raise ScenarioError(f"value {raw!r} for key {key!r} must be finite", line)
    return value


class _Section(dict):
    """A section's parsed key -> value pairs, with the line of its header and keys."""

    def __init__(self, line: int | None = None):
        super().__init__()
        self.line = line
        self.lines: dict[str, int] = {}


def _build(section: _Section, make):
    """``make(section)``, reporting a ValueError it raises at the line of the first
    key, in file order, whose value makes ``make`` fail."""
    try:
        return make(section)
    except ValueError as exc:
        partial = _Section(section.line)
        for key, value in section.items():
            partial[key] = value
            try:
                make(partial)
            except ValueError as first:
                raise ScenarioError(str(first), section.lines[key]) from None
        raise ScenarioError(str(exc), section.line) from None


def _instrument(kind: InstrumentKind, default_id: str, data: dict) -> Instrument:
    ins = Instrument(
        id=data.get("id", default_id),
        kind=kind,
        position=data.get("position", 0.0),
        insertion_time=data.get("insertion", 0.0),
        removal_time=data.get("removal"),
        efficiency=data.get("efficiency", 1.0),
    )
    ins.validate()
    return ins


_MODE_KEYS = {"a": float, "n": int, "c": float}
_MIRROR_KEYS = {"D": float}
_INSTRUMENT_KEYS = {
    "id": str,
    "position": float,
    "insertion": float,
    "removal": float,
    "efficiency": float,
}
_RUN_KEYS = {
    "model": str,
    "trials": int,
    "seed": int,
    "source_blocking": bool,
    "tie_rule": str,
}
_SECTION_KEYS = {
    "mode": _MODE_KEYS,
    "mirror": _MIRROR_KEYS,
    "detector": _INSTRUMENT_KEYS,
    "electron_gun": _INSTRUMENT_KEYS,
    "run": _RUN_KEYS,
}


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    sections = {"mode": _Section(), "mirror": _Section(), "run": _Section()}
    instruments: list[tuple[str, _Section]] = []
    current: _Section | None = None
    current_name = ""
    seen_singleton: set[str] = set()

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if name in ("detector", "electron_gun"):
                current = _Section(lineno)
                instruments.append((name, current))
            else:
                if name in seen_singleton:
                    raise ScenarioError(f"duplicate section [{name}]", lineno)
                seen_singleton.add(name)
                current = sections[name]
                current.line = lineno
            current_name = name
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ScenarioError("key outside any section", lineno)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        keys = _SECTION_KEYS[current_name]
        if key not in keys:
            raise ScenarioError(f"unknown key {key!r} in section [{current_name}]", lineno)
        if key in current:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        caster = keys[key]
        current.lines[key] = lineno
        if caster is bool:
            current[key] = _parse_bool(raw_value, lineno)
        else:
            current[key] = _parse_value(caster, raw_value, key, lineno)

    mode = _build(sections["mode"], lambda data: ModeSpec(**data))
    mirror = sections["mirror"].get("D") if "mirror" in seen_singleton else None
    if "mirror" in seen_singleton and mirror is None:
        raise ScenarioError("[mirror] section requires key D", sections["mirror"].line)
    _build(sections["mirror"],
           lambda data: Scenario(mode=mode, mirror_distance=data.get("D")).validate())

    built: list[Instrument] = []
    for index, (name, data) in enumerate(instruments, start=1):
        kind = (
            InstrumentKind.PHOTON_DETECTOR if name == "detector" else InstrumentKind.ELECTRON_GUN
        )
        if "position" not in data:
            raise ScenarioError(f"[{name}] section #{index} is missing key 'position'",
                                data.line)
        default_id = ("D" if name == "detector" else "EG") + str(index)
        built.append(_build(data, lambda d: _instrument(kind, default_id, d)))

    run_data = sections["run"]
    model_raw = run_data.get("model", OutcomeModel.CONVENTIONAL_QM.value)
    try:
        model = OutcomeModel(model_raw)
    except ValueError:
        raise ScenarioError(f"unknown model {model_raw!r}",
                            run_data.lines.get("model")) from None

    scenario = Scenario(
        mode=mode,
        mirror_distance=mirror,
        source_blocking=run_data.get("source_blocking", False),
        instruments=built,
        model=model,
        trials=run_data.get("trials", 100_000),
        seed=run_data.get("seed", 0),
        tie_rule=run_data.get("tie_rule", "earliest-inserted"),
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) reproduces s exactly."""
    lines = [
        "[mode]",
        f"a = {scenario.mode.a!r}",
        f"n = {scenario.mode.n}",
        f"c = {scenario.mode.c!r}",
    ]
    if scenario.mirror_distance is not None:
        lines += ["", "[mirror]", f"D = {scenario.mirror_distance!r}"]
    for ins in scenario.instruments:
        section = "detector" if ins.kind is InstrumentKind.PHOTON_DETECTOR else "electron_gun"
        lines += [
            "",
            f"[{section}]",
            f"id = {ins.id}",
            f"position = {ins.position!r}",
            f"insertion = {ins.insertion_time!r}",
        ]
        if ins.removal_time is not None:
            lines.append(f"removal = {ins.removal_time!r}")
        lines.append(f"efficiency = {ins.efficiency!r}")
    lines += [
        "",
        "[run]",
        f"model = {scenario.model.value}",
        f"trials = {scenario.trials}",
        f"seed = {scenario.seed}",
        f"source_blocking = {str(scenario.source_blocking).lower()}",
        f"tie_rule = {scenario.tie_rule}",
    ]
    return "\n".join(lines) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
