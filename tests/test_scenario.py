import math
import string

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitphoton.experiments import (
    Instrument,
    InstrumentKind,
    OutcomeModel,
    Scenario,
)
from splitphoton.scenario import (
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)
from splitphoton.wavestate import ModeSpec

TWO_DETECTORS = """\
# two detectors straddling the source, mirror on the right
[mode]
a = 1.0
n = 1
c = 1.0

[mirror]
D = 5.0

[detector]
id = DR
position = 3.0

[detector]
id = DL
position = -3.0

[run]
model = conventional-qm
trials = 2000
seed = 7
"""


class TestParsing:
    def test_basic_fields(self):
        sc = parse_scenario(TWO_DETECTORS)
        assert sc.mode == ModeSpec(a=1.0, n=1, c=1.0)
        assert sc.mirror_distance == 5.0
        assert [ins.id for ins in sc.instruments] == ["DR", "DL"]
        assert sc.model is OutcomeModel.CONVENTIONAL_QM
        assert sc.trials == 2000 and sc.seed == 7

    def test_defaults(self):
        sc = parse_scenario("[detector]\nposition = 3.0\n")
        assert sc.mode == ModeSpec()
        assert sc.mirror_distance is None  # free space unless [mirror] given
        assert sc.trials == 100000 and sc.seed == 0
        assert sc.source_blocking is False
        assert sc.instruments[0].id == "D1"  # auto-assigned
        assert sc.instruments[0].efficiency == 1.0

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# header\n[detector]  # trailing\nposition = 3.0  # inline\n\n"
        assert parse_scenario(text).instruments[0].position == 3.0

    def test_gun_section(self):
        sc = parse_scenario("[electron_gun]\nid = EG\nposition = -3.0\ninsertion = 3.0\n")
        gun = sc.instruments[0]
        assert gun.kind is InstrumentKind.ELECTRON_GUN
        assert gun.insertion_time == 3.0

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("[nope]\n", 1, "unknown section"),
            ("position = 3.0\n", 1, "outside any section"),
            ("[detector]\nwhat = 1\n", 2, "unknown key"),
            ("[detector]\nposition\n", 2, "key = value"),
            ("[detector]\nposition = wide\n", 2, "bad value"),
            ("[mode]\na = 1\n[mode]\nn = 2\n", 3, "duplicate section"),
            ("[detector]\nposition = 1.0\nposition = 2.0\n", 3, "duplicate key"),
            ("[run]\nsource_blocking = maybe\n", 2, "boolean"),
            ("[run]\ntrials = 10\nphase = 0.0\n", 3, "unknown key"),
            ("[electron_gun]\nposition = -3.0\nefficiency = 0.1\n", 3, "unknown key"),
            ("[electron_gun]\nposition = -3.0\nremoval = 3.5\n", 3, "unknown key"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("[mode]\na = inf\n", 2, "must be finite"),
            ("[mirror]\nD = nan\n", 2, "must be finite"),
            ("[detector]\nid = D1\nposition = nan\n", 3, "must be finite"),
            ("[detector]\nposition = 3.0\ninsertion = -inf\n", 3, "must be finite"),
            ("[mode]\na = 1.0\nn = 0\n", 3, "mode index n"),
            ("[mode]\nc = -2.0\n", 2, "wave speed c"),
            ("[mode]\na = 2.0\n[mirror]\nD = 1.5\n", 4, "mirror distance must exceed"),
            ("[detector]\ninsertion = 2.0\nremoval = 1.0\nposition = 3.0\n", 3,
             "removal time must exceed insertion time"),
            ("[detector]\nposition = 3.0\nefficiency = 2.0\n", 3, "efficiency"),
            ("[run]\nmodel = coin-flip\n", 2, "unknown model"),
            ("[detector]\nid = D1\n", 1, "missing key 'position'"),
            ("[detector]\nid =\nposition = 3.0\n", 2, "instrument id '' must be non-empty"),
            ("[detector]\nposition = 3.0\nid = A\x00B\n", 3, "without '#', NUL"),
            ("[run]\nseed = 1\ntrials = 0\n", 3, "trial count must be at least 1"),
            ("[run]\nseed = 340282366920938463463374607431768211456\n", 2, "seed must lie in"),
            ("[run]\ntie_rule = nearest\nseed = 3\n", 2, "unknown tie rule"),
            ("[detector]\nid = A\nposition = 1.0\n[detector]\nposition = 2.0\n"
             "[detector]\nid = A\nposition = 3.0\n", 6, "ids must be distinct"),
            ("[detector]\nposition = 1.0\n\n[detector]\nposition = 1.0\n", 4,
             "positions must be distinct"),
            ("[detector]\nposition = 1.0\n[electron_gun]\nposition = -3.0\n", 3, "mixing"),
            ("[electron_gun]\nposition = -3.0\n[electron_gun]\nposition = 3.0\n"
             "[electron_gun]\nposition = -4.0\n", 5, "at most one electron gun per side"),
        ],
    )
    def test_semantic_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ScenarioError, match=rf"^line {line}: .*{fragment}") as exc:
            parse_scenario(text)
        assert exc.value.line == line

    def test_missing_position(self):
        with pytest.raises(ScenarioError, match="position"):
            parse_scenario("[detector]\nid = D1\n")

    def test_mirror_requires_distance(self):
        with pytest.raises(ScenarioError, match="requires key D"):
            parse_scenario("[mirror]\n[detector]\nposition = 3.0\n")

    def test_unknown_model(self):
        with pytest.raises(ScenarioError, match="unknown model"):
            parse_scenario("[run]\nmodel = coin-flip\n")

    def test_semantic_validation_applied(self):
        text = "[mirror]\nD = 0.5\n[detector]\nposition = 0.2\n"
        with pytest.raises(ScenarioError, match="mirror distance must exceed pulse length"):
            parse_scenario(text)


class TestElectronGuns:
    @pytest.mark.parametrize(
        "fields,fragment",
        [({"removal_time": 3.5}, "removal time"), ({"efficiency": 0.1}, "efficiency")],
    )
    def test_fields_with_no_effect_are_rejected(self, fields, fragment):
        gun = Instrument("EG", InstrumentKind.ELECTRON_GUN, -3.0, 3.0, **fields)
        with pytest.raises(ValueError, match=f"EG: {fragment} has no effect on an electron gun"):
            Scenario(instruments=[gun]).validate()


class TestInstrumentIds:
    @pytest.mark.parametrize("bad", ["", "A#1", " A", "A ", "A\nB", "A\rB", "\t", "A\x85B",
                                     "A\x00B"])
    def test_ids_that_cannot_round_trip_are_rejected(self, bad):
        ins = Instrument(bad, InstrumentKind.PHOTON_DETECTOR, 3.0)
        with pytest.raises(ValueError, match="instrument id"):
            ins.validate()
        with pytest.raises(ValueError, match="instrument id"):
            Scenario(instruments=[ins]).validate()

    def test_ids_with_inner_spaces_and_punctuation_are_kept(self):
        sc = parse_scenario("[detector]\nid = left arm, D-1 [a=b]\nposition = 3.0\n")
        assert sc.instruments[0].id == "left arm, D-1 [a=b]"
        assert parse_scenario(serialize_scenario(sc)) == sc


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TIME = st.floats(min_value=0.0, max_value=1e300)
_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_ID = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=8)


def _above(lo):
    return st.floats(min_value=lo, exclude_min=True, allow_infinity=False)


@st.composite
def _scenarios(draw):
    a, n, c = draw(_POSITIVE), draw(st.integers(1, 64)), draw(_POSITIVE)
    assume(math.isfinite(c * (n * math.pi / a)))  # a mode's k and omega are finite
    mode = ModeSpec(a=a, n=n, c=c)
    mirror = draw(st.none() | _above(mode.a))
    count = draw(st.integers(0, 4))
    ids = draw(st.lists(_ID, min_size=count, max_size=count, unique=True))
    positions = draw(st.lists(_FINITE, min_size=count, max_size=count, unique=True))
    guns = draw(st.booleans())
    instruments = []
    for id, position in zip(ids, positions):
        insertion = draw(_TIME)
        if guns:
            if any((g.position < 0) == (position < 0) for g in instruments):
                continue  # at most one gun per side
            instruments.append(Instrument(id, InstrumentKind.ELECTRON_GUN, position, insertion))
            continue
        removal = draw(st.none() | _above(insertion))
        efficiency = draw(st.floats(0.0, 1.0))
        instruments.append(Instrument(id, InstrumentKind.PHOTON_DETECTOR, position, insertion,
                                      removal, efficiency))
    return Scenario(
        mode=mode,
        mirror_distance=mirror,
        source_blocking=draw(st.booleans()),
        instruments=instruments,
        model=draw(st.sampled_from(OutcomeModel)),
        trials=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**128 - 1)),
        tie_rule=draw(st.sampled_from(["earliest-inserted", "closest"])),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_scenarios())
    def test_generated_scenarios_round_trip(self, sc):
        sc.validate()
        text = serialize_scenario(sc)
        again = parse_scenario(text)
        assert again == sc
        assert serialize_scenario(again) == text

    def test_two_detector_round_trip(self):
        sc = parse_scenario(TWO_DETECTORS)
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_serialize_is_canonical(self):
        sc = parse_scenario(TWO_DETECTORS)
        text = serialize_scenario(sc)
        assert serialize_scenario(parse_scenario(text)) == text

    def test_awkward_floats_survive(self):
        sc = Scenario(
            mode=ModeSpec(a=0.1, n=2, c=2.9979e8),
            mirror_distance=0.1 * 7.3,
            instruments=[
                Instrument("D1", InstrumentKind.PHOTON_DETECTOR, 1.0 / 3.0, 0.1 + 0.2, None, 0.9999),
            ],
            trials=5,
            seed=123456789,
        )
        again = parse_scenario(serialize_scenario(sc))
        assert again == sc  # bit-exact floats via repr round-trip

    def test_free_space_round_trip(self):
        sc = parse_scenario("[detector]\nposition = 3.0\n")
        text = serialize_scenario(sc)
        assert "[mirror]" not in text
        assert parse_scenario(text) == sc
