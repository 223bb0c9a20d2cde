"""Scenario files under generated input (Hypothesis properties).

Whatever a scenario file holds, load_scenario returns a Scenario or
raises ConfigError; and every valid Scenario survives write_scenario
followed by load_scenario unchanged.  Examples are derandomized, so a
run is reproducible and needs no example database.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxsink import channels, quartic, scenario
from fluxsink.errors import ConfigError

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)
ROUNDTRIP = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# single-line text: no control characters (line breaks) and no lone surrogates
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=16)
_NUMBER = st.one_of(st.floats().map(repr), st.integers(-(10**6), 10**6).map(str))
_PERCENT = st.sampled_from(["0.3%", "%(x)s", "out%"])  # read literally, never interpolated


def _value(*plausible):
    """A key's value: one of its plausible spellings, a number, or any text."""
    return st.one_of(st.sampled_from(plausible), _NUMBER, _PERCENT, _TEXT)


# section -> key -> value strategy; every key may also be left out
FUZZ_KEYS = {
    "potential": {
        "kind": _value("inverse_square", "inverse_quartic", "Inverse_Square "),
        "beta": _value("0.3", "0"),
        "gamma": _value("0.5", "2.5"),
        "lam": _value("1.0"),
        "p": _value("1.0"),
        "mass": _value("0.5"),
    },
    "model": {
        "kind": _value("sink", "elastic", "total_absorption", "custom"),
        "l": _value("0.2"),
        "theta": _value("1.1"),
        "n_minus": _value("0", "1"),
        "n_plus": _value("0", "2"),
        "m_abs": _value("1"),
        "ratio_0": _value("0.01, -0.005", "nan, 0", "0.1,"),
        "ratio_x": _value("0.1, 0"),
    },
    "modes": {"m_range": _value("auto", "-3:4", "4:-3", "1:2:3")},
    "angles": {"phi_samples": _value("0", "11", "-1")},
    "output": {"format": _value("csv", "json", "xml"), "path": _value("out")},
}


@st.composite
def _fuzzed_text(draw):
    lines = []
    for section, keys in FUZZ_KEYS.items():
        if not draw(st.integers(0, 9)):
            continue  # a missing section now and then
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if draw(st.booleans()) or (section, key) in (("potential", "kind"), ("model", "kind")):
                lines.append(f"{key} = {draw(value)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def ini(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario") / "s.ini"


@FUZZ
@given(text=_fuzzed_text())
def test_any_values_load_or_raise_config_error(ini, text):
    ini.write_text(text)
    try:
        loaded = scenario.load_scenario(str(ini))
    except ConfigError:
        return
    assert isinstance(loaded, scenario.Scenario)


@FUZZ
@given(junk=st.binary(max_size=24), at=st.integers(0, 200))
def test_any_bytes_load_or_raise_config_error(ini, junk, at):
    base = b"[potential]\nkind = inverse_square\nbeta = 0.3\ngamma = 0.5\np = 1.0\n[model]\nkind = sink\n"
    ini.write_bytes(base[:at] + junk + base[at:])
    try:
        loaded = scenario.load_scenario(str(ini))
    except ConfigError:
        return
    assert isinstance(loaded, scenario.Scenario)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_BETA = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_RATIO = st.complex_numbers(allow_nan=False, allow_infinity=False)
_WINDOW = st.integers(0, 1000)  # a quartic window lists its 2 m_abs + 1 modes


@st.composite
def _scenarios(draw):
    beta, p, mass = draw(_BETA), draw(_POSITIVE), draw(_POSITIVE)
    if draw(st.booleans()):
        potential = channels.ScatteringConfig(
            beta=beta, gamma=draw(st.floats(0.0, channels.GAMMA_MAX)), p=p, mass=mass
        )
        models = [
            st.just(channels.Sink()),
            st.builds(channels.Elastic, l=_FINITE, theta=_FINITE),
            st.builds(channels.TotalAbsorption, n_minus=_WINDOW, n_plus=_WINDOW),
            st.builds(channels.Custom, ratios=st.dictionaries(st.integers(-50, 50), _RATIO, min_size=1)),
        ]
    else:
        top = min(quartic.Q_MAX / p, sys.float_info.max)
        lam = draw(st.floats(min_value=0.0, max_value=top, exclude_min=True))
        assume(p * lam <= quartic.Q_MAX)
        potential = quartic.QuarticConfig(beta=beta, lam=lam, p=p, mass=mass)
        models = [
            st.just(channels.Sink()),
            st.builds(channels.Elastic, theta=_FINITE),
            _WINDOW.map(lambda n: channels.TotalAbsorption(n_minus=n, n_plus=n)),
        ]
    lo = draw(st.integers(-(10**6), 10**6))
    m_range = draw(st.one_of(st.none(), st.integers(lo, lo + 10**6).map(lambda hi: (lo, hi))))
    return scenario.Scenario(
        potential=potential,
        model=draw(st.one_of(models)),
        m_range=m_range,
        phi_samples=draw(st.integers(0, 10**6)),
        out_format=draw(st.sampled_from(["csv", "json"])),
        out_path=draw(st.one_of(st.just("out"), _TEXT, st.text(" \t\n;#%a", max_size=6))),
    )


@ROUNDTRIP
@given(scn=_scenarios())
def test_write_then_load_round_trips(ini, scn):
    try:
        scenario.write_scenario(scn, str(ini))
    except ConfigError as exc:  # an output path no scenario file can hold
        assert "[output] path" in str(exc)
        return
    assert scenario.load_scenario(str(ini)) == scn
