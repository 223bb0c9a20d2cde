"""Scenario files: INI-format descriptions of one scattering computation.

A scenario names a potential (inverse-square core with flux, or the
inverse-quartic polarization core), a boundary model, a mode range, an
angular grid, and output preferences.  load_scenario and write_scenario
round-trip losslessly.  The model kinds map onto the one vocabulary of
channels (Sink, Elastic, TotalAbsorption, Custom) for both potentials;
the config class says which keys its core reads (KIND, COUPLING,
ELASTIC_KEYS, WINDOW_KEYS).

Schema (all keys shown; optional ones carry their defaults):

    [potential]
    kind = inverse_square        ; or inverse_quartic
    beta = 0.3
    gamma = 0.5                  ; inverse_square only
    lam = 1.0                    ; inverse_quartic only
    p = 1.0
    mass = 0.5

    [model]
    kind = sink                  ; sink | elastic | total_absorption | custom
    l = 0.0                      ; elastic, subcritical parameter (inverse_square)
    theta = 0.0                  ; elastic, supercritical / quartic core phase
    n_minus = 0                  ; total_absorption window [-n_minus, n_plus]
    n_plus = 0                   ;   (inverse_square)
    m_abs = 0                    ; total_absorption window |m| <= m_abs
                                 ;   (inverse_quartic); S = 0 inside the
                                 ;   window, elastic outside, both cores
    ratio_0 = 0.1, -0.05         ; custom: per-mode a/b as "re, im"
                                 ;   (inverse_square)

    [modes]
    m_range = auto               ; or "lo:hi"

    [angles]
    phi_samples = 721            ; 0 disables differential output, at most 10**6

    [output]
    format = csv                 ; csv | json
    path = out
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass

from . import channels, quartic
from .errors import ConfigError

__all__ = [
    "Scenario",
    "load_scenario",
    "write_scenario",
    "resolve_m_range",
]

_MODEL_KINDS = ("sink", "elastic", "total_absorption", "custom")
_POTENTIALS = (channels.ScatteringConfig, quartic.QuarticConfig)
PHI_SAMPLES_MAX = 10**6


@dataclass(frozen=True)
class Scenario:
    """One fully specified run: potential, model, modes, angles, output."""

    potential: object  # ScatteringConfig | QuarticConfig
    model: object
    m_range: tuple | None  # None = auto
    phi_samples: int
    out_format: str
    out_path: str


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None):
    if not cp.has_section(section):
        if default is not None:
            return default
        raise ConfigError(f"missing [{section}] section")
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing key '{key}' in [{section}]")
    return cp.get(section, key)


def _get_float(cp, section, key, default=None) -> float:
    raw = _get(cp, section, key, default)
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _get_int(cp, section, key, default=None) -> int:
    raw = _get(cp, section, key, default)
    try:
        return int(str(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _parse_potential(cp) -> object:
    kind = _get(cp, "potential", "kind").strip().lower()
    beta = _get_float(cp, "potential", "beta")
    p = _get_float(cp, "potential", "p")
    mass = _get_float(cp, "potential", "mass", "0.5")
    for cls in _POTENTIALS:
        if kind == cls.KIND:
            coupling = _get_float(cp, "potential", cls.COUPLING)
            return cls(beta=beta, p=p, mass=mass, **{cls.COUPLING: coupling})
    raise ConfigError(
        f"[potential] kind = {kind!r}; expected inverse_square or inverse_quartic"
    )


def _parse_ratio(raw: str, m: int) -> complex:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"[model] ratio_{m} = {raw!r}; expected 're, im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"[model] ratio_{m} = {raw!r}; expected 're, im'") from exc


def _parse_model(cp, potential) -> object:
    kind = _get(cp, "model", "kind").strip().lower()
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"[model] kind = {kind!r}; expected one of {_MODEL_KINDS}")
    if kind == "sink":
        return channels.Sink()
    if kind == "elastic":
        keys = potential.ELASTIC_KEYS
        return channels.Elastic(**{k: _get_float(cp, "model", k, "0.0") for k in keys})
    if kind == "total_absorption":
        # a one-key window is symmetric: m_abs = k is [-k, k]
        bounds = [_get_int(cp, "model", k, "0") for k in potential.WINDOW_KEYS]
        return channels.TotalAbsorption(n_minus=bounds[0], n_plus=bounds[-1])
    # custom per-mode ratios
    ratios = {}
    for key, raw in cp.items("model"):
        if key.startswith("ratio_"):
            try:
                m = int(key[len("ratio_"):])
            except ValueError as exc:
                raise ConfigError(f"[model] bad mode index in {key!r}") from exc
            ratios[m] = _parse_ratio(raw, m)
    if not ratios:
        raise ConfigError("[model] custom model needs at least one ratio_<m> key")
    model = channels.Custom(ratios=ratios)
    potential.required_modes(model)  # rejects a model the core does not take
    return model


def _parse_m_range(cp) -> tuple | None:
    raw = _get(cp, "modes", "m_range", "auto").strip().lower()
    if raw == "auto":
        return None
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"[modes] m_range = {raw!r}; expected 'auto' or 'lo:hi'")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"[modes] m_range = {raw!r}; expected integers") from exc
    if lo > hi:
        raise ConfigError(f"[modes] m_range = {raw!r} is empty")
    return (lo, hi)


def load_scenario(path: str) -> Scenario:
    """Parse a scenario INI file; ConfigError carries field diagnostics."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"scenario parse error in {path}: {exc}") from exc
    potential = _parse_potential(cp)
    model = _parse_model(cp, potential)
    m_range = _parse_m_range(cp)
    phi_samples = _get_int(cp, "angles", "phi_samples", "721")
    if not 0 <= phi_samples <= PHI_SAMPLES_MAX:
        raise ConfigError(f"[angles] phi_samples must lie in [0, {PHI_SAMPLES_MAX}], got {phi_samples}")
    out_format = _get(cp, "output", "format", "csv").strip().lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"[output] format = {out_format!r}; expected csv or json")
    out_path = _get(cp, "output", "path", "out")
    return Scenario(
        potential=potential,
        model=model,
        m_range=m_range,
        phi_samples=phi_samples,
        out_format=out_format,
        out_path=out_path,
    )


def _format_model(model, potential) -> list[str]:
    if isinstance(model, channels.Sink):
        return ["kind = sink"]
    if isinstance(model, channels.Elastic):
        return ["kind = elastic"] + [f"{k} = {getattr(model, k)!r}" for k in potential.ELASTIC_KEYS]
    if isinstance(model, channels.TotalAbsorption):
        keys = potential.WINDOW_KEYS
        potential.required_modes(model)  # a one-key window must be symmetric
        bounds = {keys[0]: model.n_minus, keys[-1]: model.n_plus}
        return ["kind = total_absorption"] + [f"{k} = {v}" for k, v in bounds.items()]
    if isinstance(model, channels.Custom):
        lines = ["kind = custom"]
        for m in sorted(model.ratios):
            r = complex(model.ratios[m])
            lines.append(f"ratio_{m} = {r.real!r}, {r.imag!r}")
        return lines
    raise ConfigError(f"cannot serialize model {model!r}")


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write an INI file that load_scenario parses back to an equal Scenario.

    ConfigError if the output path would not read back: it has surrounding
    whitespace, a line break, or a ; or # that would start a comment.
    """
    pot, out = scenario.potential, scenario.out_path
    if out != out.strip() or re.search(r"[\r\n]|(^|\s)[;#]", out):
        raise ConfigError(f"[output] path = {out!r} cannot be written to a scenario file")
    lines = ["[potential]"]
    lines.append(f"kind = {pot.KIND}")
    lines.append(f"beta = {pot.beta!r}")
    lines.append(f"{pot.COUPLING} = {getattr(pot, pot.COUPLING)!r}")
    lines.append(f"p = {pot.p!r}")
    lines.append(f"mass = {pot.mass!r}")
    lines.append("")
    lines.append("[model]")
    lines.extend(_format_model(scenario.model, pot))
    lines.append("")
    lines.append("[modes]")
    if scenario.m_range is None:
        lines.append("m_range = auto")
    else:
        lines.append(f"m_range = {scenario.m_range[0]}:{scenario.m_range[1]}")
    lines.append("")
    lines.append("[angles]")
    lines.append(f"phi_samples = {scenario.phi_samples}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"format = {scenario.out_format}")
    lines.append(f"path = {out}")
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def resolve_m_range(scenario: Scenario) -> tuple:
    """The checked (lo, hi) a run solves.

    auto covers the modes the potential requires plus a 10-mode margin
    on each side (-10..10 when none is required); an explicit range must
    cover those modes itself.  ConfigError for an empty range or one of
    more than channels.MODES_MAX modes.
    """
    pot = scenario.potential
    required = pot.required_modes(scenario.model)
    auto = (min(required, default=0) - 10, max(required, default=0) + 10)
    lo, hi = (int(b) for b in scenario.m_range or auto)
    missing = [m for m in required if not lo <= m <= hi]
    if missing:
        raise ConfigError(
            f"m_range [{lo}, {hi}] misses {pot.REQUIRED} {missing}; use m_range = auto"
        )
    if lo > hi:
        raise ConfigError(f"empty mode range [{lo}, {hi}]")
    if hi - lo >= channels.MODES_MAX:
        raise ConfigError(f"mode range [{lo}, {hi}] holds more than {channels.MODES_MAX} modes")
    return (lo, hi)
