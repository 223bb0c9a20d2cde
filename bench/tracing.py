"""Spans around the calls into each fluxsink layer, recorded from outside.

The tracer wraps public functions in every module namespace that binds
them (so `oracle.hankel_pair` is wrapped as well as
`specfun.hankel_pair`), and scipy's `solve_ivp` before fluxsink is
imported, so the ODE layer is seen with the function evaluations of each
result.  Spans (name, start, end, parent, item, and nfev for ODE spans)
stay in memory and are written out once, at the end of the pass.

A span's self time is its duration minus the durations of its direct
children.  Summed over a pass, the self times of all spans plus the time
outside every span (`bench.self_s`) give the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, span name) for every wrapped public function; the
# specfun span name gets the evaluation region appended per call
WRAPPED = (
    ("scenario", "load_scenario", "scenario.load"),
    ("cli", "run_scenario", "cli.run"),
    ("cli", "run_sweep", "cli.sweep"),
    ("channels", "solve_channel", "channels.solve"),
    ("channels", "amplitude", "channels.amplitude"),
    ("quartic", "quartic_smatrix", "quartic.smatrix"),
    ("quartic", "connection_matrix", "quartic.cm"),
    ("quartic", "quartic_amplitude", "quartic.amplitude"),
    ("oracle", "oracle_smatrix", "oracle.smatrix"),
    ("oracle", "integrate_radial", "oracle.integrate"),
    ("oracle", "extract_smatrix", "oracle.fit"),
    ("specfun", "bessel_j", "specfun"),
    ("specfun", "bessel_j_pair", "specfun"),
    ("specfun", "hankel", "specfun"),
    ("specfun", "hankel_pair", "specfun"),
    ("specfun", "wronskian_check", "specfun"),
)
# span name -> (call-count metric or None, self-time metric)
SPAN_METRICS = {
    "scenario.load": ("scenario.load_calls", "scenario.load_s"),
    "cli.run": ("cli.calls", "cli.self_s"),
    "cli.sweep": ("cli.calls", "cli.self_s"),
    "channels.solve": ("channels.solve_calls", "channels.solve_s"),
    "channels.amplitude": ("channels.amplitude_calls", "channels.amplitude_s"),
    "quartic.smatrix": ("quartic.smatrix_calls", "quartic.smatrix_s"),
    "quartic.cm": ("quartic.cm_calls", "quartic.cm_s"),
    "quartic.amplitude": (None, "quartic.amplitude_s"),
    "oracle.smatrix": ("oracle.smatrix_calls", "oracle.smatrix_s"),
    "oracle.integrate": (None, "oracle.integrate_s"),
    "oracle.fit": (None, "oracle.fit_s"),
    "ode": ("ode.calls", "ode.s"),
}
REGIONS = ("series", "mp", "asym", "real")
# fast-series edge of the imaginary-order evaluators (specfun docstring)
SERIES_EDGE = 14.0

PER_LAYER = (
    ("channels.amplitude_calls", "count"),
    ("channels.amplitude_s", "s"),
    ("channels.solve_calls", "count"),
    ("channels.solve_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("scenario.load_calls", "count"),
    ("scenario.load_s", "s"),
    ("quartic.smatrix_calls", "count"),
    ("quartic.smatrix_s", "s"),
    ("quartic.cm_calls", "count"),
    ("quartic.cm_computed", "count"),
    ("quartic.cm_hit_ratio", "ratio"),
    ("quartic.cm_s", "s"),
    ("quartic.amplitude_s", "s"),
    ("quartic.repeat_key_frac", "ratio"),
    ("oracle.smatrix_calls", "count"),
    ("oracle.smatrix_s", "s"),
    ("oracle.integrate_s", "s"),
    ("oracle.fit_s", "s"),
    ("ode.calls", "count"),
    ("ode.nfev", "count"),
    ("ode.s", "s"),
    *((f"specfun.calls.{r}", "count") for r in REGIONS),
    *((f"specfun.s.{r}", "s") for r in REGIONS),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def specfun_region(order, x) -> str:
    """Evaluation region of a specfun call, from its arguments."""
    if order.kind == "real":
        return "real"
    if x <= SERIES_EDGE:
        return "series"
    if x < max(30.0, 10.0 * order.mu):
        return "mp"
    return "asym"


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, item, nfev]
        self.spans: list = []
        self._open: list = []
        self.item = -1
        self.bytes_written = 0

    def _wrap(self, name: str, fn, region_of=None, nfev=False):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if region_of is None else f"{name}.{region_of(*args, **kwargs)}"
            span = [label, 0.0, 0.0, open_[-1] if open_ else -1, self.item, 0]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if nfev:
                span[5] = int(result.nfev)
            return result

        return wrapper

    def patch_ode(self) -> None:
        """Wrap scipy.integrate.solve_ivp; call before fluxsink is imported."""
        if "fluxsink" in sys.modules:
            raise RuntimeError("patch solve_ivp before importing fluxsink")
        import scipy.integrate

        scipy.integrate.solve_ivp = self._wrap("ode", scipy.integrate.solve_ivp, nfev=True)

    def patch_fluxsink(self, package) -> None:
        """Wrap WRAPPED in every fluxsink namespace that binds them."""
        namespaces = [package] + [
            mod for key, mod in sys.modules.items() if key.startswith(package.__name__ + ".")
        ]
        for module, attr, name in WRAPPED:
            original = getattr(getattr(package, module), attr)
            region_of = None
            if name == "specfun":
                region_of = _region_getter(attr)
            wrapped = self._wrap(name, original, region_of)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent, item, nfev."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer counts and self times of the recorded pass."""
        dur = [s[2] - s[1] for s in self.spans]
        self_t = list(dur)
        has_ode = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            parent = s[3]
            if parent >= 0:
                self_t[parent] -= dur[i]
            if s[0] == "ode":
                while parent >= 0:  # mark every enclosing span
                    has_ode[parent] = True
                    parent = self.spans[parent][3]
        out = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER}
        for i, s in enumerate(self.spans):
            calls_key, self_key = SPAN_METRICS.get(s[0]) or _specfun_metrics(s[0])
            if calls_key:
                out[calls_key] += 1
            out[self_key] += self_t[i]
            if s[0] == "quartic.cm":
                out["quartic.cm_computed"] += int(has_ode[i])
            elif s[0] == "ode":
                out["ode.nfev"] += s[5]
        calls = out["quartic.cm_calls"]
        out["quartic.cm_hit_ratio"] = (calls - out["quartic.cm_computed"]) / calls if calls else 0.0
        out["bench.self_s"] = wall - sum(self_t)
        out["trace.wall_s"] = wall
        out["cli.bytes_written"] = self.bytes_written
        return out


def _specfun_metrics(name: str) -> tuple:
    region = name.split(".", 1)[1]  # specfun.<region>
    return f"specfun.calls.{region}", f"specfun.s.{region}"


def _region_getter(attr: str):
    """Pull (order, x) out of a specfun call's arguments."""
    if attr in ("hankel", "hankel_pair"):
        return lambda kind, order, x: specfun_region(order, x)
    return lambda order, x: specfun_region(order, x)
