"""Command-line driver: scenario round-trips, output schema, exit codes."""

import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import pytest
import scipy.integrate

from fluxsink import channels, cli, oracle, quartic, scenario, specfun
from fluxsink.errors import ConfigError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _scenario_text(**kw):
    base = dict(
        kind="inverse_square",
        beta=0.3,
        gamma=0.5,
        p=1.0,
        model="kind = sink",
        m_range="auto",
        phi_samples=0,
        fmt="csv",
        path="out",
    )
    base.update(kw)
    pot = [f"kind = {base['kind']}", f"beta = {base['beta']}", f"p = {base['p']}"]
    if base["kind"] == "inverse_square":
        pot.insert(2, f"gamma = {base['gamma']}")
    else:
        pot.insert(2, f"lam = {base['lam']}")
    return (
        "[potential]\n" + "\n".join(pot) + "\n\n"
        "[model]\n" + base["model"] + "\n\n"
        "[modes]\n" + f"m_range = {base['m_range']}\n\n"
        "[angles]\n" + f"phi_samples = {base['phi_samples']}\n\n"
        "[output]\n" + f"format = {base['fmt']}\npath = {base['path']}\n"
    )


def _read_summary_csv(path):
    with open(path, newline="") as fh:
        return dict(csv.reader(fh))


# ---------------------------------------------------------------------
# scenario round-trip
# ---------------------------------------------------------------------


ROUNDTRIP_MODELS = [
    ("inverse_square", "kind = sink"),
    ("inverse_square", "kind = elastic\nl = 0.7\ntheta = 1.2"),
    ("inverse_square", "kind = total_absorption\nn_minus = 1\nn_plus = 2"),
    ("inverse_square", "kind = custom\nratio_0 = 0.01, -0.005\nratio_1 = 0.3, 0.0"),
    ("inverse_quartic", "kind = sink"),
    ("inverse_quartic", "kind = elastic\ntheta = 0.4"),
    ("inverse_quartic", "kind = total_absorption\nm_abs = 2"),
]


@pytest.mark.parametrize("kind,model", ROUNDTRIP_MODELS)
def test_scenario_roundtrip(tmp_path, kind, model):
    text = _scenario_text(kind=kind, lam=1.5, model=model, m_range="-3:4", phi_samples=11)
    first = scenario.load_scenario(_write(tmp_path, "a.ini", text))
    scenario.write_scenario(first, str(tmp_path / "b.ini"))
    second = scenario.load_scenario(str(tmp_path / "b.ini"))
    assert first == second


def test_scenario_parse_diagnostics(tmp_path):
    bad = _scenario_text().replace("beta = 0.3", "beta = nope")
    with pytest.raises(ConfigError, match="beta"):
        scenario.load_scenario(_write(tmp_path, "bad.ini", bad))
    with pytest.raises(ConfigError, match="cannot read"):
        scenario.load_scenario(str(tmp_path / "missing.ini"))
    trunc = _scenario_text().replace("[model]\nkind = sink\n\n", "")
    with pytest.raises(ConfigError, match=r"\[model\]"):
        scenario.load_scenario(_write(tmp_path, "trunc.ini", trunc))


# ---------------------------------------------------------------------
# run: spec'd scenarios
# ---------------------------------------------------------------------


def test_run_sink_scenario(tmp_path):
    cfgp = _write(tmp_path, "s.ini", _scenario_text(path=str(tmp_path / "out")))
    assert cli.main(["run", cfgp]) == 0
    rows = (tmp_path / "out" / "modes.csv").read_text().splitlines()
    assert rows[0] == ",".join(cli.MODE_COLUMNS)
    super_rows = [r for r in rows[1:] if r.split(",")[1] == "Supercritical"]
    assert len(super_rows) == 1 and super_rows[0].startswith("0,")
    total = float(_read_summary_csv(tmp_path / "out" / "summary.csv")["sigma_total_abs"])
    want = 1.0 - math.exp(-2.0 * math.pi * math.sqrt(0.5**2 - 0.3**2))
    assert abs(total - want) <= 1e-12
    assert abs(total - 0.9190) < 5e-5


def test_run_elastic_zero_total(tmp_path):
    text = _scenario_text(model="kind = elastic\nl = 0.4\ntheta = 1.0", path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "e.ini", text)]) == 0
    summary = _read_summary_csv(tmp_path / "out" / "summary.csv")
    assert summary["sigma_total_abs"] == "0"  # exact zero, not rounded


def test_run_pure_ab_total_absorption(tmp_path):
    text = _scenario_text(
        beta=0.25, gamma=0.0, p=2.0,
        model="kind = total_absorption\nn_minus = 0\nn_plus = 1",
        path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "t.ini", text)]) == 0
    summary = _read_summary_csv(tmp_path / "out" / "summary.csv")
    assert summary["sigma_total_abs"] == "1"  # 2/p exactly


GOLDEN_MODES = """\
m,regime,nu_squared,mu,re_s,im_s,abs_s,sigma_abs
-2,Regular,5.0625,2.25,0.70710678118654724,-0.70710678118654779,1,0
-1,Regular,1.5625,1.25,0.70710678118654768,-0.70710678118654735,1,0
0,Subcritical,0.0625,0.25,0,0,0,0.5
1,Subcritical,0.5625,0.75,0,0,0,0.5
2,Regular,3.0625,1.75,0.70710678118654757,0.70710678118654746,1,0
3,Regular,7.5625,2.75,0.70710678118654757,0.70710678118654746,1,0
"""

GOLDEN_SUMMARY = """\
potential,inverse_square
beta,0.25
gamma,0
p,2
mass,0.5
model,"total_absorption(window=[0, 1])"
m_lo,-2
m_hi,3
phi_samples,0
sigma_total_abs,1
"""


def test_golden_files(tmp_path):
    # schema stability gate: byte-for-byte against frozen closed-form output
    text = _scenario_text(
        beta=0.25, gamma=0.0, p=2.0,
        model="kind = total_absorption\nn_minus = 0\nn_plus = 1",
        m_range="-2:3", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "g.ini", text)]) == 0
    assert (tmp_path / "out" / "modes.csv").read_text() == GOLDEN_MODES
    assert (tmp_path / "out" / "summary.csv").read_text() == GOLDEN_SUMMARY


GOLDEN_MODES_JSON = """\
{
  "modes": [
    {
      "m": -2,
      "regime": "Regular",
      "nu_squared": 5.0625,
      "mu": 2.25,
      "re_s": 0.7071067811865472,
      "im_s": -0.7071067811865478,
      "abs_s": 1.0,
      "sigma_abs": 0.0
    },
    {
      "m": -1,
      "regime": "Regular",
      "nu_squared": 1.5625,
      "mu": 1.25,
      "re_s": 0.7071067811865477,
      "im_s": -0.7071067811865474,
      "abs_s": 1.0,
      "sigma_abs": 0.0
    },
    {
      "m": 0,
      "regime": "Subcritical",
      "nu_squared": 0.0625,
      "mu": 0.25,
      "re_s": 0.0,
      "im_s": 0.0,
      "abs_s": 0.0,
      "sigma_abs": 0.5
    },
    {
      "m": 1,
      "regime": "Subcritical",
      "nu_squared": 0.5625,
      "mu": 0.75,
      "re_s": 0.0,
      "im_s": 0.0,
      "abs_s": 0.0,
      "sigma_abs": 0.5
    },
    {
      "m": 2,
      "regime": "Regular",
      "nu_squared": 3.0625,
      "mu": 1.75,
      "re_s": 0.7071067811865476,
      "im_s": 0.7071067811865475,
      "abs_s": 1.0,
      "sigma_abs": 0.0
    },
    {
      "m": 3,
      "regime": "Regular",
      "nu_squared": 7.5625,
      "mu": 2.75,
      "re_s": 0.7071067811865476,
      "im_s": 0.7071067811865475,
      "abs_s": 1.0,
      "sigma_abs": 0.0
    }
  ]
}
"""

GOLDEN_SUMMARY_JSON = """\
{
  "potential": "inverse_square",
  "beta": 0.25,
  "gamma": 0.0,
  "p": 2.0,
  "mass": 0.5,
  "model": "total_absorption(window=[0, 1])",
  "m_lo": -2,
  "m_hi": 3,
  "phi_samples": 0,
  "sigma_total_abs": 1.0
}
"""


def test_golden_json_files(tmp_path):
    # the golden scenario above, written as JSON: pins the JSON layout too
    text = _scenario_text(
        beta=0.25, gamma=0.0, p=2.0,
        model="kind = total_absorption\nn_minus = 0\nn_plus = 1",
        m_range="-2:3", fmt="json", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "gj.ini", text)]) == 0
    assert (tmp_path / "out" / "modes.json").read_text() == GOLDEN_MODES_JSON
    assert (tmp_path / "out" / "summary.json").read_text() == GOLDEN_SUMMARY_JSON


def test_run_byte_determinism(tmp_path):
    text = _scenario_text(phi_samples=7)
    cfgp = _write(tmp_path, "d.ini", text)
    assert cli.main(["run", cfgp, "--out", str(tmp_path / "o1")]) == 0
    assert cli.main(["run", cfgp, "--out", str(tmp_path / "o2")]) == 0
    for name in ("modes.csv", "summary.csv", "differential.csv"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_json_matches_csv(tmp_path):
    text = _scenario_text(phi_samples=0)
    cfgp = _write(tmp_path, "j.ini", text)
    assert cli.main(["run", cfgp, "--out", str(tmp_path / "oc"), "--format", "csv"]) == 0
    assert cli.main(["run", cfgp, "--out", str(tmp_path / "oj"), "--format", "json"]) == 0
    modes = json.loads((tmp_path / "oj" / "modes.json").read_text())["modes"]
    csv_rows = (tmp_path / "oc" / "modes.csv").read_text().splitlines()[1:]
    assert [tuple(o) for o in modes] == [cli.MODE_COLUMNS] * len(modes)
    for obj, row in zip(modes, csv_rows):
        cells = row.split(",")
        assert obj["m"] == int(cells[0]) and obj["regime"] == cells[1]
        for key, cell in zip(cli.MODE_COLUMNS[2:], cells[2:]):
            assert obj[key] == float(cell)
    summary = json.loads((tmp_path / "oj" / "summary.json").read_text())
    assert isinstance(summary["sigma_total_abs"], float)
    assert summary["m_lo"] == -10 and summary["phi_samples"] == 0


def test_differential_matches_closed_ab(tmp_path):
    # gamma = 0 with the default elastic condition is the pure-flux line,
    # so the sampled curve must equal the closed-form magnitude
    beta, p, n = 0.25, 2.0, 9
    text = _scenario_text(
        beta=beta, gamma=0.0, p=p,
        model="kind = elastic",
        phi_samples=n, path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "ab.ini", text)]) == 0
    rows = (tmp_path / "out" / "differential.csv").read_text().splitlines()
    assert rows[0] == "phi,dsigma_dphi"
    assert len(rows) == n + 1
    for row in rows[1:]:
        phi_s, val_s = row.split(",")
        phi, val = float(phi_s), float(val_s)
        want = math.sin(math.pi * beta) ** 2 / (
            2.0 * math.pi * p * math.sin(0.5 * phi) ** 2
        )
        assert abs(val - want) <= 1e-10 * want


def test_quartic_schedule_run_exact(tmp_path):
    # absorbed window only: every row is closed-form, no integration
    text = _scenario_text(
        kind="inverse_quartic", lam=2.0, p=0.5,
        model="kind = total_absorption\nm_abs = 1",
        m_range="-1:1", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "q.ini", text)]) == 0
    summary = _read_summary_csv(tmp_path / "out" / "summary.csv")
    assert summary["sigma_total_abs"] == "6"  # 3 modes x 1/p, p = 1/2
    rows = (tmp_path / "out" / "modes.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "Quartic" for r in rows)


GOLDEN_QUARTIC_MODES = """\
m,regime,nu_squared,mu,re_s,im_s,abs_s,sigma_abs
-1,Quartic,1.5625,1.25,0,0,0,2
0,Quartic,0.0625,0.25,0,0,0,2
1,Quartic,0.5625,0.75,0,0,0,2
"""

GOLDEN_QUARTIC_SUMMARY = """\
potential,inverse_quartic
beta,0.25
lam,2
p,0.5
mass,0.5
model,total_absorption(|m| <= 1) + elastic outside
m_lo,-1
m_hi,1
phi_samples,11
sigma_total_abs,6
"""

GOLDEN_QUARTIC_DIFFERENTIAL = """\
phi,dsigma_dphi
0.002,160109.92039088064
0.62991853071795867,3.2333806156444926
1.2578370614359173,0.18824095874528604
1.885755592153876,0.10065113113735369
2.5136741228718344,0.34332330732426131
3.1415926535897931,0.15915494309189546
3.7695111843077518,0.0085457285944122267
4.3974297150257105,0.38540062606043757
5.0253482457436691,0.73156433113660491
5.6532667764616278,0.083651768225884146
6.2811853071795865,158200.07189643779
"""


def test_quartic_golden_files(tmp_path):
    # the absorbed window alone is closed-form, so these bytes need no ODE
    text = _scenario_text(
        kind="inverse_quartic", beta=0.25, lam=2.0, p=0.5,
        model="kind = total_absorption\nm_abs = 1",
        m_range="-1:1", phi_samples=11, path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "gq.ini", text)]) == 0
    assert (tmp_path / "out" / "modes.csv").read_text() == GOLDEN_QUARTIC_MODES
    assert (tmp_path / "out" / "summary.csv").read_text() == GOLDEN_QUARTIC_SUMMARY
    assert (tmp_path / "out" / "differential.csv").read_text() == GOLDEN_QUARTIC_DIFFERENTIAL


GOLDEN_SQUARE_DIFFERENTIAL = """\
phi,dsigma_dphi
0.002,105733.26946243233
0.17642181408832186,21.307127613254519
0.35084362817664372,9.6355984789429296
0.52526544226496563,2.4978519516282387
0.69968725635328743,1.9173426366293078
0.87410907044160924,1.8881365380578514
1.0485308845299313,0.54632069792925353
1.2229526986182531,0.45323811624997673
1.3973745127065749,0.38171187386091049
1.5717963267948967,0.44193429818589119
1.7462181408832185,0.43908705371483192
1.9206399549715405,0.3435522635571584
2.0950617690598623,0.65270420281348396
2.2694835831481841,0.48370992334252116
2.4439053972365059,0.24564161805986082
2.6183272113248277,0.34687359347895069
2.7927490254131495,0.13043964867308211
2.9671708395014713,0.0090205359781800731
3.1415926535897931,0.027692146617866172
3.3160144676781149,0.05267586833196726
3.4904362817664367,0.21912349801615197
3.664858095854759,0.19571258515037465
3.8392799099430808,0.33663610124966942
4.0137017240314021,0.49872354262867308
4.1881235381197248,0.31225054069937425
4.3625453522080466,0.28625598118831275
4.5369671662963684,0.223566012672649
4.7113889803846902,0.18404366450288506
4.885810794473012,0.13341319385523281
5.0602326085613338,0.11148635803519238
5.2346544226496556,0.75532697301522722
5.4090762367379774,0.94273151478718487
5.5834980508262992,1.4367730518416475
5.757919864914621,1.8508943158425379
5.9323416790029428,3.3990083506366031
6.1067634930912646,14.835660955240588
6.2811853071795865,102604.36738913342
"""


def test_square_golden_differential(tmp_path):
    # gamma > 0: the solved non-Regular modes and the closed-form tail together
    text = _scenario_text(gamma=1.5, phi_samples=37, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "gd.ini", text)]) == 0
    assert (tmp_path / "out" / "differential.csv").read_text() == GOLDEN_SQUARE_DIFFERENTIAL


@pytest.mark.parametrize(
    "model,label",
    [("kind = sink", "sink"), ("kind = elastic\ntheta = 0.4", "elastic(theta=0.40000000000000002)")],
)
def test_quartic_model_labels(tmp_path, model, label):
    text = _scenario_text(
        kind="inverse_quartic", lam=1.0, model=model, m_range="0:0", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "ql.ini", text)]) == 0
    assert _read_summary_csv(tmp_path / "out" / "summary.csv")["model"] == label


def test_quartic_sink_run(tmp_path):
    text = _scenario_text(
        kind="inverse_quartic", lam=1.0, p=1.0,
        model="kind = sink", m_range="0:0", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "qs.ini", text)]) == 0
    row = (tmp_path / "out" / "modes.csv").read_text().splitlines()[1].split(",")
    assert 0.0 < float(row[7]) < 1.0  # partial capture, p = 1


def test_quartic_run_makes_no_ode_solve(tmp_path, monkeypatch):
    # beta = 0: five modes but three orders |m|; the default connection
    # comes from Floquet data, so the run makes no solve_ivp call at all
    calls = []
    solve_ivp = scipy.integrate.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(args)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting_solve_ivp)
    monkeypatch.setattr(quartic, "_cache", {})
    text = _scenario_text(
        kind="inverse_quartic", beta=0.0, lam=1.3, p=1.0,
        model="kind = sink", m_range="-2:2", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "qb.ini", text)]) == 0
    assert calls == []
    rows = (tmp_path / "out" / "modes.csv").read_text().splitlines()[1:]
    s = {int(r.split(",")[0]): complex(*map(float, r.split(",")[4:6])) for r in rows}
    assert abs(s[-2] - s[2]) <= 1e-14 and abs(s[-1] - s[1]) <= 1e-14  # shared T


def test_default_quartic_run_never_imports_the_ode_solver(tmp_path):
    # the import, and a default lam = 2 quartic run (21 modes), in a fresh
    # interpreter; the oracle's generated DOP853 kernel is built on the first
    # oracle call, not at import, so set-up never pays for it
    path = _write(tmp_path, "q2.ini", _scenario_text(
        kind="inverse_quartic", lam=2.0, p=1.0, model="kind = sink", phi_samples=721,
        path=str(tmp_path / "out"),
    ))
    code = (
        "import sys, fluxsink, fluxsink.cli\n"
        "from fluxsink import oracle\n"
        "assert 'scipy.integrate' not in sys.modules, 'import'\n"
        "assert oracle._kernel.cache_info().currsize == 0, 'kernel at import'\n"
        f"assert fluxsink.cli.main(['run', {path!r}]) == 0\n"
        "assert 'scipy.integrate' not in sys.modules, 'run'\n"
        "assert oracle._kernel.cache_info().currsize == 0, 'kernel on run'\n"
        "cfg = fluxsink.channels.ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)\n"
        "oracle.oracle_smatrix(cfg, fluxsink.channels.classify_mode(cfg, 0), fluxsink.channels.Sink())\n"
        "assert oracle._kernel.cache_info().currsize == 1, 'kernel on oracle call'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    assert len((tmp_path / "out" / "modes.csv").read_text().splitlines()) == 22


def test_wide_quartic_ranges_end_cleanly(tmp_path, capsys):
    # |f g| ~ 1e180 at nu = 60.3 (q = 2): the connection checks scale before
    # squaring; past nu ~ 90 T overflows and the run stops on one line
    text = _scenario_text(
        kind="inverse_quartic", beta=0.3, lam=2.0, p=1.0,
        model="kind = sink", m_range="-60:60", path=str(tmp_path / "out"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", _write(tmp_path, "w60.ini", text)]) == 0
    rows = (tmp_path / "out" / "modes.csv").read_text().splitlines()[1:]
    assert len(rows) == 121
    assert all(math.hypot(*map(float, r.split(",")[4:6])) <= 1.0 + 1e-12 for r in rows)
    capsys.readouterr()
    text = text.replace("-60:60", "-200:200")
    assert cli.main(["run", _write(tmp_path, "w200.ini", text)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "q=2" in err, err


def test_custom_model_run(tmp_path):
    text = _scenario_text(
        model="kind = custom\nratio_0 = 0.01, 0.0\nratio_1 = 0.3, 0.0",
        m_range="0:1", path=str(tmp_path / "out"),
    )
    assert cli.main(["run", _write(tmp_path, "c.ini", text)]) == 0
    rows = (tmp_path / "out" / "modes.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(float(r.split(",")[6]) <= 1.0 + 1e-12 for r in rows)


# ---------------------------------------------------------------------
# exit codes and option precedence
# ---------------------------------------------------------------------


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1
    assert cli.main(["bogus"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()

    # mode on a regime boundary: solver error, surfaced with the mode index
    deg = _scenario_text(beta=0.5, gamma=0.5, path=str(tmp_path / "o"))
    assert cli.main(["run", _write(tmp_path, "deg.ini", deg)]) == 2
    assert capsys.readouterr().err.count("m=0") == 1  # named once, not prefixed again
    # the same mode at a sweep point: still exit 2, now with the point
    base = _write(tmp_path, "degs.ini", _scenario_text(beta=0.5, gamma=0.3, path=str(tmp_path / "o")))
    assert cli.main(["sweep", base, "--vary", "gamma=0.5:0.5:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: sweep point (gamma=0.5): ") and err.count("m=0") == 1

    # explicit range missing absorbing modes is a config error
    short = _scenario_text(m_range="2:5", path=str(tmp_path / "o"))
    assert cli.main(["run", _write(tmp_path, "short.ini", short)]) == 1
    assert "non-Regular" in capsys.readouterr().err


def test_window_over_a_regular_mode_is_config_error(tmp_path, capsys):
    # a total-absorption window may cover only non-Regular modes: invalid input, exit 1
    window = "kind = total_absorption\nn_minus = 3\nn_plus = 0"
    text = _scenario_text(model=window, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "w.ini", text)]) == 1
    err = capsys.readouterr().err
    assert "m=-3" in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()

    # m = -1 is subcritical at gamma = 1 and Regular at the sweep point gamma = 0.2
    window = "kind = total_absorption\nn_minus = 1\nn_plus = 1"
    text = _scenario_text(gamma=1.0, model=window, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "ws.ini", text)]) == 0
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", str(tmp_path / "ws.ini"), "--vary", "gamma=0.2:1:0.8", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "m=-1" in err and len(err.splitlines()) == 1
    assert err.startswith("error: sweep point (gamma=0.2")  # printed to 17 digits
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("name,value", [("gamma", "nan"), ("gamma", "inf"), ("p", "inf")])
def test_non_finite_input_is_config_error(tmp_path, capsys, name, value):
    text = _scenario_text(path=str(tmp_path / "out"), **{name: value})
    assert cli.main(["run", _write(tmp_path, "nf.ini", text)]) == 1
    assert f"{name}={value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind,model,bad",
    [
        ("inverse_square", "kind = elastic\ntheta = nan", "theta=nan"),
        ("inverse_square", "kind = elastic\ntheta = inf", "theta=inf"),
        ("inverse_square", "kind = elastic\nl = nan", "l=nan"),
        ("inverse_quartic", "kind = elastic\ntheta = nan", "theta=nan"),
        ("inverse_quartic", "kind = elastic\ntheta = inf", "theta=inf"),
        ("inverse_square", "kind = custom\nratio_0 = nan, 0", "ratio_0="),
    ],
    ids=["theta-nan", "theta-inf", "l-nan", "quartic-theta-nan", "quartic-theta-inf", "custom-nan"],
)
def test_non_finite_model_parameter_is_config_error(tmp_path, capsys, kind, model, bad):
    text = _scenario_text(kind=kind, lam=1.0, model=model, phi_samples=7, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "nf.ini", text)]) == 1
    err = capsys.readouterr().err
    assert bad in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_percent_in_scenario_is_literal(tmp_path, capsys):
    # values are read as written: no %-interpolation
    out = tmp_path / "out%(x)s%"
    assert cli.main(["run", _write(tmp_path, "pct.ini", _scenario_text(path=str(out)))]) == 0
    assert (out / "modes.csv").exists()
    bad = _scenario_text(beta="0.3%", path=str(tmp_path / "o"))
    assert cli.main(["run", _write(tmp_path, "bad.ini", bad)]) == 1
    assert "is not a number" in capsys.readouterr().err


def test_unexpected_failure_is_solver_error(tmp_path, capsys, monkeypatch):
    # a plain RuntimeError from inside a solve is no package error
    def broken(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(quartic, "connection_matrices", broken)
    text = _scenario_text(kind="inverse_quartic", lam=1.0, m_range="0:1", path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "boom.ini", text)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_huge_quartic_coupling_is_config_error(tmp_path, capsys):
    # q = p lam = 1e300 overflows the inward start point: refused up front
    text = _scenario_text(kind="inverse_quartic", lam=1e300, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "big.ini", text)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "too large" in err
    assert not (tmp_path / "out").exists()


def test_sweep_past_quartic_bound_is_config_error(tmp_path, capsys):
    # the first point solves, the second lies past q = 1e4 and is refused
    text = _scenario_text(kind="inverse_quartic", lam=1.0, m_range="0:0", path=str(tmp_path / "out"))
    args = ["sweep", _write(tmp_path, "qs.ini", text), "--vary", "lam=1:20001:20000"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "sweep point (lam=20001)" in err and "too large" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kw,bad",
    [
        (dict(kind="inverse_quartic", lam=1.0, model="kind = total_absorption\nm_abs = 1000000000"),
         "more than 100000 modes"),
        (dict(m_range="-1000000000:1000000000"), "more than 100000 modes"),
        (dict(phi_samples=10**9), "phi_samples must lie in [0, 1000000]"),
    ],
    ids=["quartic-window", "m-range", "phi-samples"],
)
def test_oversized_run_is_config_error(tmp_path, capsys, kw, bad):
    # refused before any mode or angle list is built
    tracemalloc.start()
    try:
        code = cli.main(["run", _write(tmp_path, "big.ini", _scenario_text(path=str(tmp_path / "out"), **kw))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert bad in err and len(err.splitlines()) == 1
    assert peak < 10**7
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", ["kind = sink", "kind = elastic"], ids=["sink", "elastic"])
def test_gamma_just_below_bound_runs(tmp_path, model):
    text = _scenario_text(gamma=225, model=model, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "g.ini", text)]) == 0
    for row in (tmp_path / "out" / "modes.csv").read_text().splitlines()[1:]:
        assert all(math.isfinite(float(c)) for c in row.split(",")[2:])


def test_gamma_past_bound_is_config_error(tmp_path, capsys):
    # past gamma = -ln(float_min)/pi, e^(-pi mu) of the top modes is subnormal
    for gamma in (226, 1e3):
        text = _scenario_text(gamma=gamma, path=str(tmp_path / "out"))
        assert cli.main(["run", _write(tmp_path, "g.ini", text)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "225.4896" in err
    args = ["sweep", _write(tmp_path, "gs.ini", _scenario_text(path=str(tmp_path / "out")))]
    assert cli.main(args + ["--vary", "gamma=225:226:1"]) == 1
    assert "sweep point (gamma=226)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model", ["kind = sink", "kind = elastic\ntheta = 0.7"], ids=["sink", "elastic"]
)
def test_large_gamma_run_needs_only_gamma_function(tmp_path, monkeypatch, model):
    # gamma = 60 puts orders up to mu = 60 past specfun's |order| <= ORDER_MAX
    # box; a run reaches them through complex_gamma alone, never the Bessel
    # or Hankel evaluators, wherever a module binds them
    def refuse(*args, **kwargs):
        raise AssertionError("a run must not evaluate Bessel or Hankel functions")

    for mod in [m for name, m in sys.modules.items() if name.startswith("fluxsink")]:
        for name in ("bessel_j_pair", "hankel_pair"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    text = _scenario_text(gamma=60, model=model, phi_samples=7, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "g60.ini", text)]) == 0
    rows = (tmp_path / "out" / "modes.csv").read_text().splitlines()[1:]
    assert max(float(r.split(",")[3]) for r in rows) > specfun.ORDER_MAX


def test_free_field_requires_no_modes(tmp_path):
    # beta = gamma = 0: every mode is Regular, so any explicit range is complete
    cfg = channels.ScatteringConfig(beta=0.0, gamma=0.0, p=1.0)
    assert channels.nonregular_modes(cfg) == []
    assert cfg.required_modes(channels.Sink()) == []
    text = _scenario_text(beta=0.0, gamma=0.0, m_range="1:3", phi_samples=5, path=str(tmp_path / "out"))
    assert cli.main(["run", _write(tmp_path, "free.ini", text)]) == 0


def test_outdir_precedence(tmp_path, monkeypatch):
    cfgp = _write(tmp_path, "p.ini", _scenario_text(path=str(tmp_path / "from_cfg")))
    monkeypatch.setenv("FLUXSINK_OUTDIR", str(tmp_path / "from_env"))
    assert cli.main(["run", cfgp]) == 0
    assert (tmp_path / "from_env" / "modes.csv").exists()
    assert cli.main(["run", cfgp, "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "modes.csv").exists()
    monkeypatch.delenv("FLUXSINK_OUTDIR")
    assert cli.main(["run", cfgp]) == 0
    assert (tmp_path / "from_cfg" / "modes.csv").exists()


def test_module_entry_point(tmp_path):
    cfgp = _write(tmp_path, "m.ini", _scenario_text(path=str(tmp_path / "out")))
    proc = subprocess.run(
        [sys.executable, "-m", "fluxsink.cli", "run", cfgp],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "modes.csv" in proc.stdout


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------


def test_sweep_product_order_and_values(tmp_path):
    text = _scenario_text(
        beta=0.25, gamma=0.0, p=2.0,
        model="kind = total_absorption\nn_minus = 0\nn_plus = 1",
    )
    cfgp = _write(tmp_path, "sw.ini", text)
    args = ["sweep", cfgp, "--vary", "beta=0.1:0.3:0.1", "--vary", "p=1:2:1"]
    assert cli.main(args + ["--out", str(tmp_path / "s1")]) == 0
    lines = (tmp_path / "s1" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,p,sigma_total_abs"
    assert len(lines) == 1 + 3 * 2
    got = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]
    # rightmost axis fastest; window total is 2/p independent of beta
    assert [(round(b, 10), pp) for b, pp, _ in got] == [
        (0.1, 1.0), (0.1, 2.0), (0.2, 1.0), (0.2, 2.0), (0.3, 1.0), (0.3, 2.0)
    ]
    for _, pp, total in got:
        assert total == 2.0 / pp

    assert cli.main(args + ["--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (tmp_path / "s2" / "sweep.csv").read_bytes()


GOLDEN_SWEEP = {
    "csv": """\
beta,gamma,sigma_total_abs
0.10000000000000001,0.5,0.95395423990955719
0.10000000000000001,0.69999999999999996,0.98713337428764503
0.20000000000000001,0.5,0.94382689680941201
0.20000000000000001,0.69999999999999996,0.98522603603003145
""",
    "json": """\
{
  "sweep": [
    {
      "beta": 0.1,
      "gamma": 0.5,
      "sigma_total_abs": 0.9539542399095572
    },
    {
      "beta": 0.1,
      "gamma": 0.7,
      "sigma_total_abs": 0.987133374287645
    },
    {
      "beta": 0.2,
      "gamma": 0.5,
      "sigma_total_abs": 0.943826896809412
    },
    {
      "beta": 0.2,
      "gamma": 0.7,
      "sigma_total_abs": 0.9852260360300314
    }
  ]
}
""",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_golden_files(tmp_path, fmt):
    # 2 x 2 sink sweep over closed-form modes, byte-for-byte in both formats
    cfgp = _write(tmp_path, "sg.ini", _scenario_text())
    args = ["sweep", cfgp, "--vary", "beta=0.1:0.2:0.1", "--vary", "gamma=0.5:0.7:0.2"]
    assert cli.main(args + ["--out", str(tmp_path / "out"), "--format", fmt]) == 0
    assert (tmp_path / "out" / f"sweep.{fmt}").read_text() == GOLDEN_SWEEP[fmt]


def test_sweep_rejects_bad_axes(tmp_path, capsys):
    cfgp = _write(tmp_path, "sw.ini", _scenario_text())
    assert cli.main(["sweep", cfgp, "--vary", "beta=0:0.5"]) == 1
    assert cli.main(["sweep", cfgp, "--vary", "lam=1:2:1"]) == 1
    assert cli.main(["sweep", cfgp, "--vary", "beta=0:0.5:0.1", "--vary", "beta=0:0.5:0.1"]) == 1
    assert cli.main(["sweep", cfgp]) == 1  # --vary is required
    for grid in ("beta=nan:0.5:0.1", "beta=0:0.5:nan", "beta=0:inf:0.1", "gamma=0.1:0.2:inf"):
        assert cli.main(["sweep", cfgp, "--vary", grid]) == 1
    assert cli.main(["sweep", cfgp, "--vary", "beta=0:1e12:1"]) == 1  # 1e12 points
    grid = ["--vary", "beta=0.1:0.2:0.00001", "--vary", "gamma=0.5:0.6:0.001"]
    assert cli.main(["sweep", cfgp, *grid]) == 1  # 10,001 x 101 points
    capsys.readouterr()


# ---------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------


def test_certify_default_passes():
    buf = io.StringIO()
    assert cli.certify(stream=buf) == 0
    out = buf.getvalue()
    assert "[FAIL]" not in out
    assert out.strip().endswith("checks passed")
    assert "wronskian-sweep" in out and "oracle-vs-closed" in out


def test_certify_strict_shrinks_residuals():
    buf = io.StringIO()
    assert cli.certify(strict=True, stream=buf) == 0
    lines = buf.getvalue().splitlines()
    refine = [ln for ln in lines if "oracle-refinement" in ln]
    assert len(refine) == 1 and refine[0].startswith("[PASS]")


def test_certify_fault_injection(monkeypatch):
    # a corrupted special-function build: every Wronskian deviation grows
    # by 1e-6, so the gate must go red
    check = cli.specfun.wronskian_check
    monkeypatch.setattr(cli.specfun, "wronskian_check", lambda order, x: check(order, x) + 1e-6)
    buf = io.StringIO()
    assert cli.certify(stream=buf) == 3
    wrons = [ln for ln in buf.getvalue().splitlines() if "wronskian-sweep" in ln]
    assert wrons and wrons[0].startswith("[FAIL]")
