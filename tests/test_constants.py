import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import heisadams as ha
from heisadams import constants as hc
from heisadams.group import Q
from heisadams.io import write_json

from oracles import weighted_ball_integral

# closed-form reductions of the two defining integrals:
#   V = pi^2/2 (t-slab length 2 sqrt(1-r^4), then polar in z)
#   gamma1 = 3/(4 pi) (inner t-integral 4/3 (r^4+1)^-2, then w = r^4)
V_EXACT = np.pi ** 2 / 2
C0_EXACT = 2 * np.pi ** 2
GAMMA1_EXACT = 3 / (4 * np.pi)
A_EXACT = 32 / 9


def test_closed_forms(constants):
    c = constants
    assert c.unitBallVolume == pytest.approx(V_EXACT, rel=1e-6)
    assert c.c0 == pytest.approx(C0_EXACT, rel=1e-6)
    assert c.gamma1 == pytest.approx(GAMMA1_EXACT, rel=1e-6)
    assert c.bigA == pytest.approx(A_EXACT, rel=1e-6)


def test_defining_relations(constants):
    c = constants
    # bigA = q/(c0 gamma1^2) holds exactly as computed
    assert c.bigA == pytest.approx(c.q / (c.c0 * c.gamma1 ** 2), rel=1e-15)
    assert c.c0 == pytest.approx(c.q * c.unitBallVolume, rel=1e-12)
    assert c.q == 4


def test_monte_carlo_agrees_within_3_sigma(constants):
    e = constants.errorEstimates
    assert abs(e["mc_unitBallVolume"] - constants.unitBallVolume) <= 3 * e["mc_unitBallVolume_sigma"]
    assert abs(e["mc_gamma1"] - constants.gamma1) <= 3 * e["mc_gamma1_sigma"]


def test_error_estimates_present_and_small(constants):
    e = constants.errorEstimates
    for key in ("unitBallVolume", "c0", "gamma1", "bigA"):
        assert e[key] >= 0.0
        assert e[key] < 1e-3


def test_json_export(constants, tmp_path):
    write_json(tmp_path / "constants.json", dataclasses.asdict(constants))
    doc = json.loads((tmp_path / "constants.json").read_text())
    assert set(doc) == {"q", "c0", "gamma1", "bigA", "unitBallVolume", "errorEstimates"}
    assert doc["q"] == 4
    assert doc["bigA"] == pytest.approx(A_EXACT, rel=1e-5)


def test_weighted_ball_integral(constants):
    # polar formula: int_B(0,1) rho^-2 = c0/2 = pi^2
    assert weighted_ball_integral(constants, 2.0) == pytest.approx(np.pi ** 2, rel=1e-6)
    with pytest.raises(ValueError):
        weighted_ball_integral(constants, 4.0)


def test_gamma1_quadrature_matches_the_reference_value():
    """At the default R = 50 the truncated integral is
    I_50 = 2 pi/3 - 5.026547240434208e-7 (mpmath.quad at 30 digits on the
    closed-form t integral, w = r^4 split at 1, 10, ..., 10^5, R^4/2), so
    gamma1 = (2 I_50)^-1; the Gauss-Legendre rules reach it to rounding."""
    c = ha.compute_constants(ha.QuadratureOptions(mc_samples=10_000))
    assert c.gamma1 == pytest.approx(1 / (2 * (2 * np.pi / 3 - 5.026547240434208e-7)),
                                     rel=1e-12)


def test_tail_truncation_is_controlled():
    loose = ha.compute_constants(ha.QuadratureOptions(tail_radius=20.0, mc_samples=10_000))
    tight = ha.compute_constants(ha.QuadratureOptions(tail_radius=80.0, mc_samples=10_000))
    assert loose.gamma1 == pytest.approx(tight.gamma1, rel=1e-5)
    # reported error bound covers the actual truncation difference
    assert abs(loose.gamma1 - tight.gamma1) <= loose.errorEstimates["gamma1"] + tight.errorEstimates["gamma1"]


def test_sharp_constants_have_one_home():
    """C0, GAMMA1 and BIG_A are defined in constants.py alone: the closed form
    of A is 32/9 bit for bit, every other module binds the same objects, and
    none spells a literal of its own."""
    assert hc.BIG_A == 32.0 / 9.0 == Q / (hc.C0 * hc.GAMMA1 ** 2)
    assert hc.C0 == C0_EXACT
    assert hc.GAMMA1 == GAMMA1_EXACT
    for modname, mod in sorted(sys.modules.items()):
        if modname.startswith("heisadams.") and mod is not hc:
            for name in ("C0", "GAMMA1", "BIG_A"):
                assert getattr(mod, name, getattr(hc, name)) is getattr(hc, name), (modname, name)
    for path in sorted(Path(hc.__file__).parent.glob("*.py")):
        if path.name != "constants.py":
            text = path.read_text()
            for literal in ("32.0 / 9.0", "32/9", "32 / 9", "2.0 * np.pi ** 2", "2 * np.pi ** 2"):
                assert literal not in text, (path.name, literal)
