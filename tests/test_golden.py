"""Golden digests: the incidence CLI outputs and the text writers must stay byte-identical.

Each CLI digest is the sha256 of the stdout of ``z2top <args>``.  Each writer
digest is the sha256 of one writer's text for fixed literal inputs, so it
does not depend on the integrator or the machine.  A change to any of these
outputs is a change to the file format and must update the digest on
purpose.
"""

import hashlib

import numpy as np
import pytest

from z2top.cli import main
from z2top.dynamics import Trajectory, trajectory_json
from z2top.invariants import DriftReport
from z2top.reduction import RouteComparison

GOLDEN = {
    "geometry --n 3": "2bcaa3e95293068c7caeacb4bb4ff175bae3dcc5cdaaf687bb3ee0069ec69d37",
    "geometry --n 4": "6ee39f2266a975fa9d51b0493234509eeef1f8d43e76437e51c35d7481935630",
    "geometry --n 8": "80d69a78318ead40d3067459986f32e9848824c8be2a86f24321025fd291548f",
    "geometry --n 3 --format dot": "c7905bceb5f80cf49c7294b183da6ce12163daac4a40ad72a5687db1b96ae99b",
    "geometry --n 4 --format dot": "b84ebaf26956379478bed78ed383328171f1a63b3fbe53b4f417a7a80aaaccf4",
    "geometry --n 8 --format dot": "e151b3def8bb0bf9350bad5af4774b308f853d8958c084998fd40784373152a0",
    "equations --n 4": "c9b903dce0d0a22559d1f5e75f7fd45c9ebf03bca10083053abff05d35edee80",
    "equations --n 8": "ad4a76c93370e443daa03ecdf0641bb4c2df6ea0d38f300a4d9e1b8e586b6b31",
    "equations --n 3 --labelling classic": "859af1b60d3ea1443f17c9911544d502e87a3517239a76d82bdd88657169b00b",
    "equations --n 4 --labelling classic": "febb887b3b85181c73fe0290d4a22590cc82c3a6c76562be6f023d23df024a0b",
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_stdout_digest(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[args]


_SPECIAL = [0.0, -0.0, 5e-324, 1e16, 1 / 3, -2.5e-300, 1.7976931348623157e308]


def _writer_outputs() -> dict[str, str]:
    states = np.array(
        [
            [0.1, 0.2, 0.30000000000000004],
            [np.nan, np.inf, -np.inf],
            _SPECIAL[:3],
            _SPECIAL[3:6],
            [123456789.0, -1e-5, 2.0 ** 60],
        ]
    )
    times = np.array([0.0, 0.125, 1 / 3, 2.5e-7, 1e16])
    trajectory = Trajectory("omega", times, states, "blow_up")
    drift = DriftReport(
        names=("gamma_1", "gamma_2", "N_1_2", "N_1_3", "N_1_4"),
        initial=np.array([0.125, -2.5e-13, -0.0, 1e16, np.nan]),
        max_drift=np.array([3.1e-12, 4e-17, 5e-324, np.inf, np.nan]),
        t_at_max=np.array([0.5, 1 / 3, 0.0, -np.inf, np.nan]),
        relative=np.array([True, False, True, True, True]),
    )
    comparison = RouteComparison(
        n=2,
        genus=0,
        t_grid=times[:4],
        max_rel_err=np.float64(2.2e-16),
        per_component_err=np.array([1.1e-16, 0.0, np.nan]),
        omega_termination="completed",
        scalar_termination="blow_up",
    )
    meta = {"n": 2, "rel_tol": 1e-10, "abs_tol": 1e-12, "seed": None, "t_end": 1.5}
    return {
        "trajectory.csv": trajectory.to_csv(),
        "trajectory.json": trajectory_json(trajectory, **meta, omega0=[0.1, 0.2, 0.3]),
        "drift.json": drift.json_text(),
        "drift table": drift.table(),
        "comparison.json": comparison.json_text(),
    }


WRITER_GOLDEN = {
    "comparison.json": "52bc1a984db0b1314fb8bec3fab1b1ddc1342c5f64307ba6c4259311938801aa",
    "drift table": "6ca7e5193679f68a9d54259550f266c3eb5b28f30fa7d0780dfb507156444a16",
    "drift.json": "a78d9921b12202c2b010f0eb4a1850f964515f402dfab75a9c01d57176925550",
    "trajectory.csv": "4a2aa82233eb549088691e5d41ea45d85debdcfe0b385defce590022193e3d1b",
    "trajectory.json": "000deb2c602e651488c69d9261588e6c8170624624302f04e224c5d92f62b4dc",
}


@pytest.mark.parametrize("name", sorted(WRITER_GOLDEN))
def test_writer_digest(name):
    text = _writer_outputs()[name]
    assert hashlib.sha256(text.encode()).hexdigest() == WRITER_GOLDEN[name]
