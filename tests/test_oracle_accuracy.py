"""Ell-7 oracle-accuracy regressions, one per former gate miss.

Each case is a pair or triple on which a suite run at radius 0.1 with one
BLAS thread once failed a gate through the oracle alone (the closed form
passed it): slot1_raising at 5.3e-8, generator_actions at 1.42e-8 and
hybe_c_modulus at 2.53e-8.  The residuals depend on the BLAS thread count
through rounding, so every case runs in a child interpreter limited to one
BLAS thread.
"""
import os
import subprocess
import sys

import holobraid
from holobraid.suite import THRESHOLDS

PRELUDE = """
from holobraid.hybe import derive_colorings, hybe_residual
from holobraid.intertwiner import check_generator_action, solve_intertwiner
from holobraid.roots import primitive_root
from holobraid.sampling import sample_params
from holobraid.suite import third_params

ctx = primitive_root(7)
"""


def _one_blas_thread(code: str) -> float:
    """Run PRELUDE + code with one BLAS thread; code prints one float."""
    src = os.path.dirname(os.path.dirname(holobraid.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def test_slot1_raising_seed_100_trial_2():
    res = _one_blas_thread("""
p1, p2 = sample_params(ctx, 100, 2, radius=0.1, count=2)
print(check_generator_action(solve_intertwiner(p1, p2))["slot1_raising"]["direct"])
""")
    assert res < THRESHOLDS["generator_actions"]


def test_generator_actions_seed_184614912_trial_2():
    res = _one_blas_thread("""
p1, p2 = sample_params(ctx, 184614912, 2, radius=0.1, count=2)
by = check_generator_action(solve_intertwiner(p1, p2))
print(max(min(vs.values()) for vs in by.values()))
""")
    assert res < THRESHOLDS["generator_actions"]


def test_hybe_c_modulus_seed_33751040_trial_0():
    res = _one_blas_thread("""
p1, p2 = sample_params(ctx, 33751040, 0, radius=0.1, count=2)
p3 = third_params(ctx, 33751040, 0, 0.1)
c, _ = hybe_residual(derive_colorings(p1, p2, p3), solve_intertwiner(p1, p2))
print(abs(abs(c) - 1))
""")
    assert res < THRESHOLDS["hybe_c_modulus"]
