"""GELU's bits do not depend on which SIMD paths numpy dispatches to.

The forward cubes by multiplication, ``x * x * x``, which is exact
elementwise on every path.  Float32 ``x**3`` went through numpy's
AVX-512 ``pow`` where the host has one, and its bits changed when those
paths were switched off, so every data-mode loss through GELU depended
on the host CPU.  A child process with numpy's AVX-512 dispatch turned
off (``NPY_DISABLE_CPU_FEATURES``) must produce the parent's bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import dtypes, ops
from repro.tensor import tensor

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
C = float(np.sqrt(2.0 / np.pi))
#: Every AVX-512 dispatch target of this numpy (AVX512_SKX ... SPR and
#: X86_V4 on numpy 2; AVX512F and the AVX512_* groups on numpy 1).
AVX512_OFF = " ".join(f for f in __cpu_dispatch__ if f.startswith("AVX512") or f == "X86_V4")


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def gelu_digests() -> dict:
    """Digests of GELU's forward and backward bits in float32 and
    bfloat16, and of the old ``x**3`` formula's tanh (the control)."""
    x = (np.random.default_rng(0).standard_normal(1 << 16) * 3).astype(np.float32)
    digests = {"x**3 tanh": _sha(np.tanh(C * (x + 0.044715 * x**3)))}
    for dtype in (dtypes.float32, dtypes.bfloat16):
        a = tensor(x, dtype=dtype).requires_grad_()
        out = ops.gelu(a)
        out.backward(repro.ones(*x.shape, dtype=dtype))
        digests[f"forward {dtype.name}"] = _sha(out.numpy())
        digests[f"backward {dtype.name}"] = _sha(a.grad.numpy())
    return digests


@pytest.mark.skipif(
    not __cpu_features__.get("AVX512_SKX"), reason="the host has no AVX-512 path to switch off"
)
def test_gelu_bits_do_not_depend_on_avx512_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_OFF)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    probe = (
        "import json\n"
        "from tests.test_gelu_dispatch import __cpu_features__, gelu_digests\n"
        "print(json.dumps([__cpu_features__['AVX512_SKX'], gelu_digests()]))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    skx_in_child, theirs = json.loads(child.stdout.splitlines()[-1])
    assert skx_in_child is False  # the switch took effect
    ours = gelu_digests()
    # Control: the old formula's cube follows the dispatch.
    assert theirs.pop("x**3 tanh") != ours.pop("x**3 tanh")
    assert theirs == ours
