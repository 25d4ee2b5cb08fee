"""Certificate and bound bits do not depend on the BLAS kernel.

numpy's OpenBLAS picks its kernel for the CPU at load time
(``DYNAMIC_ARCH``), and ``OPENBLAS_CORETYPE`` forces one.  Run as a
script, this file prints ``kernel_bits()`` as JSON, which the test
compares with the same bits computed in process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import report_bits

import restless_sched
from restless_sched import ModelInstance, certify_myopic, check_bounds_suite

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
#: Deep inputs whose T=6 reports took different bits under the four
#: kernels while the products went through BLAS; input 10 took four.
DEEP_INPUTS = (0, 10, 14, 16)
#: A pipeline input whose bound suite took four different sets of bits.
PIPELINE_INPUT = 2


def kernel_bits() -> dict:
    """The report bits of ``DEEP_INPUTS`` and of the deep base instance
    with every x0 row equal (the tied-projects instance), each at T=6,
    and every float of ``PIPELINE_INPUT``'s 30-sample bound suite as
    hex."""
    doc = json.loads((INPUTS / "deep.json").read_text())
    instances = [
        ModelInstance.from_json_dict(doc["instances"][i]["instance"]) for i in DEEP_INPUTS
    ]
    tied = json.loads((INPUTS / "simulate.json").read_text())["instance"]
    tied["x0"] = [tied["x0"][0]] * tied["n_projects"]
    instances.append(ModelInstance.from_json_dict(tied))
    entry = json.loads((INPUTS / "pipeline.json").read_text())["instances"][PIPELINE_INPUT]
    suite = check_bounds_suite(
        ModelInstance.from_json_dict(entry["instance"]), 30, entry["seed"], regime=entry["regime"]
    )
    return {
        "reports": [report_bits(certify_myopic(inst, 6)) for inst in instances],
        "bounds": [
            [s.case, s.T, s.u, s.u_prime, s.delta_w.hex(), s.lower.hex(), s.upper.hex()]
            + [float(p).hex() for p in (*s.x_low, *s.x_high)]
            for s in suite
        ],
    }


@pytest.mark.parametrize("coretype", ["Haswell", "SandyBridge", "Prescott"])
def test_bits_match_under_every_kernel(coretype):
    """A subprocess under ``OPENBLAS_CORETYPE=coretype`` gives the bits
    of this process.  Where numpy does not load OpenBLAS the variable
    is ignored, and the two runs compare one build with itself."""
    package = Path(restless_sched.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout) == kernel_bits()


if __name__ == "__main__":
    print(json.dumps(kernel_bits()))
