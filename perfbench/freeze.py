"""Build the frozen benchmark inputs and their reference values.

Run once from the repository root, then copy the printed digests into
``INPUT_DIGESTS`` in ``perfbench/workloads.py``:

    python3 perfbench/freeze.py

Instances come from the package's own generators, then live on only as
JSON: later changes to ``generate`` cannot change a workload's inputs,
and the digest check in ``workloads.py`` refuses edited files.
Reference values are the DP results of the commit that froze them.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import restless_sched as rs  # noqa: E402

INPUTS = HERE / "inputs"

DEEP_PARAMS = rs.GeneratorParams(
    x_range=(3, 3), y_range=(3, 3), n_range=(3, 3), beta_range=(0.5, 0.5)
)
DEEP_SEED = 0
DEEP_T = 6
#: One variant per certificate a run can make; the first is the warm-up.
DEEP_VARIANTS = 49
SIM_T = 8
PIPELINE_T = 3
#: Per regime; the first few of each are held out for warm-up.
PIPELINE_PER_REGIME = 512
PIPELINE_FIRST_SEED = 100_000


def _variant(base: rs.ModelInstance, rng: np.random.Generator) -> rs.ModelInstance:
    """The base instance with a fresh regime-1 initial-belief chain, drawn
    the way ``gen_assumption1_instance`` draws it."""
    A = base.A.rows
    w = np.sort(rng.uniform(0.05, 0.95, base.n_projects))
    x0 = np.outer(1.0 - w, A[0]) + np.outer(w, A[-1])
    inst = rs.ModelInstance(
        base.n_projects, base.n_states, base.n_obs, base.A, base.B, base.R, base.beta, x0
    )
    if not rs.verify_assumption1(inst).satisfied:
        raise RuntimeError("variant left regime 1")
    return inst


def _certify(args) -> dict:
    doc, T = args
    rep = rs.certify_myopic(rs.ModelInstance.from_json_dict(doc), T)
    if rep.gap > 1e-9 or rep.argmax_agreement != 1.0:
        raise RuntimeError(f"reference certificate failed: {rep}")
    return {
        "optimal_value": rep.optimal_value,
        "myopic_value": rep.myopic_value,
        "nodes": sum(rep.per_depth_node_counts),
    }


def _params_doc(params: rs.GeneratorParams) -> dict:
    return {"x_range": params.x_range, "y_range": params.y_range,
            "n_range": params.n_range, "beta_range": params.beta_range}


def _write(name: str, doc: dict) -> str:
    path = INPUTS / name
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    base = rs.gen_assumption1_instance(DEEP_PARAMS, DEEP_SEED)
    rng = np.random.default_rng(DEEP_SEED)
    deep = [base] + [_variant(base, rng) for _ in range(DEEP_VARIANTS - 1)]
    deep_docs = [inst.to_json_dict() for inst in deep]

    pipeline = []
    for regime, gen in ((1, rs.gen_assumption1_instance), (2, rs.gen_assumption2_instance)):
        for k in range(PIPELINE_PER_REGIME):
            seed = PIPELINE_FIRST_SEED + k
            inst = gen(rs.GeneratorParams(), seed)
            pipeline.append({"regime": regime, "seed": seed, "instance": inst.to_json_dict()})

    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        deep_refs = list(pool.map(_certify, [(d, DEEP_T) for d in deep_docs]))
        pipe_refs = list(
            pool.map(_certify, [(p["instance"], PIPELINE_T) for p in pipeline], chunksize=64)
        )
    for entry, ref in zip(pipeline, pipe_refs):
        entry["reference"] = ref

    sim_ref = rs.policy_value(
        base, rs.BeliefProfile(base.initial_beliefs, 0), 0, SIM_T, rs.myopic_policy(base)
    )

    digests = {
        "deep.json": _write("deep.json", {
            "generator": {"params": _params_doc(DEEP_PARAMS), "seed": DEEP_SEED},
            "horizon": DEEP_T,
            "instances": [
                {"instance": d, "reference": r} for d, r in zip(deep_docs, deep_refs)
            ],
        }),
        "pipeline.json": _write("pipeline.json", {
            "generator": {"params": _params_doc(rs.GeneratorParams())},
            "horizon": PIPELINE_T,
            "instances": pipeline,
        }),
        "simulate.json": _write("simulate.json", {
            "generator": {"params": _params_doc(DEEP_PARAMS), "seed": DEEP_SEED},
            "horizon": SIM_T,
            "instance": base.to_json_dict(),
            "reference": {"myopic_value": sim_ref},
        }),
    }
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
