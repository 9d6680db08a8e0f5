"""File-based workflow: CSV panels and the command line.

Writes a simulated panel to CSV, runs the `tasc` CLI against it in-process,
and reads the machine-readable outputs back.
"""

import json
import tempfile
from pathlib import Path

from tasc import SimulationConfig, load_csv, save_csv, simulate
from tasc.cli import main

with tempfile.TemporaryDirectory(prefix="tasc-demo-") as tmp:
    workdir = Path(tmp)
    sim = simulate(SimulationConfig(
        d_true=2, n_units=8, t_total=48, t0=36,
        a_q=0.01, b_q=0.1, a_r=0.02, b_r=0.2, seed=8,
    ))
    panel_path = workdir / "panel.csv"
    save_csv(sim.panel, panel_path)
    print(f"wrote {panel_path}")

    back = load_csv(panel_path, t0=36)
    assert (back.values == sim.panel.values).all()
    print("CSV round trip is exact")

    out = workdir / "counterfactual.csv"
    code = main([
        "infer", "--input", str(panel_path), "--t0", "36",
        "--method", "tasc", "--d", "2", "--n1", "60",
        "--output", str(out), "--seed", "0",
    ])
    print(f"\n`tasc infer` exit code: {code}")
    print("first lines of the output table:")
    for line in out.read_text().splitlines()[:5]:
        print(" ", line)

    theta_doc = json.loads((workdir / "counterfactual.csv.theta.json").read_text())
    print(f"\nfitted model: d={theta_doc['d']}, {theta_doc['n_obs']} observation rows,"
          f" EM trace length {len(theta_doc['loglik_trace'])}")
