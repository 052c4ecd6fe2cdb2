"""Regenerate ``reference/pulse3d.json``, the stored final states of pulse3d.

    python3 perfbench/make_reference.py

Runs ``gasbox run`` once per pulse shape (eight shapes, about ten seconds
each) and stores the step count and a fingerprint of the final state.
Regenerate only when the discrete scheme is meant to change; a refactor
must reproduce the stored states within ``workloads.PULSE_REF_RTOL``.
"""

import json
import os
import shutil
import subprocess
import sys

import workloads
from run import ROOT, WORK, WORKER, WORKER_ENV


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from gasbox.snapshot import read_snapshot

    choices = {}
    n_choices = len(workloads.PULSE_AMPLITUDES) * len(workloads.PULSE_WIDTHS)
    for choice in range(n_choices):
        rep_dir = WORK / "reference" / str(choice)
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        cfg = rep_dir / "run.cfg"
        cfg.write_text(workloads.pulse_config(choice, (rep_dir / "out").as_posix()), encoding="utf-8")
        result_path = rep_dir / "result.json"
        subprocess.run([sys.executable, str(WORKER), "--result", str(result_path),
                        "--config", str(cfg)], cwd=ROOT, env=dict(os.environ, **WORKER_ENV), check=True)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        steps, rejections = workloads.parse_summary(result["stdout"])
        if rejections or steps != workloads.PULSE_STEPS:
            raise SystemExit(f"choice {choice}: {steps} steps, {rejections} rejections")
        u5, _ = read_snapshot(rep_dir / "out" / "final.snap")
        choices[str(choice)] = {**workloads.pulse_params(choice), "steps": steps,
                                **workloads.fingerprint(u5)}
        print(f"choice {choice}: {workloads.pulse_params(choice)} steps={steps}")
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"n": workloads.PULSE_N, "t_end": workloads.PULSE_T_END, "choices": choices}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
