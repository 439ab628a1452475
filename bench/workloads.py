"""The benchmark's workloads: one CLI experiment each, sized to a few seconds.

Each workload is a config text for one ``exdyn`` subcommand.  The benchmark
seed reaches the program only as the config's ``seed`` override.  The sha256
digests pin every CSV at the workload's default seed (the preset's own
seed), so a change that alters any output byte fails the benchmark.  Row
counts do not depend on the seed and are checked at every seed.  Why each
workload exists is in NOTES.md.

This module imports only the standard library: the measured child process
reads it before ``import exdyn`` starts the set-up clock.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str
    default_seed: int
    rows: dict          # csv name -> data rows, None where the seed decides
    digests: dict = field(default_factory=dict)  # csv name -> sha256 at default_seed

    def job(self, seed: int, outdir: str, trace: bool) -> dict:
        """The JSON-able description the measured child process receives."""
        return dict(asdict(self), seed=int(seed), outdir=str(outdir),
                    trace=bool(trace))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="snapshot-2d",
        subcommand="snapshot",
        config="preset = fig1\nn_steps = 150000\n",
        default_seed=101,
        rows={"exemplars.csv": 93, "means.csv": 4, "boundaries.csv": None},
        digests={
            "exemplars.csv":
                "e88f0ca15227a7ea9d5c30f106f0e49715fc704ae2f95f39b4576ae8c2170a94",
            "means.csv":
                "cb7b2936de39be9df55d840649a5bc7b1b36ba93dff231d031cc81bcc0c685ef",
            "boundaries.csv":
                "fe5af45e87026a8940287f7375b792f8a0bd8b92503267dccfed5bbe670d3a16",
        },
    ),
    Workload(
        name="trajectory-csv",
        subcommand="trajectory",
        config="preset = fig3-left\nn_steps = 250000\nstride = 1\n",
        default_seed=31,
        rows={"trajectory.csv": 250001},
        digests={"trajectory.csv":
                "e3a7a848279c936a4aaf1c0ce93468139b212254c65720a3e4550f6c3cfea48f"},
    ),
    Workload(
        name="variance-ensemble",
        subcommand="variance-curve",
        config=("preset = fig4\nlambda_grid = 0.05 0.1 0.2\n"
                "n_list = 100 1000 inf\nreplicas = 3000\n"),
        default_seed=41,
        rows={"variance_curve.csv": 9},
        digests={"variance_curve.csv":
                "04ab77fbef853ff74443dc418f3fbc4a175c283740107f4f234089fe6158436d"},
    ),
    Workload(
        name="property-suite",
        subcommand="properties",
        config="preset = theorem-suite\nn_steps = 500000\n",
        default_seed=51,
        rows={"properties.csv": 25},
        digests={"properties.csv":
                "bcc3c30d2d2a746d211ef71d0e544b95adb126c70d03bdd416d249069e6f208a"},
    ),
)}
