import math
import textwrap
import tracemalloc

import numpy as np
import pytest

import exdyn.ar1
import exdyn.geometry
import exdyn.harness
import exdyn.rowtext
from exdyn import (
    ConfigError,
    boundary_params,
    figure1_snapshot,
    parse_config,
    run_trajectory,
    simulate_ar1,
    substream,
    variance_of_Y,
)
from exdyn.cli import main, run
from exdyn.config import EXPERIMENTS, header_text
from exdyn.floattext import fmt
from exdyn.harness import equilibrium_steps

TRAJ = textwrap.dedent("""\
    experiment = trajectory
    seed = 5
    k = 2
    lambda = 0.1
    domain = 0 1
    init_means = 0.25 0.75
    init_weights = 1 1
    n_steps = 200
    stride = 10
""")


def parse(text, **kwargs):
    return parse_config(textwrap.dedent(text), **kwargs)


# ---------------------------------------------------------------------------
# parsing

def test_minimal_trajectory_defaults():
    spec = parse("""\
        experiment = trajectory
        seed = 5
        k = 2
        lambda = 0.1
        domain = 0 1
        init_means = 0.25 0.75
        init_weights = 1 1
        n_steps = 50
    """)
    assert spec.experiment == "trajectory"
    assert spec.stride == 1
    assert spec.seed == 5
    assert spec.model.decay_rate == 0.1
    assert spec.expanded["distribution"] == "uniform"
    assert np.array_equal(spec.model.init_means, [[0.25], [0.75]])
    assert spec.out is None and spec.scatter_points is None


def test_comments_and_blank_lines_ignored():
    spec = parse_config("# a comment\n\n" + TRAJ)
    assert spec.n_steps == 200


@pytest.mark.parametrize("name", ["fig1", "fig3-left", "fig3-right", "fig4",
                                  "theorem-suite"])
def test_preset_expansion_is_a_fixed_point(name):
    spec = parse_config(f"preset = {name}\n")
    assert spec.experiment in EXPERIMENTS
    text = "\n".join(f"{k} = {v}" for k, v in spec.expanded.items()) + "\n"
    again = parse_config(text)
    assert again.expanded == spec.expanded
    if spec.scatter_points is not None:
        assert np.array_equal(again.scatter_points, spec.scatter_points)


_MODEL_KEYS = {"k", "lambda", "dim", "domain", "distribution", "init",
               "init_means", "init_weights",
               "scatter_centers", "scatter_count", "scatter_sigma"}
_KEYS = {
    "trajectory": _MODEL_KEYS | {"n_steps", "stride"},
    "snapshot": _MODEL_KEYS | {"n_steps", "prune_threshold", "grid_resolution"},
    "properties": _MODEL_KEYS | {"n_steps", "window", "check_stride",
                                 "negative_control"},
    "variance-curve": {"lambda_grid", "n_list", "replicas"},
    "ar1-table": {"lambda_grid"},
}
_EXPLICIT = "k = 2\nlambda = 0.1\ndomain = 0 1\ninit_means = 0.25 0.75\ninit_weights = 1 1\n"


# each experiment's required keys only, and the echo of every key left out
@pytest.mark.parametrize("experiment,required,defaults", [
    ("trajectory", _EXPLICIT + "n_steps = 50\n",
     {"dim": "1", "distribution": "uniform", "init": "explicit", "stride": "1"}),
    ("snapshot", _EXPLICIT.replace("0 1", "0 1 0 1").replace("0.75", "0.5 0.75 0.5")
     + "n_steps = 50\n",
     {"dim": "2", "distribution": "uniform", "init": "explicit",
      "prune_threshold": "0.01", "grid_resolution": "512"}),
    ("snapshot", "k = 2\nlambda = 0.1\ndomain = 0 10 0 10\ninit = scatter\n"
     "scatter_centers = 3 5 7 5\nn_steps = 50\n",
     {"dim": "2", "distribution": "uniform", "scatter_count": "100",
      "scatter_sigma": "3.0", "prune_threshold": "0.01", "grid_resolution": "512"}),
    ("properties", _EXPLICIT + "n_steps = 50\n",
     {"dim": "1", "distribution": "uniform", "init": "explicit", "window": "10000",
      "check_stride": "1000", "negative_control": "true"}),
    ("variance-curve", "lambda_grid = 0.1\nn_list = 10 inf\n", {"replicas": "10000"}),
    ("ar1-table", "lambda_grid = 0.1\n", {}),
], ids=["trajectory", "snapshot", "snapshot-scatter", "properties", "variance-curve",
        "ar1-table"])
def test_required_keys_alone_echo_every_default(experiment, required, defaults):
    text = f"experiment = {experiment}\nseed = 3\n" + required
    spec = parse_config(text)
    for key, value in defaults.items():
        assert spec.expanded[key] == value
    written = {line.split(" = ")[0] for line in text.splitlines()}
    assert set(spec.expanded) == written | set(defaults)
    assert set(spec.expanded) <= _KEYS[experiment] | {"experiment", "seed"}
    again = parse_config("\n".join(f"{k} = {v}" for k, v in spec.expanded.items()))
    assert again.expanded == spec.expanded
    assert list(again.expanded) == list(spec.expanded)
    for key in set().union(*_KEYS.values()) - _KEYS[experiment]:
        with pytest.raises(ConfigError, match="does not apply") as err:
            parse_config(text + f"{key} = 1\n")
        assert err.value.field == key


def test_echo_lines_round_trip():
    spec = parse_config(TRAJ)
    csv_head = "\n".join(spec.echo_lines()) + "\nn,x1,x2,b\n"
    again = parse_config(header_text(csv_head))
    assert again.expanded == spec.expanded


def test_file_keys_beat_preset_and_overrides_beat_file():
    spec = parse_config("preset = fig3-left\nn_steps = 50\n")
    assert spec.n_steps == 50
    spec = parse_config("preset = fig3-left\nn_steps = 50\n",
                        overrides={"n_steps": 25, "seed": 9})
    assert spec.n_steps == 25
    assert spec.seed == 9


def test_default_experiment_fills_in():
    body = TRAJ.replace("experiment = trajectory\n", "")
    spec = parse_config(body, default_experiment="trajectory")
    assert spec.experiment == "trajectory"
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(body)


@pytest.mark.parametrize("text,fragment", [
    ("experiment = trajectory\nbogus = 3\n", "unknown key 'bogus'"),
    ("just words\n", "expected 'key = value'"),
    ("seed = 1\nseed = 2\n", "duplicate key"),
    ("k =\n", "empty value"),
    ("preset = nope\n", "preset"),
])
def test_tokenizer_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def bad_traj(**replacements):
    lines = dict(line.split(" = ") for line in TRAJ.strip().splitlines())
    lines.update(replacements)
    return "\n".join(f"{k} = {v}" for k, v in lines.items() if v is not None) + "\n"


@pytest.mark.parametrize("mutation,fragment", [
    (dict(init_means="0.25 0.5 0.75"), "k*dim = 2"),
    (dict(init_means="0.4 0.4"), "init_means"),
    (dict(init_weights="1 2 3"), "k = 2"),
    (dict(domain="0 1 0"), "even count"),
    (dict(domain="1 0"), "domain"),
    (dict(**{"lambda": "-0.5"}), "lambda"),
    (dict(seed=None), "missing required key: seed"),
    (dict(seed=str(2**64)), "64 bits"),
    (dict(n_steps="-3"), "n_steps"),
    (dict(stride="0"), "stride"),
    (dict(k="0"), "k"),
    (dict(distribution="gaussian"), "uniform"),
    (dict(window="7"), "does not apply to experiment"),
    (dict(experiment="plot"), "unknown experiment"),
])
def test_value_errors_name_the_field(mutation, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(bad_traj(**mutation))
    assert fragment in str(err.value)


def test_dim_key_must_match_domain():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config(bad_traj(dim="2"))
    spec = parse_config(bad_traj(dim="1"))
    assert spec.model.domain.dim == 1


def test_properties_bool_and_grid_validation():
    with pytest.raises(ConfigError, match="'true' or 'false'"):
        parse("""\
            experiment = properties
            seed = 1
            k = 2
            lambda = 0.1
            domain = 0 1
            init_means = 0.25 0.75
            init_weights = 1 1
            n_steps = 100
            negative_control = yes
        """)
    with pytest.raises(ConfigError, match="lambda_grid"):
        parse_config("experiment = ar1-table\nseed = 1\nlambda_grid = 0.1 0\n")
    with pytest.raises(ConfigError, match="n_list"):
        parse_config("experiment = variance-curve\nseed = 1\n"
                     "lambda_grid = 0.1\nn_list = -2\n")


def test_snapshot_requires_two_axes():
    with pytest.raises(ConfigError, match="2-axis"):
        parse("""\
            experiment = snapshot
            seed = 1
            k = 2
            lambda = 0.1
            domain = 0 1
            init_means = 0.25 0.75
            init_weights = 1 1
            n_steps = 10
        """)


# ---------------------------------------------------------------------------
# scatter initialization

SCATTER = textwrap.dedent("""\
    experiment = snapshot
    seed = 13
    k = 2
    lambda = 0.5
    domain = 0 10 0 10
    init = scatter
    scatter_centers = 3 5 7 5
    scatter_count = 40
    scatter_sigma = 1.5
    n_steps = 10
""")


def test_scatter_points_are_seed_deterministic():
    a = parse_config(SCATTER)
    b = parse_config(SCATTER)
    c = parse_config(SCATTER.replace("seed = 13", "seed = 14"))
    assert np.array_equal(a.scatter_points, b.scatter_points)
    assert not np.array_equal(a.scatter_points, c.scatter_points)
    assert a.scatter_points.shape == (2, 40, 2)
    # the snapshot seeds its cloud with every scatter point at weight 1
    snap = figure1_snapshot(a.model, 0, prune_threshold=0.0,
                            scatter_points=a.scatter_points, grid_resolution=8)
    assert np.array_equal(snap.positions, a.scatter_points.reshape(80, 2))
    assert np.array_equal(snap.weights, np.ones(80))
    assert np.array_equal(snap.categories, np.repeat([0, 1], 40))
    # cloud totals equal the configured weights, one unit per drawn point
    assert np.array_equal(a.model.init_weights, [40.0, 40.0])


def test_scatter_points_respect_the_domain():
    spec = parse_config(SCATTER.replace("scatter_sigma = 1.5",
                                        "scatter_sigma = 50"))
    pts = spec.scatter_points.reshape(-1, 2)
    assert np.all(pts >= 0.0) and np.all(pts <= 10.0)


def test_scatter_key_validation():
    with pytest.raises(ConfigError, match="scatter_count"):
        parse_config(SCATTER.replace("scatter_count = 40", "scatter_count = 0"))
    with pytest.raises(ConfigError, match="scatter_sigma"):
        parse_config(SCATTER.replace("scatter_sigma = 1.5", "scatter_sigma = -1"))
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config(SCATTER + "init_means = 1 1 2 2\n")
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config(TRAJ + "scatter_sigma = 2\n")


# ---------------------------------------------------------------------------
# command line

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_trajectory_writes_reproducible_csv(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", TRAJ)
    assert main(["trajectory", "--config", cfg,
                 "--out", str(tmp_path / "a")]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main(["trajectory", "--config", cfg,
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b
    assert main(["trajectory", "--config", cfg, "--seed", "99",
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "trajectory.csv").read_bytes() != a
    head = a.decode().splitlines()
    assert head[0] == "# experiment = trajectory"
    assert "n,x1,x2,b" in head


@pytest.mark.parametrize("n_steps", [0, 5])
def test_cli_trajectory_strides_past_int64_write_step_0(tmp_path, n_steps):
    # the writer counts the steps of the rows in int64, and a stride of
    # 2**63 or more once raised a TypeError there, even with no steps
    def rows(stride):
        cfg = write(tmp_path, "run.cfg", bad_traj(n_steps=n_steps, stride=stride))
        out = tmp_path / str(stride)
        assert main(["trajectory", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "trajectory.csv").read_text()
        return [line for line in text.splitlines() if not line.startswith("#")]

    want = rows(n_steps + 1)
    assert len(want) == 2 and want[1].startswith("0,")
    for stride in (2**63, 10**20):
        assert rows(stride) == want


# more rows than the engine records in one chunk, so a chunk edge is crossed
_CHUNK = exdyn.harness._CHUNK
_PAST_BLOCK = _CHUNK + 3
_THREE_IN_2D = """\
experiment = trajectory
seed = 12
k = 3
lambda = 0.02
domain = 0 1 -1 2
init_means = 0.1 0.2 0.5 0.5 0.9 -0.3
init_weights = 1 2 3
"""
# the third weight starts subnormal and, while its mean at the edge waits 17
# steps for a win, decays to 0.0; a fifth of the weights fall below 1e-4,
# where the cells have an exponent.  Two means are negative
_STARVED = """\
experiment = trajectory
seed = 3
k = 3
lambda = 3
domain = -1 2
init_means = -0.9 1.9 -1
init_weights = 1 1 1e-310
"""
# every coordinate negative
_NEGATIVE_BOX = """\
experiment = trajectory
seed = 8
k = 2
lambda = 0.05
domain = -3 -1 -2 -0.5
init_means = -2.5 -1.5 -1.5 -0.75
init_weights = 1 1
"""


@pytest.mark.parametrize("config", [
    pytest.param(f"preset = fig3-left\nn_steps = {_PAST_BLOCK}\nstride = 1\n",
                 id="fig3-left"),
    pytest.param(_THREE_IN_2D + f"n_steps = {3 * _PAST_BLOCK}\nstride = 3\n",
                 id="k3-2d"),
    pytest.param("preset = fig3-left\nn_steps = 0\n", id="no-steps"),
    pytest.param(f"preset = fig3-left\nn_steps = {2 * _CHUNK}\nstride = 1\n",
                 id="whole-chunks"),
    pytest.param(f"preset = fig3-left\nn_steps = {4 * _CHUNK}\nstride = {_CHUNK + 5}\n",
                 id="chunks-without-rows"),
    pytest.param(f"preset = fig3-left\nn_steps = {2 * _CHUNK + 5}\nstride = 3\n",
                 id="stride-3-pair"),
    pytest.param(_STARVED + f"n_steps = {_PAST_BLOCK}\nstride = 1\n",
                 id="k3-weights-underflow"),
    pytest.param(_NEGATIVE_BOX + f"n_steps = {_PAST_BLOCK}\nstride = 2\n",
                 id="negative-box"),
])
def test_trajectory_csv_cells_format_the_record(tmp_path, config):
    # every cell is str(step) or repr(float(x)) of the record's value, with
    # x1, x2, b for the 1-D pair and every mean coordinate, then every
    # weight, otherwise.  The writer formats the engine's states chunk by
    # chunk: a stride past the chunk leaves chunks without rows, and
    # stride 3 puts the rows at a different offset in each chunk.  Weights
    # that underflow take the writer's repr fallback, and negative means
    # its signs
    spec = parse_config(config, default_experiment="trajectory")
    assert run("trajectory", spec, tmp_path) == (0, None)
    rec = run_trajectory(spec.model, spec.n_steps, spec.stride)
    if spec.model.k == 2 and spec.model.domain.dim == 1:
        values = np.column_stack([rec.means[:, 0, 0], rec.means[:, 1, 0],
                                  rec.boundaries])
    else:
        values = np.column_stack([rec.means.reshape(len(rec.means), -1),
                                  rec.weights])
    want = [",".join([str(int(n)), *(repr(float(x)) for x in row)])
            for n, row in zip(rec.steps, values)]
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == spec.n_steps // spec.stride + 1
    assert data == want


def _traced_peak(spec, outdir):
    tracemalloc.start()
    try:
        assert run("trajectory", spec, outdir) == (0, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_csv_memory_does_not_grow_with_n_steps(tmp_path):
    # the writer holds one chunk of states and its text at a time; a record
    # of the run would take 32 B per row, 4.7 MB more at 40 chunks than at 4
    def spec(n_steps):
        return parse_config(f"preset = fig3-left\nn_steps = {n_steps}\nstride = 1\n",
                            default_experiment="trajectory")
    run("trajectory", spec(10), tmp_path)  # builds the step loop outside the trace
    short = _traced_peak(spec(4 * _CHUNK), tmp_path)
    long = _traced_peak(spec(40 * _CHUNK), tmp_path)
    assert long - short < 1 << 20, (short, long)


_SMALL_SUITE = """\
preset = theorem-suite
n_steps = 20000
window = 2000
check_stride = 100
"""
# small runs of every experiment a block size reaches: 8 CSVs in all.  The
# two trajectories put 4 and 10 cells in a row of the writer's sub-blocks
_BLOCK_RUNS = {
    "snapshot": "preset = fig1\nn_steps = 300\ngrid_resolution = 64\n",
    "trajectory": "preset = fig3-left\nn_steps = 2000\nstride = 3\n",
    "trajectory-k3-2d": _THREE_IN_2D + "n_steps = 2000\nstride = 2\n",
    "variance-curve": "preset = fig4\nlambda_grid = 0.05 0.2\nn_list = 10 100 inf\n"
                      "replicas = 301\n",
    "properties": _SMALL_SUITE,
    "properties-zero-decay": _SMALL_SUITE + "lambda = 0\nnegative_control = false\n",
}


def _block_run_outputs(outdir):
    outputs = {}
    for name, config in _BLOCK_RUNS.items():
        spec = parse_config(config)
        assert run(spec.experiment, spec, outdir / name) == (0, None)
        for path in sorted((outdir / name).iterdir()):
            outputs[f"{name}/{path.name}"] = path.read_bytes()
    return outputs


def test_outputs_do_not_depend_on_any_block_size(tmp_path, monkeypatch):
    # every engine, tracker and classifier works in blocks of a fixed size;
    # small odd sizes put block edges inside every run, in the middle of a
    # stride, a replica tile, a variance slice and a grid row, and across
    # the snapshot's 2-D draws, and no byte of any CSV may move
    want = _block_run_outputs(tmp_path / "default")
    assert len(want) == 8
    for name, size in [("_CHUNK", 7), ("_ENSEMBLE_CHUNK", 5), ("_DRAW_TILE", 3),
                       ("_VAR_SLICE", 5), ("_ASSIGN_CHUNK", 64)]:
        monkeypatch.setattr(exdyn.harness, name, size)
    # 2 rows of n,x1,x2,b per sub-block of the trajectory writer, and 1 of
    # the 10 cells of three means in 2-D and their weights
    monkeypatch.setattr(exdyn.rowtext, "_CELLS", 11)
    # harness imports _ASSIGN_CHUNK by name, so geometry's needs its own patch
    monkeypatch.setattr(exdyn.geometry, "_ASSIGN_CHUNK", 64)
    # every step loop picks its winner by the running minimum, none by the
    # unrolled tree; the loops compiled either way must not be mixed
    monkeypatch.setattr(exdyn.harness, "_TREE_K", 0)
    exdyn.harness._step_loop.cache_clear()
    try:
        got = _block_run_outputs(tmp_path / "small-blocks")
    finally:
        exdyn.harness._step_loop.cache_clear()
    assert [name for name in want if got[name] != want[name]] == []
    # the AR(1) surrogate reaches no CLI output, so compare it directly
    want = simulate_ar1(0.05, 100, substream(3))
    monkeypatch.setattr(exdyn.ar1, "_NORMAL_BLOCK", 7)
    assert simulate_ar1(0.05, 100, substream(3)).tobytes() == want.tobytes()


def test_float_texts_tell_signed_zeros_apart():
    # a repeated value reuses the text above it only if its bits are equal;
    # 0.0 == -0.0, so == would print the second as 0.0
    block = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 2.0], [0.0, 2.0]])
    assert b"".join(exdyn.rowtext.csv_rows([block], 1)) == \
        b"0,0.0,1.0\n1,-0.0,1.0\n2,-0.0,2.0\n3,0.0,2.0\n"
    column = np.array([[1.5], [1.5], [0.1], [0.1], [1.5]])
    assert b"".join(exdyn.rowtext.csv_rows([column], 5)) == \
        b"0,1.5\n5,1.5\n10,0.1\n15,0.1\n20,1.5\n"


def test_cli_single_category_column_names(tmp_path):
    cfg = write(tmp_path, "one.cfg", textwrap.dedent("""\
        experiment = trajectory
        seed = 2
        k = 1
        lambda = 0.0
        domain = 0 1
        init_means = 0.1
        init_weights = 1000
        n_steps = 20
    """))
    assert main(["trajectory", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "n,x1_1,w1"


def test_cli_usage_failures(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", TRAJ)
    assert main([]) == 1
    assert main(["trajectory"]) == 1
    assert main(["trajectory", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert main(["snapshot", "--config", cfg]) == 1          # experiment mismatch
    assert main(["trajectory", "--config", cfg, "--seed", "x"]) == 1
    capsys.readouterr()


def test_cli_out_collision_is_a_runtime_error(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", TRAJ)
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["trajectory", "--config", cfg, "--out", str(blocker)]) == 2
    assert "blocked" in capsys.readouterr().err


def test_cli_property_mismatch_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "frozen.cfg", textwrap.dedent("""\
        experiment = properties
        seed = 3
        k = 2
        lambda = 0.0
        domain = 0 1
        init_means = 0.3 0.8
        init_weights = 5 5
        n_steps = 10
    """))
    assert main(["properties", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "property suite mismatch" in capsys.readouterr().err
    assert (tmp_path / "properties.csv").exists()


@pytest.mark.parametrize("replacements,field", [
    ({"k": "3", "init_means": "0.2 0.5 0.8", "init_weights": "1 1 1"}, "k"),
    ({"domain": "0 2"}, "domain"),
    ({"n_steps": "7"}, "n_steps"),
    ({"lambda": "0.0", "n_steps": "15"}, "n_steps"),
    ({"lambda": "0.0", "n_steps": "0"}, "n_steps"),
], ids=["three-categories", "wider-domain", "short-run", "zero-decay-15-steps",
        "zero-decay-0-steps"])
def test_cli_properties_rejects_what_the_suite_cannot_run(
        tmp_path, capsys, no_run, replacements, field):
    # rejected as a configuration error before any simulation starts
    text = "preset = theorem-suite\n" + "".join(
        f"{k} = {v}\n" for k, v in replacements.items())
    with pytest.raises(ConfigError) as err:
        run("properties", parse_config(text), tmp_path / "a")
    assert err.value.field == field
    cfg = write(tmp_path, "suite.cfg", text)
    assert main(["properties", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert f"(field: {field})" in capsys.readouterr().err
    assert not (tmp_path / "b" / "properties.csv").exists()


@pytest.mark.parametrize("command,text,field", [
    ("ar1-table", "lambda_grid = 1e-17\n", "lambda_grid"),
    ("variance-curve", "lambda_grid = 1e-17\nn_list = 10\nreplicas = 4\n", "lambda_grid"),
    ("variance-curve", "lambda_grid = 1e-320\nn_list = inf\nreplicas = 4\n", "lambda_grid"),
    ("properties", "preset = theorem-suite\nlambda = 1e-17\n", "lambda"),
], ids=["ar1-table", "variance-curve", "variance-curve-equilibrium", "properties"])
def test_cli_rejects_decay_rates_that_decay_nothing(tmp_path, capsys, no_run,
                                                    command, text, field):
    # exp(-1e-17) rounds to 1.0: the closed forms then divide by zero, and
    # the equilibrium horizon 400 / 1e-320 overflows.  The rate is refused
    # as a configuration error before any simulation starts
    cfg = write(tmp_path, "tiny.cfg", f"experiment = {command}\nseed = 1\n" + text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {field})" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_zero_decay_properties_pass(tmp_path):
    cfg = write(tmp_path, "anchor.cfg", textwrap.dedent("""\
        experiment = properties
        seed = 21
        k = 1
        lambda = 0.0
        domain = 0 1
        init_means = 0.1
        init_weights = 1000
        n_steps = 10000
    """))
    assert main(["properties", "--config", cfg, "--out", str(tmp_path)]) == 0
    body = (tmp_path / "properties.csv").read_text()
    assert "macqueen-cvt" in body


def test_cli_ar1_table_values(tmp_path):
    lam = math.log(2.0)
    cfg = write(tmp_path, "table.cfg",
                f"experiment = ar1-table\nseed = 1\nlambda_grid = {lam!r}\n")
    assert main(["ar1-table", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ar1_table.csv").read_text().splitlines()
    assert lines[-1].split(",")[0] == repr(lam)
    _, K, sigma, var = (float(x) for x in lines[-1].split(","))
    assert (K, sigma) == boundary_params(lam)
    assert var == variance_of_Y(lam, math.inf)


def test_cli_variance_curve_columns(tmp_path):
    cfg = write(tmp_path, "curve.cfg", textwrap.dedent("""\
        experiment = variance-curve
        seed = 5
        lambda_grid = 0.2
        n_list = 0 10 inf
        replicas = 64
    """))
    assert main(["variance-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "variance_curve.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [int(r[1]) for r in rows] == [0, 10, equilibrium_steps(0.2)]
    assert float(rows[0][2]) == 0.0
    assert float(rows[1][4]) == variance_of_Y(0.2, 10)
    assert float(rows[2][4]) == variance_of_Y(0.2, math.inf)


def test_cli_snapshot_writes_three_files(tmp_path):
    # a box 7 wide and 1e-3 high puts minus signs and exponents in the
    # cells; every cell is fmt of the value figure1_snapshot reports
    text = textwrap.dedent("""\
        experiment = snapshot
        seed = 7
        k = 3
        lambda = 0.1
        domain = -2 5 0 1e-3
        init_means = -1.5 2e-4 0.5 5e-4 4 9e-4
        init_weights = 5 5 5
        n_steps = 100
        grid_resolution = 32
    """)
    cfg = write(tmp_path, "snap.cfg", text)
    assert main(["snapshot", "--config", cfg, "--out", str(tmp_path)]) == 0
    spec = parse_config(text)
    snap = figure1_snapshot(spec.model, spec.n_steps, spec.prune_threshold,
                            scatter_points=spec.scatter_points,
                            grid_resolution=spec.grid_resolution)
    want = {
        "exemplars.csv": ("x,y,weight,category", [
            [fmt(p[0]), fmt(p[1]), fmt(w), str(int(c))]
            for p, w, c in zip(snap.positions, snap.weights, snap.categories)]),
        "means.csv": ("category,x,y,weight", [
            [str(j), fmt(m[0]), fmt(m[1]), fmt(w)]
            for j, (m, w) in enumerate(zip(snap.means, snap.category_weights))]),
        "boundaries.csv": ("x0,y0,x1,y1", [
            [fmt(s[0, 0]), fmt(s[0, 1]), fmt(s[1, 0]), fmt(s[1, 1])]
            for s in snap.boundary_segments]),
    }
    cells = []
    for name, (header, rows) in want.items():
        text = (tmp_path / name).read_text()
        assert text.startswith("# experiment = snapshot")
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines[0] == header
        assert [line.split(",") for line in lines[1:]] == rows
        cells += [cell for row in rows for cell in row]
    assert sorted({int(c) for c in snap.categories}) == [0, 1, 2]
    assert len(snap.boundary_segments) > 32
    assert any("e-" in cell for cell in cells) and any(cell[0] == "-" for cell in cells)


def test_run_rejects_unknown_subcommand():
    spec = parse_config(TRAJ)
    with pytest.raises(ConfigError):
        run("frobnicate", spec)
