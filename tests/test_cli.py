import inspect
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from kinterp import cli
from kinterp.cli import ConfigError, parse_config, parse_metadata_config
from kinterp.diagnostics import read_report_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def base_cfg(tmp_path, kind="lebesgue_trace", family="matern32", extra_target="",
             scheme="equispaced_nested", levels="4, 9, 19", grid=65, svg="false",
             prefix=None):
    prefix = prefix or str(tmp_path / "out" / "run")
    return write_cfg(tmp_path, f"""
[experiment]
kind = {kind}

[kernel]
family = {family}
gamma = 1.0
dim = 1

[domain]
lower = 0.0
upper = 1.0

[design]
scheme = {scheme}
levels = {levels}

[grid]
points_per_axis = {grid}
{extra_target}
[output]
prefix = {prefix}
svg = {svg}
""")


TARGET_ABS = """
[target]
name = abs_power
center = 0.5
power = 1.0
"""


def test_validate_ok(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    assert cli.main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "kernel.family = matern32" in out


def test_unknown_kernel_family_names_field(tmp_path, capsys):
    cfg = base_cfg(tmp_path, family="matern99")
    assert cli.main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "kernel.family" in err and "matern99" in err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = base_cfg(tmp_path) + ""
    text = Path(cfg).read_text().replace("[kernel]", "[kernel]\nshape = 3")
    bad = write_cfg(tmp_path, text, "bad.cfg")
    assert cli.main(["validate", bad]) == 1
    assert "kernel.shape" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nothere.cfg")]) == 1


def test_levels_must_increase(tmp_path):
    cfg = base_cfg(tmp_path, scheme="equispaced_levels", levels="9, 9")
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(cfg)


def test_grid_too_coarse(tmp_path):
    cfg = base_cfg(tmp_path, grid=16)
    with pytest.raises(ConfigError, match="points_per_axis"):
        parse_config(cfg)


def test_nested_levels_chain_validated(tmp_path):
    cfg = base_cfg(tmp_path, scheme="equispaced_nested", levels="4, 10")
    with pytest.raises(ConfigError, match="2n"):
        parse_config(cfg)


def test_interp_once_single_node_constant(tmp_path):
    cfg = base_cfg(tmp_path, kind="interp_once", family="matern12",
                   scheme="equispaced_levels", levels="1", extra_target="""
[target]
name = constant
value = 2.0
""")
    assert cli.main(["run", cfg]) == 0
    text = (tmp_path / "out" / "run.csv").read_text().splitlines()
    assert text[0] == "x1,data,coefficient"
    assert text[1].split(",") == ["0.5", "2.0", "2.0"]


def test_lebesgue_trace_rows_and_metadata(tmp_path):
    cfg = base_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    rows, meta = read_report_csv(tmp_path / "out" / "run.csv")
    assert [int(r["n"]) for r in rows] == [4, 9, 19]
    assert all(r["lebesgue_constant"] >= 1.0 - 1e-9 for r in rows)
    assert all(r["jitter_flag"] == "none" for r in rows)
    assert meta["experiment.kind"] == "lebesgue_trace"


def test_metadata_round_trips_to_config(tmp_path):
    cfg_path = base_cfg(tmp_path, extra_target=TARGET_ABS, kind="convergence")
    cfg = parse_config(cfg_path)
    code, written = cli.run(cfg)
    assert code == 0
    _, meta = read_report_csv(written[0])
    rebuilt = parse_metadata_config(meta)
    assert rebuilt == cfg


def test_rerun_is_byte_identical(tmp_path):
    cfg = base_cfg(tmp_path, extra_target=TARGET_ABS, kind="convergence", svg="true")
    assert cli.main(["run", cfg]) == 0
    first_csv = (tmp_path / "out" / "run.csv").read_bytes()
    first_svg = (tmp_path / "out" / "run.svg").read_bytes()
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "out" / "run.csv").read_bytes() == first_csv
    assert (tmp_path / "out" / "run.svg").read_bytes() == first_svg


def test_convergence_slopes_in_metadata(tmp_path):
    cfg = base_cfg(tmp_path, extra_target=TARGET_ABS, kind="convergence")
    assert cli.main(["run", cfg]) == 0
    _, meta = read_report_csv(tmp_path / "out" / "run.csv")
    assert "convergence.sup_slope" in meta
    float(meta["convergence.sup_slope"])  # parses as a number here


def test_norm_growth_classification(tmp_path):
    cfg = base_cfg(tmp_path, kind="norm_growth", extra_target=TARGET_ABS,
                   family="matern52", levels="8, 17, 35, 71")
    assert cli.main(["run", cfg]) == 0
    _, meta = read_report_csv(tmp_path / "out" / "run.csv")
    assert meta["norm_growth.classification"] in ("bounded-like", "diverging-like",
                                                  "inconclusive")


def test_norm_growth_rejects_unnested_scheme(tmp_path):
    cfg = base_cfg(tmp_path, kind="norm_growth", extra_target=TARGET_ABS,
                   scheme="equispaced_levels")
    with pytest.raises(ConfigError, match="nested"):
        parse_config(cfg)


def test_decay_csv_schema(tmp_path):
    cfg = base_cfg(tmp_path, kind="decay", scheme="equispaced_levels",
                   levels="33, 65", grid=2049)
    assert cli.main(["run", cfg]) == 0
    lines = [l for l in (tmp_path / "out" / "run.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0].split(",") == ["n", "node_index", "nu_hat", "c_hat",
                                   "r_squared", "c_env", "n_points", "floor"]
    first = lines[1].split(",")
    assert int(first[0]) == 33 and float(first[2]) > 0


def test_greedy_2d_trace(tmp_path):
    cfg = write_cfg(tmp_path, f"""
[experiment]
kind = lebesgue_trace

[kernel]
family = matern32
gamma = 10.0
dim = 2

[domain]
lower = 0.0, 0.0
upper = 1.0, 1.0

[design]
scheme = greedy_low_discrepancy
candidates = 2000
levels = 10, 20, 40

[grid]
points_per_axis = 65

[output]
prefix = {tmp_path}/sq
""")
    assert cli.main(["run", cfg]) == 0
    rows, _ = read_report_csv(tmp_path / "sq.csv")
    assert [int(r["n"]) for r in rows] == [10, 20, 40]
    assert all(r["sampling_condition"] == "n/a" for r in rows)
    assert all(np.isfinite(r["lebesgue_constant"]) for r in rows)


def test_exit_2_when_every_level_fails(tmp_path, monkeypatch):
    from kinterp import interpolation
    from kinterp.interpolation import FactorizationError

    def boom(K):
        raise FactorizationError("forced by test")

    monkeypatch.setattr(interpolation, "factorize", boom)
    cfg = base_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 2
    rows, _ = read_report_csv(tmp_path / "out" / "run.csv")
    assert all(r["jitter_flag"] == "failed" for r in rows)


TARGET_ZERO = """
[target]
name = constant
value = 0.0
"""


def _with_output(cfg, lines):
    path = Path(cfg)
    path.write_text(path.read_text().replace("[output]\n", "[output]\n" + lines))
    return cfg


@pytest.mark.parametrize("kind, scale", [("convergence", ""), ("norm_growth", "yscale = log\n")])
def test_levels_a_log_axis_cannot_show_are_left_out_of_the_chart(tmp_path, capsys, kind,
                                                                   scale):
    # the zero target is reproduced exactly: every sup error (on the log-log
    # convergence chart) and every native norm is 0.0, which no log axis can
    # show. The run still writes its CSV, with the bytes of a run without
    # the chart, names the levels on one stderr line and exits 0.
    cfg = _with_output(base_cfg(tmp_path, kind=kind, extra_target=TARGET_ZERO, svg="true"),
                       scale)
    assert cli.main(["run", cfg]) == 0
    out, err = capsys.readouterr()
    assert out == f"wrote {tmp_path / 'out' / 'run.csv'}\n"
    assert err == "note: the chart leaves out n = 4, 9, 19, zero or negative on a log axis; " \
                  "no SVG written\n"
    assert not (tmp_path / "out" / "run.svg").exists()
    csv = (tmp_path / "out" / "run.csv").read_text()
    plain = tmp_path / "plain"
    plain.mkdir()
    cfg = _with_output(base_cfg(plain, kind=kind, extra_target=TARGET_ZERO, svg="false",
                                prefix=str(tmp_path / "out" / "run")), scale)
    assert cli.main(["run", cfg]) == 0
    assert (tmp_path / "out" / "run.csv").read_text() == csv.replace(
        "# output.svg = true", "# output.svg = false")
    column = "sup_error" if kind == "convergence" else "native_norm"
    assert [row[column] for row in read_report_csv(tmp_path / "out" / "run.csv")[0]] == [0.0] * 3


def test_chart_keeps_the_levels_a_log_axis_can_show(tmp_path, capsys, monkeypatch):
    measure = cli.dg.measure_levels

    def zero_second_norm(*args, **kwargs):
        rows = measure(*args, **kwargs)
        rows[1]["native_norm"] = 0.0
        return rows

    monkeypatch.setattr(cli.dg, "measure_levels", zero_second_norm)
    cfg = _with_output(base_cfg(tmp_path, kind="norm_growth", extra_target=TARGET_ABS,
                                svg="true"), "yscale = log\n")
    assert cli.main(["run", cfg]) == 0
    assert capsys.readouterr().err == (
        "note: the chart leaves out n = 9, zero or negative on a log axis\n")
    root = ET.fromstring((tmp_path / "out" / "run.svg").read_bytes())
    assert sum(el.tag.endswith("circle") for el in root.iter()) == 2


@pytest.mark.parametrize("kind,scheme", [("convergence", "equispaced_nested"),
                                         ("convergence", "equispaced_levels"),
                                         ("norm_growth", "equispaced_nested")])
def test_one_failed_level_is_skipped(tmp_path, monkeypatch, kind, scheme):
    from kinterp import interpolation
    from kinterp.diagnostics import classify_norm_growth, error_slopes
    from kinterp.interpolation import FactorizationError

    factorize = interpolation.factorize

    def fail_at_23(K):
        if K.order == 23:
            raise FactorizationError("forced by test")
        return factorize(K)

    monkeypatch.setattr(interpolation, "factorize", fail_at_23)
    cfg = base_cfg(tmp_path, kind=kind, scheme=scheme, extra_target=TARGET_ABS,
                   levels="5, 11, 23, 47", grid=257)
    assert cli.main(["run", cfg]) == 0
    rows, meta = read_report_csv(tmp_path / "out" / "run.csv")
    assert [int(r["n"]) for r in rows] == [5, 11, 23, 47]
    assert [r["jitter_flag"] == "failed" for r in rows] == [False, False, True, False]
    if kind == "convergence":
        for key, slope in error_slopes(rows).items():
            assert np.isfinite(slope)
            assert meta[f"convergence.{key}"] == repr(slope)
    else:
        label, slope = classify_norm_growth(rows)
        assert meta["norm_growth.classification"] == label
        assert meta["norm_growth.slope"] == repr(slope)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_round_trips_through_metadata(path):
    cfg = parse_config(path)
    assert parse_metadata_config(cli.config_metadata(cfg)) == cfg


def test_plot_from_emitted_csv(tmp_path):
    cfg = base_cfg(tmp_path)
    assert cli.main(["run", cfg]) == 0
    out_svg = str(tmp_path / "lam.svg")
    spec = f"x=n,y=lebesgue_constant,xscale=log,out={out_svg}"
    assert cli.main(["plot", str(tmp_path / "out" / "run.csv"), spec]) == 0
    root = ET.fromstring(Path(out_svg).read_bytes())
    assert root.tag.endswith("svg")


def test_plot_unknown_column(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    cli.main(["run", cfg])
    spec = f"x=n,y=bogus,out={tmp_path}/x.svg"
    assert cli.main(["plot", str(tmp_path / "out" / "run.csv"), spec]) == 1
    assert "bogus" in capsys.readouterr().err


def test_plot_names_the_non_numeric_column(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    cli.main(["run", cfg])
    spec = f"x=n,y=jitter_flag,out={tmp_path}/x.svg"
    assert cli.main(["plot", str(tmp_path / "out" / "run.csv"), spec]) == 1
    assert capsys.readouterr().err == "config error: column 'jitter_flag' is not numeric\n"


@pytest.mark.parametrize("text,spec,names", [
    ("n,h\n4,0.25\n9,0.1\n", ",xscale=loog", "'loog'"),
    ("# kernel.family = matern32\n", "", "no data rows"),
    ("n,h\n4,0.25\n9,abc\n", "", "'abc'"),
], ids=["unknown-axis-scale", "metadata-lines-only", "non-numeric-cell"])
def test_plot_of_a_bad_input_is_one_config_error_line(tmp_path, capsys, text, spec, names):
    # each of these once ended in a Python traceback
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(text)
    out_svg = tmp_path / "p.svg"
    assert cli.main(["plot", str(csv_path), f"x=n,y=h,out={out_svg}{spec}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err and err.count("\n") == 1
    assert not out_svg.exists()


def test_plot_of_a_missing_csv_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert cli.main(["plot", str(missing), f"x=n,y=h,out={tmp_path}/p.svg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1


def test_plot_creates_the_directory_of_its_output(tmp_path):
    cfg = base_cfg(tmp_path)
    cli.main(["run", cfg])
    out_svg = tmp_path / "charts" / "deeper" / "p.svg"
    assert cli.main(["plot", str(tmp_path / "out" / "run.csv"), f"x=n,y=h,out={out_svg}"]) == 0
    assert ET.fromstring(out_svg.read_bytes()).tag.endswith("svg")


@pytest.mark.parametrize("command", ["run", "plot"])
def test_output_directory_that_cannot_be_made_is_one_error_line(tmp_path, capsys, command):
    # the output's parent would be a directory below a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "run":
        argv = ["run", base_cfg(tmp_path, prefix=str(blocker / "sub" / "run"))]
    else:
        cli.main(["run", base_cfg(tmp_path)])
        capsys.readouterr()
        argv = ["plot", str(tmp_path / "out" / "run.csv"), f"x=n,y=h,out={blocker}/sub/p.svg"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and err.count("\n") == 1


def test_plot_bad_spec(tmp_path, capsys):
    cfg = base_cfg(tmp_path)
    cli.main(["run", cfg])
    assert cli.main(["plot", str(tmp_path / "out" / "run.csv"), "nonsense"]) == 1


def test_subprocess_entry_point_with_thread_env(tmp_path):
    cfg = base_cfg(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["KINTERP_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-m", "kinterp.cli", "validate", cfg],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "experiment.kind = lebesgue_trace" in proc.stdout


def openblas_threads() -> dict:
    """The thread count of each OpenBLAS mapped into this process, keyed by
    the directory it was loaded from (numpy's wheel ships its copy in
    numpy.libs, scipy's in scipy.libs)."""
    import ctypes
    import os

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[os.path.basename(os.path.dirname(path))] = getattr(lib, symbol)()
                break
    return threads


# Run in a fresh interpreter: prints openblas_threads() after `import
# kinterp`, and the OPENBLAS_NUM_THREADS the process sees then.
_OPENBLAS_THREADS = ("import json, os\nimport kinterp\n" + inspect.getsource(openblas_threads)
                     + 'print(json.dumps({"threads": openblas_threads(),'
                       ' "env": os.environ.get("OPENBLAS_NUM_THREADS")}))\n')


def _blas_threads(**env_vars):
    """(threads by library directory, OPENBLAS_NUM_THREADS after import) of
    a fresh interpreter that imports kinterp; a variable given as None is
    removed from the environment, and so are the OMP/MKL/numexpr counts."""
    import json

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for key, value in env_vars.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    proc = subprocess.run([sys.executable, "-c", _OPENBLAS_THREADS],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout)
    return result["threads"], result["env"]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the libraries mapped into the process")
def test_kinterp_threads_pins_every_openblas_at_import():
    # KINTERP_THREADS wins over a BLAS thread count the caller exported,
    # because kinterp applies it before numpy loads OpenBLAS
    threads, env = _blas_threads(OPENBLAS_NUM_THREADS="3", KINTERP_THREADS="1")
    if not threads:
        pytest.skip("no OpenBLAS mapped into the process")
    assert threads == dict.fromkeys(threads, 1)
    assert env == "1"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the libraries mapped into the process")
@pytest.mark.parametrize("exported, kinterp_threads, env", [
    (None, "2", "2"), ("3", "2", "2"), (None, None, None), ("1", None, "1"), ("2", None, "2")])
def test_numpy_blas_takes_one_thread_and_scipy_lapack_the_pinned_count(
        exported, kinterp_threads, env):
    # numpy is loaded with OPENBLAS_NUM_THREADS=1, so its OpenBLAS (the scan's
    # GEMMs, one per tile worker) takes one thread, and the variable is then
    # restored exactly: scipy's OpenBLAS (potrf, trtrs), loaded after it,
    # takes the pinned or inherited count, and so does any later child
    threads, seen = _blas_threads(OPENBLAS_NUM_THREADS=exported,
                                  KINTERP_THREADS=kinterp_threads)
    assert seen == env
    if set(threads) != {"numpy.libs", "scipy.libs"}:
        pytest.skip(f"not one OpenBLAS each from the numpy and scipy wheels: {threads}")
    assert threads["numpy.libs"] == 1
    if env is not None and len(os.sched_getaffinity(0)) >= int(env):
        assert threads["scipy.libs"] == int(env)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the libraries mapped into the process")
def test_the_test_process_runs_numpy_blas_on_one_thread():
    # conftest imports kinterp before any test module imports numpy, so the
    # tests' scan GEMMs run one thread per tile worker, as the CLI's do
    threads = openblas_threads()
    if "numpy.libs" not in threads:
        pytest.skip(f"no OpenBLAS from the numpy wheel mapped into the process: {threads}")
    assert threads["numpy.libs"] == 1


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the libraries mapped into the process")
@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_invalid_kinterp_threads_leaves_the_inherited_counts(value):
    # one BLAS thread exported by the caller stays one: an invalid
    # KINTERP_THREADS is named on stderr and overrides nothing
    import json

    env = {k: v for k, v in os.environ.items() if k not in ("MKL_NUM_THREADS",
                                                          "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", KINTERP_THREADS=value)
    proc = subprocess.run([sys.executable, "-c", _OPENBLAS_THREADS],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stderr == (f"kinterp: KINTERP_THREADS={value} is not a positive integer; "
                           "the inherited BLAS thread counts stay\n")
    threads = json.loads(proc.stdout)["threads"]
    if not threads:
        pytest.skip("no OpenBLAS mapped into the process")
    assert threads == dict.fromkeys(threads, 1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="sets the child's CPU affinity")
def test_kinterp_threads_above_the_usable_cpus_is_named_on_stderr():
    # the child pins itself to one CPU before it imports kinterp; OpenBLAS
    # would then take one thread, not the two asked for
    code = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import kinterp\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    stderr = {}
    for threads in ("1", "2"):
        env["KINTERP_THREADS"] = threads
        stderr[threads] = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                         text=True, env=env, check=True).stderr
    assert stderr == {
        "1": "",
        "2": "kinterp: KINTERP_THREADS=2 exceeds the 1 usable CPU(s); BLAS takes fewer "
             "threads, so output bytes may differ\n",
    }


def test_target_free_experiments_do_not_require_target(tmp_path):
    cfg = base_cfg(tmp_path, kind="convergence")  # no [target] section
    with pytest.raises(ConfigError, match="target.name"):
        parse_config(cfg)
    cfg2 = base_cfg(tmp_path, kind="lebesgue_trace")
    parse_config(cfg2)  # fine without a target


def test_w21_kernel_uses_domain_interval(tmp_path):
    cfg = write_cfg(tmp_path, f"""
[experiment]
kind = lebesgue_trace

[kernel]
family = w21
dim = 1

[domain]
lower = -1.0
upper = 2.0

[design]
scheme = equispaced_levels
levels = 5, 11

[grid]
points_per_axis = 129

[output]
prefix = {tmp_path}/w21
""")
    assert cli.main(["run", cfg]) == 0
    rows, meta = read_report_csv(tmp_path / "w21.csv")
    assert meta["kernel.family"] == "w21"
    assert all(r["lebesgue_constant"] >= 1.0 - 1e-9 for r in rows)
    # native order 1: the weak-100 threshold is (b-a)/100 = 0.03
    assert rows[1]["sampling_condition"] in ("none", "weak-100", "strong-1200")


# Configs that set only the required fields (and, in 2-d and 3-d, kernel.dim).
MINIMAL_1D = {
    "experiment": {"kind": "lebesgue_trace"},
    "kernel": {"family": "matern32"},
    "domain": {"lower": "0.0", "upper": "1.0"},
    "design": {"scheme": "equispaced_nested", "levels": "4, 9, 19"},
    "output": {"prefix": "out/run"},
}
MINIMAL_2D = {
    "experiment": {"kind": "lebesgue_trace"},
    "kernel": {"family": "matern32", "dim": "2"},
    "domain": {"lower": "0.0, 0.0", "upper": "1.0, 1.0"},
    "design": {"scheme": "greedy_low_discrepancy", "levels": "10, 20"},
    "output": {"prefix": "out/run"},
}
MINIMAL_3D = {
    "experiment": {"kind": "lebesgue_trace"},
    "kernel": {"family": "matern32", "dim": "3"},
    "domain": {"lower": "0.0, 0.0, 0.0", "upper": "1.0, 1.0, 1.0"},
    "design": {"scheme": "greedy_low_discrepancy", "levels": "10, 20"},
    "output": {"prefix": "out/run"},
}


def edited_cfg(tmp_path, base, changes):
    """Write `base` with `changes` applied: {"section.key": value} sets a
    field, a value of None removes it, and a bare "section" adds that
    section empty."""
    sections = {name: dict(fields) for name, fields in base.items()}
    for name, value in changes.items():
        section, _, key = name.partition(".")
        fields = sections.setdefault(section, {})
        if key and value is None:
            del fields[key]
        elif key:
            fields[key] = value
    return write_cfg(tmp_path, "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()) + "\n"
        for section, fields in sections.items()))


_REQUIRED = ("experiment.kind", "kernel.family", "domain.lower", "domain.upper",
             "design.scheme", "design.levels", "output.prefix")

# (id, base config, changes, text the error must contain), one case per rule
_BAD_CONFIGS = [
    ("unknown-section", MINIMAL_1D, {"foo.bar": "1"}, "[foo]"),
    ("unknown-empty-section", MINIMAL_1D, {"foo": None}, "[foo]"),
    *[(f"missing-{name}", MINIMAL_1D, {name: None}, name) for name in _REQUIRED],
    ("kind-not-allowed", MINIMAL_1D, {"experiment.kind": "nosuch"}, "experiment.kind"),
    ("scheme-not-allowed", MINIMAL_1D, {"design.scheme": "nosuch"}, "design.scheme"),
    ("xscale-not-allowed", MINIMAL_1D, {"output.xscale": "nosuch"}, "output.xscale"),
    ("yscale-not-allowed", MINIMAL_1D, {"output.yscale": "nosuch"}, "output.yscale"),
    ("gamma-not-a-number", MINIMAL_1D, {"kernel.gamma": "abc"}, "kernel.gamma"),
    ("dim-not-an-int", MINIMAL_1D, {"kernel.dim": "two"}, "kernel.dim"),
    ("levels-not-ints", MINIMAL_1D, {"design.levels": "4, nine"}, "design.levels"),
    ("levels-empty", MINIMAL_1D, {"design.levels": ""}, "design.levels"),
    ("seed-not-an-int", MINIMAL_1D, {"design.seed": "x"}, "design.seed"),
    ("candidates-not-an-int", MINIMAL_1D, {"design.candidates": "x"}, "design.candidates"),
    ("grid-not-an-int", MINIMAL_1D, {"grid.points_per_axis": "x"}, "grid.points_per_axis"),
    # an explicit 0 once passed and ran on the 1-d default of 4097 points
    ("grid-of-zero-points", MINIMAL_1D, {"grid.points_per_axis": "0"}, "at least 33"),
    ("target-parameter-not-a-number", MINIMAL_1D,
     {"target.name": "abs_power", "target.power": "abc"}, "target.power"),
    ("target-parameter-not-read", MINIMAL_1D,
     {"experiment.kind": "norm_growth", "target.name": "trig", "target.power": "2.0",
      "target.center": "0.3"}, "trig reads no parameter center, power"),
    ("domain-lengths-differ", MINIMAL_1D, {"domain.lower": "0.0, 0.0"}, "domain.lower"),
    # lower has kernel.dim entries, so only the equal-length rule of Box can catch it
    ("domain-upper-shorter", MINIMAL_2D, {"domain.upper": "1.0"}, "domain.lower"),
    ("domain-dimension-not-kernel-dim", MINIMAL_2D, {"kernel.dim": None}, "kernel.dim"),
    ("domain-bounds-reversed", MINIMAL_1D,
     {"domain.lower": "1.0", "domain.upper": "0.0"}, "domain.lower"),
    # a target-free kind never built the Box: validate passed a nan bound,
    # which `run` turned into a GeometryError traceback
    ("domain-lower-nan", MINIMAL_1D, {"domain.lower": "nan"}, "domain.lower, domain.upper"),
    ("domain-upper-inf", MINIMAL_2D, {"domain.upper": "1.0, inf"}, "domain.lower, domain.upper"),
    ("domain-bounds-nan-with-target", MINIMAL_1D,
     {"experiment.kind": "norm_growth", "target.name": "trig", "domain.upper": "nan"},
     "domain.lower, domain.upper"),
    ("w21-in-2d", MINIMAL_2D, {"kernel.family": "w21"}, "kernel.dim"),
    ("greedy-pool-below-largest-level", MINIMAL_2D,
     {"design.candidates": "15"}, "design.candidates"),
    ("equispaced-nested-in-2d", MINIMAL_2D,
     {"design.scheme": "equispaced_nested", "design.levels": "4, 9"}, "design.scheme"),
    ("equispaced-levels-in-2d", MINIMAL_2D,
     {"design.scheme": "equispaced_levels"}, "design.scheme"),
    ("decay-in-2d", MINIMAL_2D, {"experiment.kind": "decay"}, "kernel.dim"),
]


@pytest.mark.parametrize("base,changes,names", [case[1:] for case in _BAD_CONFIGS],
                         ids=[case[0] for case in _BAD_CONFIGS])
def test_each_validation_rule_names_its_field(tmp_path, base, changes, names):
    parse_config(edited_cfg(tmp_path, base, {}))  # the unedited config is valid
    with pytest.raises(ConfigError) as info:
        parse_config(edited_cfg(tmp_path, base, changes))
    assert names in str(info.value)


@pytest.mark.parametrize("base,dim,points", [(MINIMAL_1D, "1", "4097"),
                                             (MINIMAL_2D, "2", "513"),
                                             (MINIMAL_3D, "3", "129")], ids=["1d", "2d", "3d"])
def test_minimal_config_metadata_holds_the_defaults(tmp_path, base, dim, points):
    md = cli.config_metadata(parse_config(edited_cfg(tmp_path, base, {})))
    assert list(md) == [
        "experiment.kind", "kernel.family", "kernel.gamma", "kernel.dim", "domain.lower",
        "domain.upper", "design.scheme", "design.seed", "design.candidates",
        "design.levels", "grid.points_per_axis", "output.prefix", "output.svg",
        "output.xscale", "output.yscale"]
    defaults = {"kernel.gamma": "1.0", "kernel.dim": dim, "design.seed": "0",
                "design.candidates": "10000", "grid.points_per_axis": points,
                "output.svg": "false", "output.xscale": "linear", "output.yscale": "linear"}
    assert {key: str(md[key]) for key in defaults} == defaults


# Configs that `run` cannot do, so `validate` must reject them as well
_RUN_WOULD_FAIL = [
    ("negative-gamma", MINIMAL_1D, {"kernel.gamma": "-1.0"}, "[kernel]"),
    ("nan-gamma", MINIMAL_1D, {"kernel.gamma": "nan"}, "[kernel]"),
    ("level-of-zero-nodes", MINIMAL_1D, {"design.levels": "0, 1, 3"}, "design.levels"),
    ("unknown-target", MINIMAL_1D, {"target.name": "nosuch"}, "[target]"),
    ("translate-combo-without-centers", MINIMAL_1D,
     {"target.name": "translate_combo"}, "centers"),
    # a nan target, or one unbounded at a node, gave nan norms and errors
    ("nan-target-value", MINIMAL_1D,
     {"target.name": "constant", "target.value": "nan"}, "value must be finite"),
    ("negative-abs-power", MINIMAL_1D,
     {"experiment.kind": "convergence", "target.name": "abs_power", "target.power": "-0.5"},
     "power must be nonnegative"),
    # an infinite bound ran to exit 0 with h = nan, q = inf and Lambda = 0.0
    ("infinite-domain-bound", MINIMAL_2D, {"domain.upper": "1.0, inf"}, "domain.upper"),
    ("negative-seed", MINIMAL_2D,
     {"design.scheme": "greedy_uniform_random", "design.seed": "-3"}, "design.seed"),
    ("decay-with-gaussian", MINIMAL_1D,
     {"experiment.kind": "decay", "kernel.family": "gaussian",
      "design.scheme": "equispaced_levels"}, "kernel.family"),
    # `run` fitted the first of several levels, ignored the rest and exited 0
    ("interp-once-of-several-levels", MINIMAL_1D,
     {"experiment.kind": "interp_once", "target.name": "constant"}, "design.levels"),
]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("base,changes,names", [case[1:] for case in _RUN_WOULD_FAIL],
                         ids=[case[0] for case in _RUN_WOULD_FAIL])
def test_validate_rejects_what_run_cannot_do(tmp_path, monkeypatch, capsys, command,
                                             base, changes, names):
    monkeypatch.chdir(tmp_path)
    cfg = edited_cfg(tmp_path, base, changes)
    assert cli.main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err


def test_target_center_takes_one_coordinate_per_axis(tmp_path, monkeypatch, capsys):
    from kinterp.geometry import Box
    from kinterp.targets import make_target

    monkeypatch.chdir(tmp_path)
    cfg = edited_cfg(tmp_path, MINIMAL_2D, {"experiment.kind": "convergence",
                                            "target.name": "abs_power",
                                            "target.center": "0.3, 0.6"})
    assert cli.main(["validate", cfg]) == 0
    assert "target.center = 0.3, 0.6" in capsys.readouterr().out
    parsed = parse_config(cfg)
    assert parse_metadata_config(cli.config_metadata(parsed))["target.params"] == {
        "center": (0.3, 0.6)}
    target = make_target("abs_power", parsed["target.params"], None, Box.unit_cube(2))
    assert target([[0.3, 0.6], [0.5, 0.5]])[0] == 0.0
    # a 1-d center reads and prints as one number
    one_d = parse_config(edited_cfg(tmp_path, MINIMAL_1D, {
        "experiment.kind": "convergence", "target.name": "smooth_step",
        "target.center": "0.3"}))
    assert cli.config_metadata(one_d)["target.center"] == "0.3"
    step = make_target("smooth_step", one_d["target.params"], None, Box.unit_cube(1))
    assert step([[0.3]])[0] == 0.5
    with pytest.raises(ConfigError, match="smooth_step center"):
        parse_config(edited_cfg(tmp_path, MINIMAL_2D, {
            "experiment.kind": "convergence", "target.name": "smooth_step",
            "target.center": "0.3, 0.6"}))


@pytest.mark.parametrize("name", ["abs_power", "kernel_translate"])
@pytest.mark.parametrize("center", ["0.3", "0.3, 0.6, 0.9"])
def test_validate_names_a_center_of_the_wrong_dimension(tmp_path, monkeypatch, capsys,
                                                         name, center):
    monkeypatch.chdir(tmp_path)
    cfg = edited_cfg(tmp_path, MINIMAL_2D, {"experiment.kind": "convergence",
                                            "target.name": name, "target.center": center})
    assert cli.main(["validate", cfg]) == 1
    assert capsys.readouterr().err == (
        "config error: [target] center must be one point of dimension 2\n")
