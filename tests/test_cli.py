import json
from fractions import Fraction

import pytest

import qrsk.dynamics as dyn
from qrsk.cli import SUITES, main
from qrsk.dynamics import ROW_ALPHA, classical_rsk_step
from qrsk.gt import zero_array


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_main_eq_ok(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run(
        ["verify", "main-eq", "--levels", "2", "--max-part", "1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suite"] == "main-eq"
    assert report["cases"] > 0 and report["failures"] == []


def test_verify_main_eq_reports_cases_by_kind(capsys):
    code, out = run(["verify", "main-eq", "--levels", "3", "--max-part", "2", "--tuples", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    expected = {
        kind: 2 * sum(dyn.main_equation_sweep(kind, j, 2, Fraction(1, 3), 1, Fraction(1, 2))
                      for j in (2, 3))
        for kind, rule in dyn.KINDS.items() if rule.exact
    }
    assert report["cases_by_kind"] == expected
    assert report["cases"] == sum(expected.values())


@pytest.fixture
def empty_replay_memos_after():
    """Empty the replay memos of `dynamics` when the test ends: laws that a patched law
    builder made must not serve a later replay in the same process."""
    yield
    for memo in dyn._REPLAY_MEMOS:
        memo.cache_clear()


def test_verify_main_eq_corrupted_is_caught(capsys, monkeypatch, empty_replay_memos_after):
    # negative control: break one island factor and expect a named failure
    orig = dyn._f_factor

    def corrupted(i, nu_bar, lam, q):
        return orig(i, nu_bar, lam, q) * (1 + q) / (1 + q / 2)

    monkeypatch.setattr(dyn, "_f_factor", corrupted)
    code, out = run(["verify", "main-eq", "--levels", "2", "--max-part", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["failures"], "the corrupted factor must produce failures"
    assert "lam" in report["failures"][0]


def test_a_replay_after_the_corrupted_run_equals_its_unmemoised_value(monkeypatch):
    # runs right after the corrupted run: a RowBeta replay at main-eq's first tuple, on
    # squares whose island laws that run built with the broken factor
    q, beta, a_j = Fraction(1, 2), Fraction(1, 3), Fraction(1)
    squares = [((0,), (1,), (1, 0)), ((0,), (1,), (0, 0))]
    memoised = {}
    for lam_bar, nu_bar, lam in squares:
        ctx = dyn.LevelUpdateContext(lam_bar, nu_bar, lam)
        for nu in dyn.level_candidates(dyn.ROW_BETA, lam, nu_bar, 1):
            memoised[lam_bar, nu_bar, lam, nu] = dyn.row_beta_prob(ctx, nu, beta, a_j, q)
    monkeypatch.setattr(dyn, "_replayed_island_law", dyn._replayed_island_law.__wrapped__)
    for (lam_bar, nu_bar, lam, nu), value in memoised.items():
        ctx = dyn.LevelUpdateContext(lam_bar, nu_bar, lam)
        assert dyn.row_beta_prob(ctx, nu, beta, a_j, q) == value, (lam_bar, nu_bar, lam, nu)


def test_verify_other_suites_quick(capsys):
    for suite, extra in [
        ("gibbs", ["--levels", "2", "--max-part", "1"]),
        ("cauchy", ["--levels", "2", "--max-part", "2"]),
        ("coupling", ["--levels", "2", "--steps", "2"]),
        ("qbinom", ["--seed", "1"]),
    ]:
        code, _ = run(["verify", suite] + extra, capsys)
        assert code == 0, suite


# small arguments per suite, and the cases per kind each must check there
SMALL_RUNS = {
    "main-eq": (["--levels", "2", "--max-part", "1"],
                {"RowAlpha": 7, "ColAlpha": 7, "RowBeta": 8, "ColBeta": 8, "PushBlockBeta": 8}),
    "gibbs": (["--levels", "2", "--max-part", "1"], {"process": 1, "uniform": 1}),
    "cauchy": (["--levels", "2", "--max-part", "2"], {"dual": 18}),
    "complementation": (["--levels", "2", "--max-part", "1"], {"j=2": 28}),
    "coupling": (["--levels", "2", "--steps", "2"], {"n=1": 2, "n=2": 2}),
    "moments": (["--steps", "1"], {"BernoulliPush k=1": 4, "BernoulliPush k=2": 2}),
    "qbinom": (["--seed", "1"], {"switch": 5, "triple sum": 5}),
    "grsk-lgv": ([], {"row": 16, "col": 16, "transfer product": 2, "transfer step": 5}),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_checks_every_case(suite, capsys):
    # a generator that drops instances changes these counts
    extra, by_kind = SMALL_RUNS[suite]
    code, out = run(["verify", suite] + extra, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["cases_by_kind"] == by_kind
    assert report["cases"] == sum(by_kind.values())
    assert report["failures"] == []
    assert 0 <= report["worst_residual"] <= report["tolerance"]
    assert report["residual"] == ("relative" if suite == "grsk-lgv" else "absolute")
    assert report["elapsed_s"] >= 0


def test_verify_complementation_corrupted_is_caught(capsys, monkeypatch):
    # negative control outside main-eq: scale the row insertion probabilities
    orig = dyn.row_beta_prob
    monkeypatch.setattr(dyn, "row_beta_prob", lambda *args: orig(*args) * Fraction(9, 10))
    code, out = run(["verify", "complementation", "--levels", "2", "--max-part", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["cases"] == 28
    assert report["failures"], "the corrupted probabilities must produce failures"
    failure = report["failures"][0]
    assert failure["kind"] == "j=2" and {"lam", "nu", "lam_bar", "nu_bar", "lhs", "rhs"} <= set(failure)
    assert report["worst_residual"] > 0


@pytest.mark.parametrize("argv, message", [
    (["main-eq", "--levels", "1"], "no cases"),
    (["complementation", "--levels", "1"], "no cases"),
    (["moments", "--steps", "-1"], "no cases"),
    (["gibbs", "--levels", "5"], "gibbs has 3 level parameters"),
])
def test_verify_that_would_check_nothing_exits_2(argv, message, capsys):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"main-eq"}))
def test_verify_float_mode_is_for_main_eq_only(suite, capsys):
    # every other suite is exact, so a float run of it would check nothing in float
    assert main(["verify", suite, "--mode", "float"]) == 2
    captured = capsys.readouterr()
    assert "main-eq, the only float suite" in captured.err and captured.out == ""


def test_simulate_deterministic(tmp_path, capsys):
    args = [
        "simulate", "row-beta", "-N", "3", "-T", "5", "--seed", "42",
        "--q", "1/2", "--beta", "1/3",
    ]
    code, _ = run(args + ["--out", str(tmp_path / "one")], capsys)
    assert code == 0
    code, _ = run(args + ["--out", str(tmp_path / "two")], capsys)
    assert code == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_simulate_particle_csv_shape(tmp_path, capsys):
    code, _ = run(
        ["simulate", "geometric-qpush", "-N", "4", "-T", "10", "--seed", "7",
         "--alpha", "3/10", "--out", str(tmp_path / "gp")],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "gp.csv").read_text().splitlines()
    assert lines[0] == "t,i,x_i"
    assert len(lines) == 1 + 40


def test_simulate_q0_replay(tmp_path, capsys):
    code, _ = run(
        ["simulate", "row-alpha", "-N", "3", "-T", "4", "--seed", "5", "--q", "0",
         "--alpha", "3/10", "--out", str(tmp_path / "ra")],
        capsys,
    )
    assert code == 0
    data = json.loads((tmp_path / "ra.json").read_text())
    arr = zero_array(3)
    for vs in data["v_draws"]:
        arr = classical_rsk_step(ROW_ALPHA, arr, tuple(vs))
    assert [list(level) for level in arr] == data["levels"]


def test_polymer_limit_report(tmp_path, capsys):
    args = [
        "polymer-limit", "--kind", "row", "-N", "1", "-T", "1",
        "--eps", "0.05", "--replicas", "100", "--seed", "3",
    ]
    code, out = run(args + ["--out", str(tmp_path / "r1.json")], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "r1.json").read_text())
    assert rep["replicas"] == 100 and rep["seed"] == 3
    entry = rep["results"][0]
    for key in ("eps", "j", "k", "t", "dynamics_mean", "polymer_mean",
                "dynamics_quartiles", "polymer_quartiles", "ks_stat"):
        assert key in entry
    code2, _ = run(args + ["--out", str(tmp_path / "r2.json")], capsys)
    assert code2 == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    assert main(["simulate", "row-beta", "--levels", "0"]) in (1, 2)


def test_mode_flag(tmp_path, capsys):
    # exact mode rejects q-geometric sampling; float main-eq verifies at 1e-9
    code = main(["simulate", "row-alpha", "--mode", "exact", "--alpha", "1/3"])
    assert code == 2
    code, _ = run(
        ["simulate", "row-beta", "--mode", "exact", "-N", "2", "-T", "3",
         "--beta", "1/3", "--beta", "1/4", "--out", str(tmp_path / "ex")],
        capsys,
    )
    assert code == 0
    code, _ = run(["verify", "main-eq", "--mode", "float", "--levels", "2",
                   "--max-part", "1"], capsys)
    assert code == 0


def test_simulate_rejects_mismatched_parameter_flags(tmp_path, capsys):
    out = ["--out", str(tmp_path / "run")]
    # both flags at once
    assert main(["simulate", "row-beta", "--alpha", "1/3", "--beta", "1/3"] + out) == 2
    assert main(["simulate", "row-alpha", "--alpha", "1/3", "--beta", "1/3"] + out) == 2
    # --beta for an alpha kind, --alpha for a beta kind, arrays and particles
    assert main(["simulate", "row-alpha", "--beta", "1/3"] + out) == 2
    assert main(["simulate", "geometric-qtasep", "--beta", "1/3"] + out) == 2
    assert main(["simulate", "col-beta", "--alpha", "1/3"] + out) == 2
    assert main(["simulate", "bernoulli-qpush", "--alpha", "1/3"] + out) == 2
    assert "takes --alpha, not --beta" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()
    # the matching flag still runs
    assert main(["simulate", "col-beta", "-T", "2", "--beta", "1/3"] + out) == 0
    assert main(["simulate", "col-alpha", "-T", "2", "--alpha", "1/3"] + out) == 0


def test_simulate_builds_one_spec_per_step_parameter(tmp_path, capsys, monkeypatch):
    # a spec is built where the step parameter changes, not at every step
    built = []

    class CountingSpec(dyn.DynamicsSpec):
        def __post_init__(self):
            super().__post_init__()
            built.append(self.step_param)

    monkeypatch.setattr(dyn, "DynamicsSpec", CountingSpec)
    code, _ = run(
        ["simulate", "row-alpha", "-N", "2", "-T", "6", "--seed", "3",
         "--alpha", "1/3", "--alpha", "1/4", "--out", str(tmp_path / "ra")],
        capsys,
    )
    assert code == 0
    assert sorted(built) == [0.25, 1 / 3]


def test_simulate_rejects_out_of_range_parameters(tmp_path, capsys):
    out = ["--out", str(tmp_path / "run")]
    # two level parameters for three levels: neither one nor one per level
    assert main(["simulate", "row-beta", "-N", "3", "--a", "1", "--a", "1/2"] + out) == 2
    assert main(["simulate", "bernoulli-qtasep", "-N", "3", "--a", "1", "--a", "1/2"] + out) == 2
    assert "one per level" in capsys.readouterr().err
    # q outside [0, 1), and alpha a_j >= 1 at any step
    assert main(["simulate", "row-beta", "--q", "3/2"] + out) == 2
    assert main(["simulate", "push-block-alpha", "--alpha", "1/3", "--alpha", "3/2"] + out) == 2
    assert not (tmp_path / "run.csv").exists()
    # one --a per level still runs
    assert main(["simulate", "row-beta", "-N", "2", "-T", "2", "--a", "1", "--a", "1/2"] + out) == 0


def test_simulate_rejects_q_outside_unit_interval_for_particles(tmp_path, capsys):
    out = ["--out", str(tmp_path / "run")]
    for system, flag in [("bernoulli-qpush", "--beta"), ("bernoulli-qtasep", "--beta"),
                         ("geometric-qpush", "--alpha"), ("geometric-qtasep", "--alpha")]:
        for q in ("3/2", "1"):
            args = ["simulate", system, "-N", "3", "-T", "3", "--q", q, flag, "1/3"]
            assert main(args + out) == 2, (system, q)
        assert main(["simulate", system, "-N", "3", "-T", "0", "--q", "3/2", flag, "1/3"]
                    + out) == 2, system
    assert "need 0 <= q < 1" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()
    assert not (tmp_path / "run.json").exists()


def test_verify_reports_elapsed_seconds(capsys):
    code, out = run(["verify", "moments", "--steps", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert isinstance(report["elapsed_s"], float) and report["elapsed_s"] >= 0


def test_polymer_limit_report_records_the_version(tmp_path, capsys):
    import qrsk

    args = ["polymer-limit", "--kind", "col", "-N", "2", "-T", "2", "--eps", "0.02",
            "--replicas", "40", "--seed", "5", "--out", str(tmp_path / "r.json")]
    code, _ = run(args, capsys)
    assert code == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["version"] == qrsk.__version__ and rep["seed"] == 5


@pytest.mark.parametrize("flag, value, message", [
    ("--levels", "0", "need --levels, --steps and --replicas >= 1"),
    ("--steps", "0", "need --levels, --steps and --replicas >= 1"),
    ("--replicas", "0", "need --levels, --steps and --replicas >= 1"),
    ("--eps", "0", "need every --eps > 0, got 0.02, 0"),
], ids=["levels", "steps", "replicas", "eps"])
def test_polymer_limit_checks_its_sizes_before_any_work(flag, value, message, tmp_path, capsys):
    # --levels 0 and --replicas 0 raised IndexError, --steps 0 reported no
    # results, and --eps 0 failed in the sampler of q = 1
    out = tmp_path / "r.json"
    args = ["polymer-limit", "--eps", "0.02", "--replicas", "20", "--out", str(out), flag, value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_rejects_a_negative_step_parameter(tmp_path, capsys):
    # beta a_j < 0 ran a frozen trajectory (every input 0), and beta a_j = -1 divided by zero
    out = ["--out", str(tmp_path / "run")]
    for system, flag in [("row-beta", "--beta"), ("push-block-beta", "--beta"),
                         ("row-alpha", "--alpha"), ("bernoulli-qpush", "--beta"),
                         ("bernoulli-qtasep", "--beta"), ("geometric-qpush", "--alpha"),
                         ("geometric-qtasep", "--alpha")]:
        for value in ("-1/2", "-1"):
            args = ["simulate", system, "-N", "2", "-T", "3", f"{flag}={value}"]
            assert main(args + out) == 2, (system, value)
        # a negative entry at a later step, or a negative level parameter
        assert main(["simulate", system, "-N", "2", "-T", "3", flag, "1/3", f"{flag}=-1/3"]
                    + out) == 2, system
        assert main(["simulate", system, "-N", "2", "-T", "3", flag, "1/3", "--a", "1",
                     "--a=-1"] + out) == 2, system
        # checked before the first step, as q is
        assert main(["simulate", system, "-N", "2", "-T", "0", f"{flag}=-1/3"] + out) == 2, system
    # and alpha a_j < 1, for the particle systems too
    for system in ("geometric-qpush", "geometric-qtasep"):
        assert main(["simulate", system, "-N", "2", "-T", "0", "--alpha", "3/2"] + out) == 2
    err = capsys.readouterr().err
    assert "need 0 <= beta a_j, got beta = -1/2, a_j = 1" in err
    assert "need 0 <= alpha a_j < 1, got alpha = 3/2, a_j = 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_json_records_the_run(tmp_path, capsys):
    import qrsk

    for system, flag, keys in [("col-alpha", "--alpha", ["levels", "v_draws"]),
                               ("bernoulli-qtasep", "--beta", ["x"])]:
        base = tmp_path / system
        args = ["simulate", system, "-N", "2", "-T", "3", "--seed", "9", "--q", "2/5",
                flag, "1/4", flag, "1/5", "--a", "1", "--a", "9/10", "--out", str(base)]
        assert main(args) == 0
        report = json.loads(base.with_suffix(".json").read_text())
        assert list(report) == ["system", "version", "seed", "mode", "q", flag[2:], "a"] + keys
        assert report["system"] == system and report["version"] == qrsk.__version__
        assert report["seed"] == 9 and report["mode"] == "float" and report["q"] == "2/5"
        assert report[flag[2:]] == ["1/4", "1/5"] and report["a"] == ["1", "9/10"]
    capsys.readouterr()
