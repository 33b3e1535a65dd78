import json
import math

import pytest

from lookback_prophet import Instance, discrete, point
from lookback_prophet.cli import main
from lookback_prophet.instances import adv_hard
from lookback_prophet.theory import solve_p_gamma


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_default_grid(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code, _, _ = run_cli(capsys, "bounds", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 102
    header = lines[0].split(",")
    assert header == [
        "gamma",
        "adv_tight",
        "ro_upper",
        "ro_lower",
        "ro_lower_explicit",
        "iid_upper",
        "iid_lower",
        "identity",
    ]
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(0.5, abs=1e-12)
    assert first[2] == pytest.approx(0.73205, abs=1e-5)


def test_bounds_single_gamma(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--gamma", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("0.5,")


def test_bounds_rejects_out_of_range_gamma(capsys):
    code, _, err = run_cli(capsys, "bounds", "--gamma", "1.5")
    assert code == 2
    assert "1.5" in err


def test_bounds_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "bounds", "--out", str(a))
    run_cli(capsys, "bounds", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(inst.to_json())
    return str(path)


def test_solve_threshold_explicit_p(tmp_path, capsys):
    from lookback_prophet import uniform

    path = write_instance(tmp_path, Instance("adversarial", (uniform(0, 1), uniform(0, 1))))
    code, out, _ = run_cli(capsys, "solve-threshold", path, "--p", "0.6667")
    assert code == 0
    theta = float(out.split("\n")[0].split()[1])
    assert theta == pytest.approx(math.sqrt(0.6667), abs=1e-9)


def test_solve_threshold_point_mass_tie_break(tmp_path, capsys):
    path = write_instance(tmp_path, Instance("iid", (point(3.0),), iid_count=2))
    code, out, _ = run_cli(capsys, "solve-threshold", path, "--p", "0.4")
    assert code == 0
    lines = dict(line.split() for line in out.strip().split("\n"))
    assert float(lines["theta"]) == 3.0
    assert 0.0 < float(lines["tie_break_accept_prob"]) < 1.0
    assert float(lines["achieved_p"]) == pytest.approx(0.4, abs=1e-10)


def test_solve_threshold_adv_model_targets_half(tmp_path, capsys):
    inst = adv_hard(0.0, 0.5)
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(capsys, "solve-threshold", path, "--model", "adv", "--gamma", "0")
    assert code == 0
    lines = dict(line.split() for line in out.strip().split("\n"))
    assert float(lines["achieved_p"]) == pytest.approx(0.5, abs=1e-10)


def test_solve_threshold_ro_model(tmp_path, capsys):
    inst = Instance("random", (discrete([0.0, 2.0], [0.5, 0.5]), point(1.0)))
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(capsys, "solve-threshold", path, "--model", "ro", "--gamma", "0.5")
    assert code == 0
    lines = dict(line.split() for line in out.strip().split("\n"))
    assert float(lines["achieved_p"]) == pytest.approx(solve_p_gamma(0.5).value, abs=1e-9)


def test_solve_threshold_iid_model_per_item_tail(tmp_path, capsys):
    d = discrete([0.0, 1.0, 4.0], [0.5, 0.3, 0.2])
    path = write_instance(tmp_path, Instance("iid", (d,), iid_count=8))
    code, out, _ = run_cli(capsys, "solve-threshold", path, "--model", "iid", "--gamma", "0.25")
    assert code == 0
    lines = dict(line.split() for line in out.strip().split("\n"))
    from lookback_prophet.theory import solve_a_n_gamma

    a = solve_a_n_gamma(8, 0.25).value
    assert float(lines["achieved_p"]) == pytest.approx(1.0 - a / 8, abs=1e-10)


def test_simulate_writes_report_and_is_deterministic(tmp_path, capsys):
    inst_path = write_instance(tmp_path, adv_hard(0.5, 0.1))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = [
        "simulate",
        inst_path,
        "--policy",
        '{"kind": "dp", "gamma": 0.5}',
        "--decay",
        '{"kind": "gamma", "gamma": 0.5}',
        "--reps",
        "500",
        "--seed",
        "42",
    ]
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, row = out1.read_text().strip().split("\n")
    assert header.startswith("gamma,mean_reward,expected_opt,ratio")
    fields = row.split(",")
    assert float(fields[0]) == 0.5  # gamma of the decay
    assert float(fields[3]) == pytest.approx(
        (1 / 0.55) / (1 + 0.9 / 0.55), abs=0.05
    )


def test_simulate_rejects_zero_reps(tmp_path, capsys):
    inst_path = write_instance(tmp_path, adv_hard(0.5, 0.1))
    code, _, err = run_cli(
        capsys,
        "simulate",
        inst_path,
        "--policy",
        '{"kind": "never"}',
        "--decay",
        '{"kind": "gamma", "gamma": 0.5}',
        "--reps",
        "0",
    )
    assert code == 2 and "reps" in err


def test_simulate_rejects_nan_threshold(tmp_path, capsys):
    inst_path = write_instance(tmp_path, adv_hard(0.5, 0.1))
    code, _, err = run_cli(
        capsys,
        "simulate",
        inst_path,
        "--policy",
        '{"kind": "threshold", "theta": NaN}',
        "--decay",
        '{"kind": "gamma", "gamma": 0.5}',
        "--reps",
        "200",
    )
    assert code != 0 and "threshold" in err


def test_simulate_workers_do_not_change_output(tmp_path, capsys):
    inst_path = write_instance(tmp_path, adv_hard(0.5, 0.01))
    outs = []
    for w, name in ((1, "w1.csv"), (3, "w3.csv")):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "simulate",
            inst_path,
            "--policy",
            '{"kind": "threshold", "theta": 1.0, "tie_break": 0.0}',
            "--decay",
            '{"kind": "gamma", "gamma": 0.5}',
            "--reps",
            "400",
            "--seed",
            "7",
            "--workers",
            str(w),
            "--out",
            str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_oracle_hand_example(tmp_path, capsys):
    inst = Instance("adversarial", (point(1.0), discrete([0.0, 2.0], [0.5, 0.5])))
    path = write_instance(tmp_path, inst)
    code, out, _ = run_cli(
        capsys,
        "oracle",
        path,
        "--policy",
        '{"kind": "threshold", "theta": 1.5, "tie_break": 0.0}',
        "--decay",
        '{"kind": "gamma", "gamma": 0.5}',
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.25, abs=1e-12)


def test_oracle_space_guard_exit_code(tmp_path, capsys):
    big = Instance(
        "random", (discrete([0.0, 1.0, 2.0, 3.0, 4.0], [0.2] * 5),) * 10
    )
    path = write_instance(tmp_path, big)
    code, _, err = run_cli(
        capsys,
        "oracle",
        path,
        "--policy",
        '{"kind": "never"}',
        "--decay",
        '{"kind": "gamma", "gamma": 0.5}',
    )
    assert code == 3
    assert str(5**10) in err or "exceeds budget" in err


def test_hard_families_round_trip(tmp_path, capsys):
    out = tmp_path / "adv.json"
    code, _, _ = run_cli(
        capsys, "hard", "--family", "adv", "--gamma", "0.5", "--eps", "0.001", "--out", str(out)
    )
    assert code == 0
    inst = Instance.from_json(out.read_text())
    assert inst.n == 2 and inst.order == "adversarial"
    code, out_text, _ = run_cli(capsys, "hard", "--family", "iid", "--n", "50", "--gamma", "0.5")
    assert code == 0
    iid = Instance.from_json(out_text)
    assert iid.order == "iid" and iid.iid_count == 50
    code, out_text, _ = run_cli(capsys, "hard", "--family", "ro", "--n", "6", "--a", "1.0")
    assert code == 0
    ro = Instance.from_json(out_text)
    assert ro.order == "random" and ro.n == 7


def test_transform_round_trips(tmp_path, capsys):
    from lookback_prophet.distributions import expected_max

    base = tmp_path / "base.json"
    base.write_text(adv_hard(0.5, 0.1).to_json())
    padded = tmp_path / "padded.json"
    code, _, _ = run_cli(
        capsys, "transform", "pad-adv", "--m", "3", "--in", str(base), "--out", str(padded)
    )
    assert code == 0
    inst = Instance.from_json(padded.read_text())
    assert inst.n == 6

    ro = tmp_path / "ro.json"
    ro.write_text(Instance("random", (point(1.0), point(2.0))).to_json())
    code, out_text, _ = run_cli(capsys, "transform", "pad-ro", "--m", "100", "--in", str(ro))
    assert code == 0
    assert Instance.from_json(out_text).n == 102

    scaled = tmp_path / "scaled.json"
    code, _, _ = run_cli(
        capsys, "transform", "rescale", "--r", "2", "--in", str(base), "--out", str(scaled)
    )
    assert code == 0
    assert expected_max(Instance.from_json(scaled.read_text())) == pytest.approx(
        2 * expected_max(Instance.from_json(base.read_text())), abs=1e-10
    )

    iid = tmp_path / "iid.json"
    iid.write_text(Instance("iid", (discrete([0.0, 1.0], [0.5, 0.5]),), iid_count=5).to_json())
    code, out_text, _ = run_cli(capsys, "transform", "dilute", "--m", "50", "--in", str(iid))
    assert code == 0
    assert Instance.from_json(out_text).iid_count == 50


def test_validate_decay_pass_and_fail(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "validate-decay", '{"kind": "gamma", "gamma": 0.5}')
    assert code == 0 and "passed" in out

    bad_table = {
        "kind": "table",
        "functions": [{"xs": [0.0, 1e6], "ys": [0.0, 2e6]}],
        "terminal": {"xs": [0.0, 1e6], "ys": [0.0, 5e5]},
    }
    code, out, _ = run_cli(capsys, "validate-decay", json.dumps(bad_table))
    assert code == 2 and "D1<=x" in out

    code, out, _ = run_cli(
        capsys, "validate-decay", '{"kind": "bernoulli", "probs": [0.2, 0.9], "terminal": 0.1}'
    )
    assert code == 2 and "lag-monotone" in out


def test_validate_decay_from_file(tmp_path, capsys):
    path = tmp_path / "decay.json"
    path.write_text('{"kind": "geometric", "lambda": 0.9}')
    code, out, _ = run_cli(capsys, "validate-decay", f"@{path}")
    assert code == 0 and "passed" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve-threshold", "/nonexistent.json", "--p", "0.5")
    assert code == 2 and err


def test_prophet_seed_env_override(tmp_path, capsys, monkeypatch):
    inst_path = write_instance(tmp_path, adv_hard(0.5, 0.1))
    args = [
        "simulate",
        inst_path,
        "--policy",
        '{"kind": "threshold", "theta": 1.0, "tie_break": 0.0}',
        "--decay",
        '{"kind": "gamma", "gamma": 0.5}',
        "--reps",
        "200",
    ]
    monkeypatch.setenv("PROPHET_SEED", "123")
    _, out_a, _ = run_cli(capsys, *args)
    monkeypatch.setenv("PROPHET_SEED", "124")
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a != out_b
    assert ",123," in out_a and ",124," in out_b
