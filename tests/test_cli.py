import itertools
import json
import shutil
import subprocess

import numpy as np
import pytest

from qsanov import cli, hypotest, schur_weyl
from qsanov.avqs import min_relative_entropy_hull
from qsanov.errors import VerificationError
from qsanov.hypotest import TestSpec, lambda_set, neyman_pearson, run_sanov
from qsanov.quantum import bloch_state, pinch, spectrum
from qsanov.schur_weyl import block_weight
from qsanov.tableaux import hook_dimension, kostka, l1_distance

from test_quantum import bad_states


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SANOV_CFG = {
    "sigma": {"diag": [0.5, 0.5]},
    "null_set": [{"diag": [0.7, 0.3]}],
    "epsilon": 0.25,
    "n_range": [4, 5],
}


def test_verify_exit_zero_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(["verify", "--n-max", "3", "--out", str(out1)]) == 0
    assert cli.main(["verify", "--n-max", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "all checks passed" in text
    assert text.count("ok ") == 8


def test_verify_catches_a_nondeterministic_irrep_diagonal(monkeypatch, capsys):
    # a stand-in beneath the block_weight cache that drifts by 1e-15 per
    # call: pi_lam(V) of the d = 3 weight-mass table, read from the
    # eigenbasis of a non-diagonal state; the label checks (1e-12) still
    # pass, the fingerprint must not
    real = schur_weyl.GTIrrep.unitary
    calls = itertools.count(1)

    def drifting(self, v):
        return real(self, v) * (1.0 + 1e-15 * next(calls))

    monkeypatch.setattr(schur_weyl.GTIrrep, "unitary", drifting)
    assert cli.main(["verify", "--n-max", "3"]) == 1
    assert "determinism" in capsys.readouterr().err


def test_verify_recomputes_the_closed_form_u2_diagonal(monkeypatch, capsys):
    # the d = 2 fingerprint reads the log weight-mass table over the
    # closed-form diagonal; the table is cleared, so a drift beneath it shows
    real = schur_weyl._u2_log_diagonal
    calls = itertools.count(1)

    def drifting(lam, x):
        return real(lam, x) * (1.0 + 1e-15 * next(calls))

    monkeypatch.setattr(schur_weyl, "_u2_log_diagonal", drifting)
    assert cli.main(["verify", "--n-max", "3"]) == 1
    assert "determinism" in capsys.readouterr().err


def test_parse_errors_exit_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("not json {")
    assert cli.main(["sanov", "--config", str(broken)]) == 2
    missing = _write_cfg(tmp_path, "missing.json", {"epsilon": 0.2, "n": 4})
    assert cli.main(["sanov", "--config", missing]) == 2
    bad_state = _write_cfg(
        tmp_path,
        "bad_state.json",
        {"sigma": {"spooky": 1}, "null_set": [{"diag": [0.7, 0.3]}], "epsilon": 0.2, "n": 4},
    )
    assert cli.main(["sanov", "--config", bad_state]) == 2
    assert cli.main(["np", "--config", _write_cfg(tmp_path, "no_n.json", {
        "rho": {"diag": [0.7, 0.3]}, "sigma": {"diag": [0.5, 0.5]}})]) == 2
    # each config rejection exits 2 and names its cause on stderr
    capsys.readouterr()
    for name, payload, message in [
        ("root.json", [SANOV_CFG], "config root must be a JSON object"),
        ("entry.json", {**SANOV_CFG, "sigma": [[0.5, "x"], [0, 0.5]]},
         "matrix entry 'x' is neither a number nor [re, im]"),
        ("wide.json", {**SANOV_CFG, "sigma": [[0.5, 0, 0], [0, 0.5, 0]]},
         "state matrix must be square"),
        ("text.json", {**SANOV_CFG, "sigma": "identity"}, "cannot read a state from str"),
    ]:
        assert cli.main(["sanov", "--config", _write_cfg(tmp_path, name, payload)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n", name


def test_plain_number_matrix_entries_read_as_real(tmp_path):
    plain = {**SANOV_CFG, "sigma": [[0.5, 0.1], [0.1, 0.5]]}
    pairs = {**SANOV_CFG, "sigma": [[[0.5, 0], [0.1, 0]], [[0.1, 0], [0.5, 0]]]}
    outs = []
    for name, payload in (("plain", plain), ("pairs", pairs)):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["sanov", "--config", _write_cfg(tmp_path, f"{name}.json", payload),
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_guard_exit_three(tmp_path):
    cfg = _write_cfg(tmp_path, "huge.json", {"f": [10, 10], "lam": [10, 10]})
    assert cli.main(["project", "--config", cfg]) == 3


def test_verification_failure_exit_one(monkeypatch, tmp_path):
    def boom(cfg, seed, fmt):
        raise VerificationError("forced")

    monkeypatch.setitem(cli._RUNNERS, "verify", boom)
    assert cli.main(["verify"]) == 1


def test_bad_arguments_exit_two_from_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-mode"])
    assert exc.value.code == 2


def test_sanov_csv_matches_library(tmp_path):
    cfg = _write_cfg(tmp_path, "sanov.json", SANOV_CFG)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(["sanov", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sanov", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "n,eps,type1_max,type2,empirical_exponent,reference_D,theta,np_beta"
    assert len(lines) == 3
    reports = run_sanov(
        np.eye(2) / 2, [np.diag([0.7, 0.3])], [4, 5], epsilon=0.25
    )
    for line, rep in zip(lines[1:], reports):
        cells = line.split(",")
        assert int(cells[0]) == rep.n
        assert abs(float(cells[3]) - rep.type2) < 1e-9
        assert abs(float(cells[7]) - rep.np_beta) < 1e-9
        assert float(cells[7]) <= float(cells[3]) + 1e-12


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=reject)


def test_sanov_json_mode(tmp_path):
    cfg = _write_cfg(tmp_path, "sanov.json", SANOV_CFG)
    out = tmp_path / "r.json"
    assert cli.main(["sanov", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    rows = _strict_json(out.read_text())
    assert [r["n"] for r in rows] == [4, 5]
    assert set(rows[0]) == set(cli.SANOV_HEADER)
    # no NP baseline (np_beta NaN) and no accepted label (exponent +inf):
    # both are written as null
    cfg = _write_cfg(tmp_path, "bare.json", {
        "sigma": {"diag": [0.75, 0.25]},
        "null_set": [{"diag": [0.3, 0.7]}],
        "epsilon": 0.1,
        "n_range": [4, 5],
        "np_baseline": False,
    })
    assert cli.main(["sanov", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    rows = _strict_json(out.read_text())
    assert [r["n"] for r in rows] == [4, 5]
    for r in rows:
        assert r["np_beta"] is None and r["empirical_exponent"] is None and r["type2"] == 0.0, r


def test_np_mode_row(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "np.json",
        {"rho": {"diag": [0.7, 0.3]}, "sigma": {"diag": [0.5, 0.5]}, "nu": 0.05, "n": 4},
    )
    out = tmp_path / "np.csv"
    assert cli.main(["np", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,nu,beta"
    cells = lines[1].split(",")
    want = neyman_pearson(np.diag([0.7, 0.3]), np.eye(2) / 2, 4, 0.05)
    assert abs(float(cells[2]) - want) < 1e-9


def test_avqs_mode(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "avqs.json",
        {
            "sigma": {"diag": [0.75, 0.25]},
            "null_set": [{"diag": [0.8, 0.2]}, {"bloch": [0.3, 0.0, 0.0]}],
            "epsilon": 0.3,
            "n": 4,
        },
    )
    out = tmp_path / "avqs.csv"
    assert cli.main(["avqs", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,|S|,eps,delta,worst_type1,type2,empirical_exponent,min_D_conv,gamma"
    cells = lines[1].split(",")
    assert int(cells[1]) == 2
    assert float(cells[3]) == 0.0
    assert 0.0 <= float(cells[4]) <= 1.0
    from qsanov.quantum import bloch_state

    want, _ = min_relative_entropy_hull(
        [np.diag([0.8, 0.2]).astype(complex), bloch_state([0.3, 0.0, 0.0])],
        np.diag([0.75, 0.25]),
    )
    assert abs(float(cells[7]) - want) < 1e-9


def test_avqs_mode_does_not_depend_on_the_seed(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        "avqs3.json",
        {
            "sigma": {"bloch": [0.1, 0.1, 0.1]},
            "null_set": [{"bloch": [0.0, 0.0, 0.8]}, {"bloch": [0.8, 0.0, 0.0]}, {"bloch": [0.0, 0.8, 0.0]}],
            "epsilon": 0.3,
            "n_range": [4, 6],
        },
    )
    # the JSON carries every digit of min_D_conv, the CSV twelve
    for fmt in ("csv", "json"):
        outs = [tmp_path / f"seed{seed}.{fmt}" for seed in (0, 7)]
        for seed, out in zip((0, 7), outs):
            args = ["avqs", "--config", cfg, "--seed", str(seed), "--format", fmt]
            assert cli.main(args + ["--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def _matrix_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def test_avqs_mode_matches_dense_words(tmp_path):
    # the CSV comes from labels; every word of the dense test agrees, at
    # d = 2 and at d = 3 (a complex sigma eigenbasis and a rank-1 letter)
    from qsanov.avqs import avqs_test, enumerate_words, word_type_one
    from qsanov.hypotest import type_two
    from qsanov.quantum import bloch_state, random_state

    rng = np.random.default_rng(70)
    qutrits = [random_state(3, rng), random_state(3, rng), random_state(3, rng, rank=1)]
    configs = [
        (
            [bloch_state([0.5, 0.2, 0.1]), bloch_state([-0.1, 0.3, 0.2])],
            bloch_state([0.2, -0.3, 0.3]),
            {
                "sigma": {"bloch": [0.2, -0.3, 0.3]},
                "null_set": [{"bloch": [0.5, 0.2, 0.1]}, {"bloch": [-0.1, 0.3, 0.2]}],
                "epsilon": 0.3,
                "n_range": [3, 5],
            },
        ),
        (
            qutrits[1:],
            qutrits[0],
            {
                "sigma": _matrix_json(qutrits[0]),
                "null_set": [_matrix_json(q) for q in qutrits[1:]],
                "epsilon": 0.6,
                "n_range": [3, 5],
            },
        ),
    ]
    for alphabet, sigma, payload in configs:
        eps = payload["epsilon"]
        cfg = _write_cfg(tmp_path, "avqs.json", payload)
        out = tmp_path / "avqs.csv"
        assert cli.main(["avqs", "--config", cfg, "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            cells = line.split(",")
            n = int(cells[0])
            p = avqs_test(alphabet, sigma, eps, n)
            worst = max(word_type_one(p, w, alphabet) for w in enumerate_words(2, n))
            assert abs(float(cells[4]) - worst) < 1e-11, (sigma.shape, n)
            assert abs(float(cells[5]) - type_two(p, sigma)) < 1e-11, (sigma.shape, n)


def test_avqs_mode_at_d3_n8_passes_the_dense_guard(tmp_path):
    # 3**8 = 6561 is above the 4096 dense guard; the labels need no d**n operator
    from qsanov.quantum import random_state

    rng = np.random.default_rng(71)
    sigma, a, b = (random_state(3, rng) for _ in range(3))
    cfg = _write_cfg(tmp_path, "avqs.json", {
        "sigma": _matrix_json(sigma),
        "null_set": [_matrix_json(a), _matrix_json(b)],
        "epsilon": 0.6,
        "n": 8,
    })
    out = tmp_path / "avqs.csv"
    assert cli.main(["avqs", "--config", cfg, "--out", str(out)]) == 0
    cells = out.read_text().strip().split("\n")[1].split(",")
    assert int(cells[0]) == 8
    assert 0.0 <= float(cells[4]) <= 1.0
    assert 0.0 < float(cells[5]) < 1.0


def test_sanov_hull_grid_above_the_guard_exits_three(tmp_path, capsys):
    # |S| = 4 at epsilon = 0.01 probes C(403, 3) = 10,827,401 mixtures
    cfg = _write_cfg(tmp_path, "hull.json", {
        "sigma": {"diag": [0.5, 0.5]},
        "null_set": [{"bloch": v} for v in ([0.3, 0, 0], [0, 0.3, 0], [0, 0, 0.3], [-0.3, 0, 0])],
        "epsilon": 0.01,
        "n": 4,
        "hull": True,
    })
    assert cli.main(["sanov", "--config", cfg]) == 3
    assert "10827401 mixtures" in capsys.readouterr().err


def test_sanov_mode_when_every_label_is_rejected(tmp_path):
    # at n = 1 no frequency of diag(0.7, 0.3) is within 0.25: the test is
    # empty, its type-one error is 1 and the empty test is the NP optimum
    cfg = _write_cfg(tmp_path, "sanov.json", {
        "sigma": {"diag": [0.5, 0.5]},
        "null_set": [{"diag": [0.7, 0.3]}],
        "epsilon": 0.25,
        "n": 1,
    })
    out = tmp_path / "sanov.csv"
    assert cli.main(["sanov", "--config", cfg, "--out", str(out)]) == 0
    row = dict(zip(cli.SANOV_HEADER, out.read_text().strip().split("\n")[1].split(",")))
    assert float(row["type1_max"]) == 1.0
    assert float(row["np_beta"]) == 0.0


def test_tableaux_flags_match_library(tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["tableaux", "--d", "2", "--n", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lam,dim,type_class,kostka_sum"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"4", "3+1", "2+2"}
    assert rows["3+1"][1] == str(hook_dimension((3, 1)))
    # kostka mass over all frequencies of the (2,2) frame
    ksum = sum(kostka(f, (2, 2)) for f in ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)))
    assert rows["2+2"][3] == str(ksum)


def test_project_json_round_trip(tmp_path):
    cfg = _write_cfg(tmp_path, "p.json", {"f": [2, 1], "lam": [2, 1]})
    out = tmp_path / "p.json.out"
    assert cli.main(["project", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kostka"] == kostka((2, 1), (2, 1))
    assert payload["dim_frame"] == hook_dimension((2, 1))
    assert payload["f"] == [2, 1] and payload["lambda"] == [2, 1]
    assert abs(payload["trace"] - payload["kostka"] * payload["dim_frame"]) < 1e-9
    dim = payload["d"] ** payload["n"]
    flat = np.array([complex(re, im) for re, im in payload["matrix"]])
    mat = flat.reshape(dim, dim)
    assert abs(np.trace(mat).real - payload["kostka"] * payload["dim_frame"]) < 1e-9
    assert np.abs(mat - mat.conj().T).max() < 1e-12
    assert np.abs(mat @ mat - mat).max() < 1e-9


def test_example_bloch_report(tmp_path):
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    assert cli.main(["example-bloch", "--n", "4", "--out", str(out1)]) == 0
    assert cli.main(["example-bloch", "--n", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["n"] == 4 and report["seed"] == 0
    assert report["label_count"] > 0
    assert 0.0 <= report["accept_min_over_null"] <= 1.0
    assert report["indistinguishable_gap"] < 1e-12
    assert report["separating"]["separated"] is True
    assert report["separating"]["e_excluded"] > report["separating"]["e_member"]
    if report["posterior_sigma_given_e"] is not None:
        assert 0.0 <= report["posterior_sigma_given_e"] <= 1.0
    if report["localization_min"] is not None:
        assert 0.0 <= report["localization_min"] <= 1.0 + 1e-9
    assert cli.main(["example-bloch", "--n", "4", "--seed", "1", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["seed"] == 1


def test_example_bloch_with_no_labels(tmp_path):
    # at epsilon = 0.05 no label is accepted at n = 2 or 3: no outcome and
    # gap 0; at epsilon = 0.1 each keeps one label
    for n, eps in ((2, "0.05"), (3, "0.05"), (2, "0.1"), (3, "0.1")):
        out = tmp_path / f"e{n}_{eps}.json"
        assert cli.main(["example-bloch", "--n", str(n), "--eps", eps, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        if eps == "0.05":
            assert report["label_count"] == 0 and report["localization_min"] is None
            assert report["indistinguishable_gap"] == 0.0


def test_example_bloch_names_a_bad_grid_state(monkeypatch):
    # the grid goes to TestSpec as one stack; a bad state is named by its index
    for what, bad in bad_states(2):
        made = []

        def grid_state(x, bad=bad):
            made.append(x)
            return bad if len(made) == 6 else bloch_state(x)

        monkeypatch.setattr(cli, "bloch_state", grid_state)
        with pytest.raises(ValueError, match=f"state 5 .*{what}"):
            cli.example_bloch(n=4)


def test_example_bloch_localization_matches_a_brute_force_band(monkeypatch):
    # the band of every (state, label) pair by l1_distance, on the pool
    # that example_bloch hands to _label_band
    pools = []

    def spy(states, basis, epsilon, d, n):
        pools.append(list(states))
        return hypotest._label_band(states, basis, epsilon, d, n)

    monkeypatch.setattr(cli, "_label_band", spy)
    for n, eps in ((4, 0.25), (6, 0.25), (7, 0.4), (8, 0.1)):
        report = cli.example_bloch(n=n, eps=eps)
        pool = pools.pop()
        spec = TestSpec(sigma=pool[-1], null_set=pool[:-1], epsilon=eps, n=n)
        labels = sorted(lambda_set(spec))
        probs = np.array([[block_weight(f, lam, xi) for f, lam in labels] for xi in pool])
        mass = probs.sum(axis=0)
        localized = []
        for j, (f, lam) in enumerate(labels):
            f_bar = np.asarray(f, dtype=float) / n
            lam_bar = np.asarray(lam + (0,) * (2 - len(lam)), dtype=float) / n
            band = [
                l1_distance(f_bar, pinch(xi, spec.basis)) <= eps
                and l1_distance(lam_bar, spectrum(xi)) <= eps
                for xi in pool
            ]
            if mass[j] > 1e-9:
                localized.append(float(probs[band, j].sum() / mass[j]))
        assert localized, (n, eps)
        assert report["localization_min"] == min(localized), (n, eps)


def test_console_script_smoke():
    exe = shutil.which("qsanov")
    assert exe is not None
    proc = subprocess.run(
        [exe, "tableaux", "--d", "2", "--n", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("lam,dim,type_class,kostka_sum")
