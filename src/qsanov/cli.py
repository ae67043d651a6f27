"""Batch front end: experiment configs in, deterministic CSV/JSON out.

Subcommands: sanov, avqs, np, verify, example-bloch, tableaux, project.
Exit codes: 0 success, 1 verification failure, 2 parse/config error,
3 size-guard violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .avqs import enumerate_words, gamma, min_relative_entropy_hull
from .errors import SizeGuardError, VerificationError
from .hypotest import (
    TestSpec,
    _classical_np,
    _label_band,
    build_test,
    label_errors,
    lambda_set,
    neyman_pearson,
    run_sanov,
    theta,
    type_one,
    type_two,
)
from .nogo import (
    haar_twirl_mc,
    haar_unitary,
    random_invariant_operator,
    unitary_twirl_invariant,
)
from .quantum import bloch_state, qrel_entropy, random_state
from .schur_weyl import (
    _clear_irrep_caches,
    block_projector,
    block_weight,
    completeness_check,
    frequency_blocks,
    tensor_power,
)
from .tableaux import (
    ALPHA,
    _frame_parts,
    dimension_log2_bounds,
    dominance,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
    type_class_log2_bounds,
    type_class_size,
)

MODES = ("sanov", "avqs", "np", "verify", "example-bloch", "tableaux", "project")


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


def _parse_entry(x):
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(v, (int, float)) for v in x):
        return complex(x[0], x[1])
    raise ValueError(f"matrix entry {x!r} is neither a number nor [re, im]")


def _parse_state(obj) -> np.ndarray:
    """State from a Bloch vector, a diagonal, or a row-major matrix."""
    if isinstance(obj, dict):
        if "bloch" in obj:
            return bloch_state(np.asarray(obj["bloch"], dtype=float))
        if "diag" in obj:
            return np.diag(np.asarray(obj["diag"], dtype=float)).astype(complex)
        raise ValueError(f"state object needs 'bloch' or 'diag', got {sorted(obj)}")
    if isinstance(obj, list):
        mat = np.array([[_parse_entry(x) for x in row] for row in obj])
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("state matrix must be square")
        return mat
    raise ValueError(f"cannot read a state from {type(obj).__name__}")


def _n_values(cfg: dict) -> list[int]:
    if "n_range" in cfg:
        lo, hi = cfg["n_range"]
        return list(range(int(lo), int(hi) + 1))
    if "n" in cfg:
        return [int(cfg["n"])]
    raise ValueError("config needs 'n' or 'n_range'")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # RFC 8259 has no NaN or infinity
        return float(obj) if math.isfinite(obj) else None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _tabular(header, rows, keys, fmt):
    if fmt == "json":
        return _json_text([dict(zip(keys, row)) for row in rows])
    return _csv(header, rows)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# tabular modes


SANOV_HEADER = [
    "n", "eps", "type1_max", "type2", "empirical_exponent", "reference_D", "theta", "np_beta",
]


def _mode_sanov(cfg: dict, seed: int, fmt: str) -> str:
    sigma = _parse_state(cfg["sigma"])
    nulls = [_parse_state(s) for s in cfg["null_set"]]
    eps = None if cfg.get("schedule") else cfg.get("epsilon")
    if eps is None and not cfg.get("schedule"):
        raise ValueError("config needs 'epsilon' or 'schedule': true")
    reports = run_sanov(
        sigma,
        nulls,
        _n_values(cfg),
        epsilon=eps,
        nu=float(cfg.get("nu", 0.05)),
        hull=bool(cfg.get("hull", False)),
        np_baseline=bool(cfg.get("np_baseline", True)),
    )
    rows = [
        [r.n, r.eps, r.type1_max, r.type2, r.empirical_exponent, r.reference_d, r.theta, r.np_beta]
        for r in reports
    ]
    return _tabular(SANOV_HEADER, rows, SANOV_HEADER, fmt)


AVQS_HEADER = [
    "n", "|S|", "eps", "delta", "worst_type1", "type2", "empirical_exponent", "min_D_conv", "gamma",
]


def _mode_avqs(cfg: dict, seed: int, fmt: str) -> str:
    sigma = _parse_state(cfg["sigma"])
    alphabet = [_parse_state(s) for s in cfg["null_set"]]
    eps = float(cfg["epsilon"])
    nu = float(cfg.get("nu", 0.05))
    d = sigma.shape[0]
    s_size = len(alphabet)
    min_d, _ = min_relative_entropy_hull(alphabet, sigma)
    rows = []
    for n in _n_values(cfg):
        spec = TestSpec(sigma=sigma, null_set=alphabet, epsilon=eps, n=n, hull=True)
        errs = label_errors(spec, alphabet=alphabet)
        worst = max(errs.misses.values())
        exponent = -float(errs.log_type_two) / (n * math.log(2.0))
        gam = gamma(n, nu, d, sigma, s_size)
        rows.append([n, s_size, eps, 0.0, worst, errs.type_two, exponent, min_d, gam])
    return _tabular(AVQS_HEADER, rows, AVQS_HEADER, fmt)


def _mode_np(cfg: dict, seed: int, fmt: str) -> str:
    rho = _parse_state(cfg["rho"])
    sigma = _parse_state(cfg["sigma"])
    nu = float(cfg.get("nu", 0.05))
    rows = [[n, nu, neyman_pearson(rho, sigma, n, nu)] for n in _n_values(cfg)]
    return _tabular(["n", "nu", "beta"], rows, ["n", "nu", "beta"], fmt)


def _mode_tableaux(cfg: dict, seed: int, fmt: str) -> str:
    d = int(cfg["d"])
    n = int(cfg["n"])
    rows = []
    freqs = enumerate_frequencies(d, n)
    for lam in enumerate_frames(d, n):
        ksum = sum(kostka(f, lam) for f in freqs)
        rows.append(
            [
                "+".join(str(p) for p in lam),
                hook_dimension(lam),
                type_class_size(lam + (0,) * (d - len(lam))),
                ksum,
            ]
        )
    header = ["lam", "dim", "type_class", "kostka_sum"]
    return _tabular(header, rows, header, fmt)


def _mode_project(cfg: dict, seed: int, fmt: str) -> str:
    f = tuple(int(x) for x in cfg["f"])
    lam = tuple(int(x) for x in cfg["lam"])
    basis = None
    if "sigma" in cfg:
        from .quantum import eigenbasis

        _, basis = eigenbasis(_parse_state(cfg["sigma"]))
    mat = block_projector(f, lam, basis=basis)
    parts = _frame_parts(lam)
    block = frequency_blocks(f).get(parts)
    return _json_text({
        "d": len(f),
        "n": sum(f),
        "f": list(f),
        "lambda": list(parts),
        "trace": 0.0 if block is None else float(np.trace(block)),
        "matrix": [[float(x.real), float(x.imag)] for x in mat.ravel()],
        "kostka": kostka(f, lam),
        "dim_frame": hook_dimension(lam),
    })


# ---------------------------------------------------------------------------
# worked example on the Bloch ball


def example_bloch(n: int = 6, eps: float = 0.25, grid: int = 24, seed: int = 0) -> dict:
    """Run the d=2 measurement demo: sigma = diag(0.75, 0.25), nulls z <= 1/4.

    The null region is discretized into boundary-plus-interior Bloch
    points. The report collects acceptance rates, uniform-prior
    posteriors, band-localization statistics, the printed guarantee
    values in both constant conventions (asserting nothing when they are
    vacuous), one indistinguishable pair and one separating pair.
    """
    rng = np.random.default_rng(seed)
    sigma = np.diag([0.75, 0.25]).astype(complex)
    states = []
    boundary = max(4, grid // 3)
    for k in range(boundary):
        phi = 2.0 * math.pi * k / boundary
        states.append(bloch_state([0.6 * math.cos(phi), 0.6 * math.sin(phi), 0.25]))
    while len(states) < grid:
        x = rng.uniform(-0.95, 0.95, size=3)
        if np.linalg.norm(x) <= 0.95 and x[2] <= 0.25:
            states.append(bloch_state(x))
    spec = TestSpec(sigma=sigma, null_set=np.stack(states), epsilon=eps, n=n)
    labels = sorted(lambda_set(spec))

    def outcome_probs(xi: np.ndarray) -> np.ndarray:
        return np.array([block_weight(f, lam, xi) for f, lam in labels])

    pool = np.concatenate([spec.null_set, sigma[None]])
    probs = np.stack([outcome_probs(xi) for xi in pool])
    p_e = np.clip(1.0 - probs.sum(axis=1), 0.0, 1.0)
    accept_null = probs.sum(axis=1)[:-1]

    ln2_rhs = 1.0 - (2.0 * n) ** 8 * 2.0 ** (-n * math.log(2.0) * eps * eps)
    alpha_rhs = 1.0 - (2.0 * n) ** 8 * 2.0 ** (-n * ALPHA * eps * eps)
    accept_min = float(accept_null.min())

    min_div = min(qrel_entropy(sigma, s) for s in states)
    theta_val = theta(n, eps, 2, sigma)
    posterior_rhs = 1.0 - 2.0 ** (-n * (min_div - theta_val))
    total_e = float(p_e.sum())
    posterior_sigma = float(p_e[-1] / total_e) if total_e > 0 else None

    freqs, frames, freq_ok, frame_ok = _label_band(pool, spec.basis, eps, 2, n)
    in_band = (
        freq_ok[:, [freqs.index(f) for f, _ in labels]]
        & frame_ok[:, [frames.index(lam) for _, lam in labels]]
    )
    label_mass = probs.sum(axis=0)
    localized = []
    for j in range(len(labels)):
        if label_mass[j] > 1e-9:
            localized.append(float(probs[in_band[:, j], j].sum() / label_mass[j]))
    loc_min = min(localized) if localized else None

    pair_a = bloch_state([0.4, 0.0, 0.2])
    pair_b = bloch_state([-0.4, 0.0, 0.2])
    qa, qb = outcome_probs(pair_a), outcome_probs(pair_b)
    gap = max(
        float(np.abs(qa - qb).max(initial=0.0)),
        abs(float(qa.sum() - qb.sum())),
    )
    excluded = bloch_state([0.0, 0.0, 0.75])
    member = bloch_state([0.0, 0.0, 0.0])
    e_excluded = float(1.0 - outcome_probs(excluded).sum())
    e_member = float(1.0 - outcome_probs(member).sum())

    return {
        "n": n,
        "eps": eps,
        "seed": seed,
        "grid_size": len(states),
        "label_count": len(labels),
        "accept_min_over_null": accept_min,
        "first_display": {
            "ln2": ln2_rhs,
            "alpha": alpha_rhs,
            "holds_ln2": bool(accept_min >= ln2_rhs) if ln2_rhs > 0 else "vacuous",
            "holds_alpha": bool(accept_min >= alpha_rhs) if alpha_rhs > 0 else "vacuous",
        },
        "e_given_sigma": float(p_e[-1]),
        "posterior_sigma_given_e": posterior_sigma,
        "posterior_bound": posterior_rhs,
        "posterior_bound_vacuous": bool(posterior_rhs <= 0),
        "min_divergence_sigma_to_null": min_div,
        "localization_min": loc_min,
        "second_display": {
            "ln2": ln2_rhs,
            "holds_ln2": (
                bool(loc_min is not None and loc_min >= ln2_rhs)
                if ln2_rhs > 0
                else "vacuous"
            ),
        },
        "indistinguishable_gap": gap,
        "separating": {
            "e_excluded": e_excluded,
            "e_member": e_member,
            "separated": bool(e_excluded > e_member),
        },
    }


def _mode_example(cfg: dict, seed: int, fmt: str) -> str:
    report = example_bloch(
        n=int(cfg.get("n", 6)),
        eps=float(cfg.get("epsilon", 0.25)),
        grid=int(cfg.get("grid", 24)),
        seed=seed,
    )
    return _json_text(report)


# ---------------------------------------------------------------------------
# verify battery


def verify_suite(n_max: int = 5, seed: int = 0) -> list[str]:
    """Cross-checks at d = 2 and d = 3; raises VerificationError on failure."""
    lines = [f"verify n_max={n_max} seed={seed}"]

    for dd in (2, 3):
        for n in range(1, min(n_max, 6) + 1):
            frames = enumerate_frames(dd, n)
            for f in enumerate_frequencies(dd, n):
                total = sum(kostka(f, lam) * hook_dimension(lam) for lam in frames)
                if total != type_class_size(f):
                    raise VerificationError(f"combinatorics: kostka sum off at {f}")
                for lam in frames:
                    if (kostka(f, lam) > 0) != dominance(f, lam):
                        raise VerificationError("combinatorics: dominance mismatch")
    lines.append("ok combinatorics")

    for dd, top in ((2, min(n_max, 5)), (3, min(n_max, 4))):
        for n in range(1, top + 1):
            if completeness_check(dd, n) > 1e-9:
                raise VerificationError(f"projector-algebra: completeness off at d={dd} n={n}")
            for f in enumerate_frequencies(dd, n):
                for lam, block in frequency_blocks(f).items():
                    want = kostka(f, lam) * hook_dimension(lam)
                    if abs(float(np.trace(block)) - want) > 1e-6:
                        raise VerificationError("projector-algebra: block trace off")
    lines.append("ok projector-algebra")

    slack = math.log2(1 + 1e-12)
    for dd in (2, 3):
        for n in range(1, 9):
            for f in enumerate_frequencies(dd, n):
                lo, hi = type_class_log2_bounds(f)
                if not lo <= math.log2(type_class_size(f)) <= hi + slack:
                    raise VerificationError("entropy-bounds: type class sandwich off")
            for lam in enumerate_frames(dd, n):
                lo, hi = dimension_log2_bounds(lam, dd)
                if not lo <= math.log2(hook_dimension(lam)) <= hi + slack:
                    raise VerificationError("entropy-bounds: dimension sandwich off")
    lines.append("ok entropy-bounds")

    sigma = np.eye(2) / 2.0
    rho = np.diag([0.7, 0.3])
    t_pairs = []
    for n in (4, min(5, n_max)):
        spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.25, n=n)
        labels = lambda_set(spec)
        p_n = build_test(spec, labels)
        accept = sum(
            (0.7 ** f[0]) * (0.3 ** f[1]) * kostka(f, lam) * hook_dimension(lam)
            for f, lam in labels
        )
        t2_cls = sum(kostka(f, lam) * hook_dimension(lam) for f, lam in labels) / 2.0**n
        t1 = type_one(p_n, rho)
        t2 = type_two(p_n, sigma)
        if abs(t1 - (1.0 - accept)) > 1e-12 or abs(t2 - t2_cls) > 1e-12:
            raise VerificationError(f"sanov-commuting: classical mismatch at n={n}")
        t_pairs.append((n, t1, t2))
    lines.append("ok sanov-commuting")

    bloch_pair = (bloch_state([0.4, 0.2, 0.3]), bloch_state([0.3, -0.1, 0.4]))
    r3 = np.random.default_rng(6)
    rho3 = random_state(3, r3)
    qutrit_pair = (rho3, (rho3 + random_state(3, r3)) / 2.0)
    for rho_l, sigma_l in ((rho, sigma), bloch_pair, qutrit_pair):
        for n in (4, min(5, n_max)):
            spec = TestSpec(sigma=sigma_l, null_set=[rho_l], epsilon=0.25, n=n)
            labels = lambda_set(spec)
            errs = label_errors(spec, labels, [rho_l])
            p_n = build_test(spec, labels)
            if (
                abs(errs.misses[(n,)] - type_one(p_n, rho_l)) > 1e-12
                or abs(errs.type_two - type_two(p_n, sigma_l)) > 1e-12
            ):
                raise VerificationError(f"sanov-labels: label errors off the dense ones at n={n}")
    lines.append("ok sanov-labels")

    for n, t1, t2 in t_pairs:
        beta = neyman_pearson(rho, sigma, n, t1)
        if beta > t2 + 1e-12:
            raise VerificationError(f"np-ordering: beta {beta} above type2 {t2}")
        p_vec = np.array([0.7, 0.3])
        q_vec = np.array([0.5, 0.5])
        outcome_p = np.array(
            [np.prod(p_vec[list(w)]) for w in enumerate_words(2, n)]
        )
        outcome_q = np.array(
            [np.prod(q_vec[list(w)]) for w in enumerate_words(2, n)]
        )
        cls = _classical_np(outcome_p, outcome_q, 1.0 - t1)[0]
        if abs(beta - cls) > 1e-9:
            raise VerificationError("np-ordering: commuting beta off the classical value")
    lines.append("ok np-ordering")

    rng = np.random.default_rng(seed)
    a = random_invariant_operator(2, 4, rng)
    exact = unitary_twirl_invariant(a, 2, 4)
    mc, se = haar_twirl_mc(a, 2, 4, samples=60, rng=rng)
    if np.linalg.norm(exact - mc) > 3.0 * se:
        raise VerificationError("twirl: Monte-Carlo disagrees beyond 3 standard errors")
    if abs(np.trace(exact).real - np.trace(a).real) > 1e-9:
        raise VerificationError("twirl: trace not preserved")
    if np.linalg.eigvalsh(exact).min() < -1e-10:
        raise VerificationError("twirl: positivity lost")
    v = tensor_power(haar_unitary(2, rng), 4)
    if np.abs(v @ exact @ v.conj().T - exact).max() > 1e-8:
        raise VerificationError("twirl: output not unitarily invariant")
    lines.append("ok twirl")

    def _fingerprint() -> str:
        # recompute: block_weight caches its log weight-mass table and the
        # irreps per state; d = 2 is the closed form, d = 3 the
        # Gelfand-Tsetlin irrep
        _clear_irrep_caches()
        r = np.random.default_rng(seed)
        xs = [random_state(2, r) for _ in range(3)]
        vals = [block_weight((2, 2), (3, 1), x) for x in xs]
        vals += [block_weight((2, 1, 1), (3, 1), random_state(3, r)) for _ in range(2)]
        return ",".join(f"{v:.17g}" for v in vals)

    if _fingerprint() != _fingerprint():
        raise VerificationError("determinism: seeded fingerprint differs between runs")
    lines.append("ok determinism")

    lines.append("all checks passed")
    return lines


def _mode_verify(cfg: dict, seed: int, fmt: str) -> str:
    lines = verify_suite(n_max=int(cfg.get("n_max", 5)), seed=seed)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


_RUNNERS = {
    "sanov": _mode_sanov,
    "avqs": _mode_avqs,
    "np": _mode_np,
    "verify": _mode_verify,
    "example-bloch": _mode_example,
    "tableaux": _mode_tableaux,
    "project": _mode_project,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsanov",
        description="permutation-invariant hypothesis tests and their exponents",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "tableaux":
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
        if name == "example-bloch":
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--eps", type=float, default=None)
        if name == "verify":
            p.add_argument("--n-max", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        for key in ("d", "n", "eps", "n_max"):
            val = getattr(args, key.replace("-", "_"), None)
            if val is not None:
                cfg["epsilon" if key == "eps" else key] = val
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        text = _RUNNERS[args.mode](cfg, seed, args.format)
        _emit(text, args.out)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
