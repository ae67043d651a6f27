"""The benchmark workloads: inputs from a seed, the timed job, checks.

Each workload draws its states from the seed at a fixed spectrum or Bloch
length, so the amount of work does not depend on the seed. The job calls
qsanov only through attributes looked up at call time (`q.run_sanov`,
`q.cli.main`), so the traced run sees every call. `check` runs after the
timed window and compares the outputs with `oracle`, which does not use
the code path being timed. A ladder step runs one larger size of the
workload's pipeline in its own child process; the largest size reached
is the workload's reach.

Two workloads split the package by alphabet size. `qubit-sanov-avqs` runs
the d = 2 Sanov sweep with its Neyman-Pearson baseline (`SanovNP`) and then
the arbitrarily-varying-source path (`AvqsWords`); `frames-qutrit` runs the
d = 3 frame projectors, tests without NP and twirls.

`tiny=True` shrinks every size so the self-test runs in seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import numpy as np

import oracle


class Checker:
    """Counts checked outputs and keeps a message for each failed one."""

    def __init__(self):
        self.ops = 0
        self.failed: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.ops += 1
        if not ok:
            self.failed.append(what)

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        ok = abs(got - want) <= tol * max(1.0, abs(want))
        self.check(f"{what}: got {got!r}, want {want!r}", bool(ok))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


class Workload:
    """Defaults shared by the workloads."""

    min_reps = 1

    def digest(self, out) -> str | None:
        """Text that two runs of one seed must reproduce byte for byte."""
        return None

    def prepare(self, work_dir: str) -> None:
        """Write the files the job reads into `work_dir`; part of set-up."""


def _check_sanov_report(chk, tag, rep, sigma, nulls, eps, hull, np_on):
    """Type-two closed form, run_sanov's own bound, and beta <= type-two."""
    t, _ = oracle.eigenbasis(sigma)
    d = sigma.shape[0]
    pairs = oracle.labels(sigma, nulls, eps, rep.n, hull=hull)
    chk.close(f"{tag} n={rep.n} type2", rep.type2, oracle.type_two(pairs, t), 1e-9)
    ref = min(oracle.rel_entropy(r, sigma) for r in nulls)
    bound = 2.0 ** (-rep.n * (ref - oracle.theta(rep.n, eps, d, t)))
    chk.check(f"{tag} n={rep.n} type2 {rep.type2} above bound {bound}",
              rep.type2 <= bound * (1.0 + 1e-9) + 1e-300)
    if np_on:
        chk.check(f"{tag} n={rep.n} beta {rep.np_beta} above type2 {rep.type2}",
                  rep.np_beta <= rep.type2 + 1e-12)


# ---------------------------------------------------------------------------


class SanovNP:
    """run_sanov at d = 2, sigma = I/2, with the Neyman-Pearson baseline.

    sigma^n is a multiple of the identity, so the quantum NP optimum for a
    qubit null equals the classical one on its spectrum, over types; that
    is the exact oracle for beta at every n of the sweep and the ladder.
    """

    eps = 0.25

    def __init__(self, seed: int, tiny: bool):
        self.ns = list(range(4, 7)) if tiny else list(range(4, 11))
        self.floor_n = self.ns[-1]
        self.ladder = (7, 8) if tiny else (12, 16, 24, 32, 48, 64, 96, 128)
        self.sigma = np.eye(2, dtype=complex) / 2.0
        # The seeded null lies in the x-z plane, so NP stays real like the
        # commuting family; its length keeps (1 + r)/2 +- eps/2 off every k/n.
        self.families = {
            "commuting": np.diag([0.7, 0.3]).astype(complex),
            "noncommuting": oracle.bloch(0.46, _rng(seed, 1), plane=True),
        }

    def job(self, q, mark):
        out = {}
        for fam, rho in self.families.items():
            mark(fam)
            out[fam] = q.run_sanov(self.sigma, [rho], self.ns, epsilon=self.eps)
        return out

    def perturb(self, out):
        out["commuting"][0].type2 *= 1.001

    def _check(self, chk, fam, reports):
        rho = self.families[fam]
        p_top = float(np.linalg.eigvalsh(rho)[-1])
        for rep in reports:
            _check_sanov_report(chk, fam, rep, self.sigma, [rho], self.eps, False, True)
            want = oracle.classical_np_uniform(p_top, rep.n, 1.0 - max(rep.type1_max, 0.0))
            chk.close(f"{fam} n={rep.n} np_beta", rep.np_beta, want, 1e-9)

    def check(self, out, chk):
        for fam, reports in out.items():
            self._check(chk, fam, reports)

    def step(self, q, n):
        return q.run_sanov(self.sigma, [self.families["commuting"]], [n], epsilon=self.eps)

    def check_step(self, out, chk):
        self._check(chk, "commuting", out)


# ---------------------------------------------------------------------------


class FramesQutrit(Workload):
    """d = 3: cold frame projectors, the projector test without NP, twirls.

    sigma has a fixed spectrum in a Haar-random (complex) eigenbasis, so
    build_test and type_one pay the dense basis rotation.
    """

    name = "frames-qutrit"
    eps = 0.3

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.block_n = 5 if tiny else 8
        self.ns = list(range(3, 5)) if tiny else list(range(3, 8))
        self.floor_n = self.ns[-1]
        self.nogo_sizes = ((3, 3), (2, 4)) if tiny else ((3, 4), (2, 7))
        self.ladder = (5,) if tiny else (8, 10, 12, 16, 20, 24)
        self.sigma = oracle.state([0.5, 0.3, 0.2], _rng(seed, 1))
        # null spectra at least 8e-4 in l1 from eps off every lam/n, n <= 24,
        # so rounding cannot flip a label
        self.nulls = [
            oracle.state([0.6137, 0.2491, 0.1372], _rng(seed, 2)),
            oracle.state([0.4623, 0.3418, 0.1959], _rng(seed, 3)),
        ]
        self.rho = oracle.state([0.55, 0.3, 0.15], _rng(seed, 4))

    def job(self, q, mark):
        mark("blocks")
        blocks = {f: q.frequency_blocks(f) for f in oracle.frequencies(3, self.block_n)}
        mark("sum_rule")
        total = 0.0
        for f in blocks:
            for lam in oracle.frames(3, self.block_n):
                total += q.block_weight(f, lam, self.rho)
        mark("sanov")
        single = q.run_sanov(self.sigma, self.nulls[:1], self.ns,
                             epsilon=self.eps, np_baseline=False)
        mark("sanov_hull")
        hull = q.run_sanov(self.sigma, self.nulls, self.ns,
                           epsilon=self.eps, hull=True, np_baseline=False)
        mark("nogo")
        nogo = []
        for d, n in self.nogo_sizes:
            a = q.random_invariant_operator(d, n, rng=_rng(self.seed, 10 + n))
            twirl = q.unitary_twirl_invariant(a, d, n)
            report = q.verify_nogo_instance(a, d, n, rng=_rng(self.seed, 20 + n))
            nogo.append((d, n, a, twirl, report))
        return {"blocks": blocks, "sum_rule": total, "single": single,
                "hull": hull, "nogo": nogo}

    def perturb(self, out):
        out["sum_rule"] += 1e-3

    def check(self, q, out, chk):
        for f, blocks in out["blocks"].items():
            want = {lam for lam in oracle.frames(3, self.block_n) if oracle.kostka(f, lam)}
            chk.check(f"frames of f={f}: {sorted(blocks)} != {sorted(want)}",
                      set(blocks) == want)
            for lam, block in blocks.items():
                chk.close(f"trace of block f={f} lam={lam}", float(np.trace(block)),
                          oracle.kostka(f, lam) * oracle.hook_dim(lam), 1e-6)
        chk.close("block_weight sum rule", out["sum_rule"], 1.0, 1e-9)
        for rep in out["single"]:
            _check_sanov_report(chk, "single", rep, self.sigma, self.nulls[:1],
                                self.eps, False, False)
        for rep in out["hull"]:
            _check_sanov_report(chk, "hull", rep, self.sigma, self.nulls,
                                self.eps, True, False)
        for d, n, a, twirl, report in out["nogo"]:
            vals = np.linalg.eigvalsh(a)
            chk.check(f"invariant operator d={d} n={n} spectrum [{vals[0]}, {vals[-1]}]",
                      abs(vals[0]) < 1e-9 and abs(vals[-1] - 1.0) < 1e-9)
            chk.check(f"invariant operator d={d} n={n} not shift invariant",
                      oracle.cyclic_shift_defect(a, d, n) < 1e-9)
            chk.close(f"twirl d={d} n={n} trace", float(np.trace(twirl).real),
                      float(np.trace(a).real), 1e-9)
            u = oracle.kron_power(oracle.haar(d, _rng(self.seed, 30 + n)), n)
            chk.check(f"twirl d={d} n={n} not unitarily invariant",
                      float(np.abs(u @ twirl @ u.conj().T - twirl).max()) < 1e-8)
            chk.close(f"nogo d={d} n={n} min_eig", report.min_eig, float(vals[0]), 1e-9)
            chk.close(f"nogo d={d} n={n} bound", report.bound,
                      1.0 - report.eps_hat * (2.0 * d * n) ** (4 * d * d), 1e-12)

    def step(self, q, n):
        return q.run_sanov(self.sigma, self.nulls[:1], [n], epsilon=self.eps,
                           np_baseline=False)

    def check_step(self, q, out, chk):
        for rep in out:
            _check_sanov_report(chk, "single", rep, self.sigma, self.nulls[:1],
                                self.eps, False, False)


# ---------------------------------------------------------------------------


AVQS_COLUMNS = ("n", "|S|", "eps", "delta", "worst_type1", "type2",
                "empirical_exponent", "min_D_conv", "gamma")


def _state_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _word_block_accept(q, pairs, word, alphabet, basis) -> float:
    """tr{P rho_word}, summed block by block over the accepted labels."""
    sites = np.stack([alphabet[s] for s in word])
    return sum(q.block_weight(f, lam, sites, basis=basis) for f, lam in pairs)


class AvqsWords:
    """`qsanov avqs` in-process on two alphabets, then nets and smoothing."""

    eps = 0.25

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sigma = np.diag([0.75, 0.25]).astype(complex)
        # Bloch lengths keep (1 + r)/2 +- eps/2 off every k/n below n = 200
        self.alphabets = {
            "S2": [oracle.bloch(0.62, _rng(seed, 1)), oracle.bloch(0.38, _rng(seed, 2))],
            "S3": [oracle.bloch(r, _rng(seed, 3 + i)) for i, r in enumerate((0.52, 0.42, 0.32))],
        }
        self.n_ranges = {"S2": (2, 4), "S3": (2, 3)} if tiny else {"S2": (2, 9), "S3": (2, 6)}
        self.delta = 0.5 if tiny else 0.2
        self.n_smooth = 4 if tiny else 10
        self.n_robust = 3 if tiny else 7
        self.smooth_rho = oracle.bloch(0.7, _rng(seed, 9))
        self.configs: dict[str, str] = {}

    def prepare(self, work_dir: str) -> None:
        for key, gens in self.alphabets.items():
            cfg = {"sigma": {"diag": [0.75, 0.25]}, "epsilon": self.eps,
                   "null_set": [_state_json(s) for s in gens],
                   "n_range": list(self.n_ranges[key])}
            path = os.path.join(work_dir, f"avqs-{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.configs[key] = path

    def _cli(self, q, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = q.cli.main(["avqs", "--config", path, "--seed", str(self.seed)])
        return code, buf.getvalue()

    def job(self, q, mark):
        out = {}
        for key, path in self.configs.items():
            mark(f"cli_{key}")
            out[key] = self._cli(q, path)
        gens = self.alphabets["S2"]
        mark("delta_net")
        out["net"] = q.delta_net(gens, self.delta, rng=_rng(self.seed, 5))
        mark("smoothed_test")
        p = q.avqs_test(gens, self.sigma, self.eps, self.n_smooth)
        out["smoothed"] = (p, q.smoothed_test(p, self.delta, 2, self.n_smooth))
        mark("robustification")
        p = q.avqs_test(gens, self.sigma, self.eps, self.n_robust)
        out["robust"] = [
            (w, q.robustification_check(p, w, gens, rng=_rng(self.seed, 6)))
            for w in itertools.product(range(2), repeat=self.n_robust)
        ]
        return out

    def digest(self, out) -> str:
        return out["S2"][1] + out["S3"][1]

    def perturb(self, out):
        p, s = out["smoothed"]
        out["smoothed"] = (p, s * 1.001)

    def _check_csv(self, q, chk, key, code, text):
        # at these sizes the CLI enumerates every word, so its worst type-I is exact
        chk.check(f"avqs {key} exit code {code}", code == 0)
        if code != 0:
            return
        lines = text.strip().splitlines()
        chk.check(f"avqs {key} header {lines[0]!r}", tuple(lines[0].split(",")) == AVQS_COLUMNS)
        gens = self.alphabets[key]
        _, basis = oracle.eigenbasis(self.sigma)
        for line in lines[1:]:
            row = dict(zip(AVQS_COLUMNS, (float(x) for x in line.split(","))))
            n = int(row["n"])
            pairs = oracle.labels(self.sigma, gens, self.eps, n, hull=True)
            chk.close(f"avqs {key} n={n} type2", row["type2"],
                      oracle.type_two(pairs, (0.75, 0.25)), 1e-9)
            worst = max(
                1.0 - _word_block_accept(q, pairs, sum(((s,) * c for s, c in enumerate(f)), ()),
                                         gens, basis)
                for f in oracle.frequencies(len(gens), n)
            )
            chk.close(f"avqs {key} n={n} worst_type1", row["worst_type1"], worst, 1e-9)
        min_d = float(lines[1].split(",")[AVQS_COLUMNS.index("min_D_conv")])
        steps = 1000 if len(gens) == 2 else 40
        grid = min(
            oracle.rel_entropy(sum(c / steps * g for c, g in zip(counts, gens)), self.sigma)
            for counts in oracle.frequencies(len(gens), steps)
        )
        chk.check(f"avqs {key} min_D {min_d} above the weight grid {grid}", min_d <= grid + 1e-11)
        if len(gens) == 2:
            chk.check(f"avqs {key} min_D {min_d} far below the 1001-point grid {grid}",
                      grid - min_d < 1e-5)

    def check(self, q, out, chk):
        for key in self.alphabets:
            self._check_csv(q, chk, key, *out[key])
        gens = self.alphabets["S2"]
        net = out["net"]
        chk.check(f"net cover radius {net.cover_radius} above delta/2",
                  net.cover_radius <= self.delta / 2.0 + 1e-12)
        chk.check("net hull does not contain the smoothed generators", net.hull_contains_smoothed)
        worst = max(
            min(0.5 * np.abs(np.linalg.eigvalsh(
                (1 - self.delta) * g + self.delta * np.eye(2) / 2 - p)).sum() for p in net.points)
            for g in gens
        )
        chk.check(f"smoothed generator {worst} from the net", worst <= self.delta / 2.0 + 1e-12)
        p, s = out["smoothed"]
        n = self.n_smooth
        rho = self.smooth_rho
        dep = (1 - self.delta) * rho + self.delta * np.eye(2) / 2
        lhs = float(np.einsum("ij,ji->", s, oracle.kron_power(rho, n)).real)
        rhs = float(np.einsum("ij,ji->", p, oracle.kron_power(dep, n)).real)
        chk.close("smoothed test against depolarized states", lhs, rhs, 1e-9)
        pairs = oracle.labels(self.sigma, gens, self.eps, self.n_robust, hull=True)
        _, basis = oracle.eigenbasis(self.sigma)
        miss = {}
        for word, (lhs, rhs) in out["robust"]:
            k = sum(word)
            if k not in miss:
                rep = (0,) * (len(word) - k) + (1,) * k
                miss[k] = 1.0 - _word_block_accept(q, pairs, rep, gens, basis)
            chk.close(f"robustification word {word} miss", lhs, miss[k], 1e-9)
            chk.check(f"robustification word {word}: {lhs} above {rhs}", lhs <= rhs + 1e-12)


# ---------------------------------------------------------------------------


class QubitSanovAvqs(Workload):
    """d = 2: the Sanov sweep with NP, then the avqs CLI, nets and smoothing.

    The ladder is the Sanov pipeline with NP on the commuting null.
    """

    name = "qubit-sanov-avqs"
    min_reps = 2  # the avqs CSV of two runs is compared byte for byte

    def __init__(self, seed: int, tiny: bool):
        self.sanov = SanovNP(seed, tiny)
        self.avqs = AvqsWords(seed, tiny)
        self.floor_n = self.sanov.floor_n
        self.ladder = self.sanov.ladder

    def prepare(self, work_dir: str) -> None:
        self.avqs.prepare(work_dir)

    def job(self, q, mark):
        return {"sanov": self.sanov.job(q, mark), "avqs": self.avqs.job(q, mark)}

    def perturb(self, out):
        self.sanov.perturb(out["sanov"])
        self.avqs.perturb(out["avqs"])

    def check(self, q, out, chk):
        self.sanov.check(out["sanov"], chk)
        self.avqs.check(q, out["avqs"], chk)

    def digest(self, out) -> str:
        return self.avqs.digest(out["avqs"])

    def step(self, q, n):
        return self.sanov.step(q, n)

    def check_step(self, q, out, chk):
        self.sanov.check_step(out, chk)


WORKLOADS = {cls.name: cls for cls in (QubitSanovAvqs, FramesQutrit)}


def make(name: str, seed: int, tiny: bool) -> Workload:
    return WORKLOADS[name](seed, tiny)
