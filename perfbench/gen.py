"""Seeded inputs for one benchmark run, written as plain JSON data.

Run in its own process, before any timing, so that the library calls made
here (true line frequencies, expected slopes, plan keys) never fill the
per-field caches of the process under test:

    python3 perfbench/gen.py <workload> <seed> <count> <out.json>

writes the op list to ``<out.json>.ops`` and everything else (warm-up op,
shared data, library versions) to ``<out.json>``.

``count`` is the number of ops to generate (the caller sizes it so that a
run never runs out).  Inputs are stratified in blocks: every block of ops
covers the same spread of sizes in a seeded order, so the op mix of a run
hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import scipy

import ba137qudit
from ba137qudit import atomstruct, calib, spam
from ba137qudit.fixtures import load_transition_params

B_NOMINAL = 8.35  # G, the operating point the line frequencies are known at
B_BAND = (7.85, 8.85)  # G, session fields: inside the (0, 20) G prior, off its edges
SENS_STEP = 1e-3  # G, finite-difference step of field_sensitivity
CAL_WINDOW = 0.02  # G, drift window of a calibration history (criterion 10)
LINE_WIDTH_KHZ = 5.0
SCAN_NOISE = 0.02  # uniform p_dark noise of a fine scan (test_calib config)


def bit_reversed(n: int) -> np.ndarray:
    """0..n-1 (n a power of two) in bit-reversed order, so that every prefix
    of the sequence is spread evenly over the whole range."""
    bits = n.bit_length() - 1
    return np.array([int(format(k, f"0{bits}b")[::-1], 2) for k in range(n)])


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw per equal-width stratum of [lo, hi] (n a power of
    two), strata in bit-reversed order: a run that stops inside a block
    still samples the whole range."""
    return lo + (hi - lo) * (bit_reversed(n) + rng.random(n)) / n


def table_rows():
    """n -> (kappa MHz/G, tau_pi us) of the 12 encoded transitions."""
    return {
        r.index: (r.kappa, r.tau_pi_us)
        for r in load_transition_params()
        if r.index not in (None, 0)
    }


class Frequencies:
    """Model line frequencies at many fields from one labeling walk per level."""

    def __init__(self, fields):
        bs = sorted(set(float(b) for b in fields))
        self.systems = {
            level.name: dict(zip(bs, atomstruct.diagonalize_range(level, bs)))
            for level in (atomstruct.BA137_S12, atomstruct.BA137_D52)
        }

    def freq(self, pair, B: float) -> float:
        g, e = pair
        gs = self.systems[g.level.name][float(B)].state(g.F, g.m)
        es = self.systems[e.level.name][float(B)].state(e.F, e.m)
        return atomstruct.transition_frequency(gs, es)

    def snapshot(self, B: float) -> dict:
        trio = calib.reference_trio()
        return {
            "f_offset": self.freq(trio["offset"], B),
            "f_low": self.freq(trio["low"], B),
            "f_up": self.freq(trio["up"], B),
            "freqs": {str(n): self.freq(p, B) for n, p in calib.paper13_transition_refs().items()},
        }


def lorentz_scan(rng, delta_khz: float) -> dict:
    """21-point, 1 kHz fine scan around the 10 kHz coarse-grid point nearest
    the line, as the two-stage search of the calibration procedure does."""
    centre = 10.0 * round(delta_khz / 10.0)
    f = centre + np.arange(-10.0, 11.0)
    p = 0.5 * LINE_WIDTH_KHZ**2 / ((f - delta_khz) ** 2 + LINE_WIDTH_KHZ**2) + 0.02
    p = np.clip(p + rng.uniform(-SCAN_NOISE, SCAN_NOISE, len(f)), 0.0, 1.0)
    return {"freq_khz": f.tolist(), "p_dark": p.tolist(), "shots": 400, "line_khz": delta_khz}


def rabi_trace(rng) -> dict:
    """First ~1.6 Rabi periods at 100 shots per point (binomial noise)."""
    eps = rng.uniform(0.01, 0.1)
    offset = rng.uniform(0.0, 0.03)
    t_pi = rng.uniform(30.0, 100.0)
    t = np.arange(0.0, 3.2 * t_pi, t_pi / 50.0)
    p = (1.0 - eps - offset) * np.sin(np.pi * t / (2.0 * t_pi)) ** 2 + offset
    y = rng.binomial(100, np.clip(p, 0.0, 1.0)) / 100.0
    return {"t_us": t.tolist(), "p": y.tolist(), "shots": 100, "eps_pi": eps}


def history_fields(rng, b_centre: float, n: int) -> list[float]:
    return sorted(b_centre + stratified(rng, n, -CAL_WINDOW, CAL_WINDOW))


# ---------------------------------------------------------------- calib-session

def gen_calib(rng, count: int) -> dict:
    refs = calib.paper13_transition_refs()
    rows = table_rows()
    q_of = {n: (e.m - g.m).twice // 2 for n, (g, e) in refs.items()}
    block = 8
    n_total = count + 1  # one extra session is the warm-up op
    b_true = np.concatenate(
        [stratified(rng, block, *B_BAND) for _ in range(-(-n_total // block))]
    )[:n_total]
    plans = []
    fields = [B_NOMINAL]
    for i, b in enumerate(b_true):
        plan = {"B_true": float(b)}
        if i % 4 == 3:
            plan["history"] = history_fields(rng, b, 4)
            plan["test_B"] = float(b + rng.uniform(-0.75, 0.75) * CAL_WINDOW)
            fields += plan["history"] + [plan["test_B"]]
        fields += [b, b - SENS_STEP, b + SENS_STEP]
        plans.append(plan)
    model = Frequencies(fields)
    nominal = {n: model.freq(p, B_NOMINAL) for n, p in refs.items()}

    sessions = []
    for plan in plans:
        b = plan["B_true"]
        kappa = {
            str(n): (model.freq(p, b + SENS_STEP) - model.freq(p, b - SENS_STEP)) / (2 * SENS_STEP)
            for n, p in refs.items()
        }
        scans = {
            str(n): lorentz_scan(rng, (model.freq(p, b) - nominal[n]) * 1e3)
            for n, p in refs.items()
        }
        anchors = {}
        for q in (2, 1, 0, -1, -2):
            n = int(rng.choice([k for k in refs if q_of[k] == q]))
            tau = rows[n][1] * rng.uniform(0.9, 1.1)
            anchors[str(q)] = {"n": n, "omega": math.pi / tau}
        s = {
            "B_true": b,
            "scans": scans,
            "kappa": kappa,
            "anchors": anchors,
            "rabi": rabi_trace(rng),
        }
        if "history" in plan:
            s["history"] = [model.snapshot(h) for h in plan["history"]]
            s["test"] = model.snapshot(plan["test_B"])
        sessions.append(s)
    return {
        "nominal_mhz": {str(n): f for n, f in nominal.items()},
        "warmup": sessions[-1],
        "ops": sessions[:-1],
    }


# ---------------------------------------------------------------- spam-sweep

def pulse_key(key) -> str:
    return f"{key[0].key}->{key[1].key}"


def readout_keys(encoding) -> list:
    """(state index, key of the pulse just before its check) for n >= 1."""
    plan = spam.build_measurement_sequence(encoding)
    out, last = [], None
    for step in plan.steps:
        if isinstance(step, spam.PulseStep):
            last = step
        elif step.outcome != 0:
            out.append([step.outcome, pulse_key(last.key)])
    return out


def noise_model(rng) -> dict:
    return {
        "h_a": 10 ** rng.uniform(-10.0, -8.0),
        "h_b": 10 ** rng.uniform(-14.0, -12.0),
        "h_peak": 10 ** rng.uniform(-10.0, -8.0) / (2 * math.pi),
        "omega_0": 2 * math.pi * 10 ** rng.uniform(-1.0, 0.0),
        "omega_ac": 2 * math.pi * float(rng.choice([50.0, 60.0])),
        "delta_omega_ac": 2 * math.pi * 10 ** rng.uniform(-0.3, 0.3),
    }


class SpamOps:
    """Seeded noise -> SPAM evaluations on the 13- and 25-level encodings."""

    def __init__(self):
        self.enc = {13: spam.paper13_encoding(), 25: spam.twenty_five_level_encoding()}
        zero = self.enc[13].states[0]
        # keys (|0>, |n>) of the 13-level scheme use row n of the bundled
        # table; every other pulse gets a seeded row
        self.row_of = {
            pulse_key((zero, s)): n for n, s in enumerate(self.enc[13].states) if n
        }
        self.keys = {
            d: sorted(pulse_key(k) for k in spam.build_measurement_sequence(e).pulse_keys())
            for d, e in self.enc.items()
        }
        self.readout = {d: readout_keys(e) for d, e in self.enc.items()}

    def op(self, rng, d: int, mode: str, shots: int, d_sub: int) -> dict:
        key_rows = [[k, self.row_of.get(k, int(rng.integers(1, 13)))] for k in self.keys[d]]
        a, b = rng.choice(len(key_rows), size=2, replace=False)
        sub = sorted(rng.choice(np.arange(1, 13), size=d_sub - 1, replace=False).tolist())
        sub_keys = [pulse_key((self.enc[13].states[0], self.enc[13].states[n])) for n in sub]
        return {
            "d": d,
            "mode": mode,
            "shots": shots,
            "seed": int(rng.integers(2**31)),
            "interval_s": 9e-3,
            "noise": noise_model(rng),
            "key_rows": key_rows,
            "readout": self.readout[d],
            "prep_error": rng.uniform(0.0, 0.01),
            "p_dark_given_s": rng.uniform(0.0, 0.005),
            "p_bright_given_d": rng.uniform(0.0, 0.005),
            "decay_rate": rng.uniform(0.02, 0.05),
            "leak": [
                [key_rows[a][0], key_rows[b][0], rng.uniform(1e-3, 1e-2)],
                [key_rows[b][0], key_rows[a][0], rng.uniform(1e-3, 1e-2)],
            ],
            "sub": {
                "states": sub,
                "shots": 20000,
                "seed": int(rng.integers(2**31)),
                "leak": [[sub_keys[0], sub_keys[1], rng.uniform(1e-3, 1e-2)]],
            },
        }


def gen_spam(rng, count: int) -> dict:
    maker = SpamOps()
    warmup = maker.op(rng, 13, "first-bright", 1000, 4)
    ops = []
    while len(ops) < count:
        # a block of 16: d alternates; each d gets one draw from each of 8
        # log-shot strata and every sub-encoding size twice
        log_shots = {d: stratified(rng, 8, 3.0, 5.0) for d in (13, 25)}
        for k in range(16):
            d, j = (13, 25)[k % 2], k // 2
            # strict-single-bright reads every full25 shot as Null (ground
            # states other than |0> stay bright after their check), so the
            # readout mode alternates on the 13-level encoding only
            mode = ("first-bright", "strict-single-bright")[(j // 2) % 2] if d == 13 else "first-bright"
            d_sub = 4 + (j + j // 4) % 4
            ops.append(maker.op(rng, d, mode, int(round(10 ** log_shots[d][j])), d_sub))
    return {"warmup": warmup, "ops": ops[:count]}


# ---------------------------------------------------------------- cli-cold

# one block of the cli-cold mix, in a fixed order: the slowest command
# (estimate-b, cold field grid) opens every block, so a run's op mix does
# not hinge on where its time ends; only the commands' arguments are seeded
CLI_KINDS = (
    "estimate-b", "levels", "budget", "strengths", "fit-lorentzian", "spam-sim",
    "fit-rabi", "eigenstates", "fit-error-scaling", "calibrate-demo",
    "spam-analyze", "fit-calibration",
)


def csv_text(header, rows) -> str:
    lines = [",".join(header)] + [",".join(repr(x) if isinstance(x, float) else str(x) for x in r) for r in rows]
    return "\n".join(lines) + "\n"


def scaling_points(rng) -> tuple[list, float]:
    """Error-scaling data eps = b + spam(pi(c x)) + noise at the bundled
    kappa, tau_pi of the 12 encoded transitions."""
    b = rng.uniform(0.02, 0.05)
    c = 10 ** rng.uniform(6.0, 6.7)
    rows = []
    for kappa, tau_us in table_rows().values():
        x = (kappa * tau_us * 1e-6) ** 2
        eps = 0.5 * -math.expm1(-c * x)
        rows.append([kappa, tau_us, b + eps / (eps + (1 - eps) ** 2) + rng.normal(0.0, 0.003)])
    return rows, b


def cli_op(rng, kind: str, model: Frequencies, plan: dict) -> dict:
    if kind == "estimate-b":
        refs = calib.paper13_transition_refs()
        states = spam.paper13_encoding().states
        rows = [[pulse_key((states[0], states[n])),
                 model.freq(refs[n], plan["B_true"]) + rng.uniform(-1e-3, 1e-3)]
                for n in (1, 3, 5, 10)]
        return {"argv": ["estimate-b", "{work}/splittings.csv"],
                "files": {"splittings.csv": csv_text(["transition", "freq_MHz"], rows)},
                "expect": {"B": plan["B_true"]}}
    if kind == "levels":
        b_max = round(float(rng.uniform(8.0, 12.0)), 2)
        return {"argv": ["levels", "--level", "5D5/2", "--b", f"0:{b_max}:0.05"],
                "expect": {"n_fields": int(round(b_max / 0.05)) + 1}}
    if kind == "eigenstates":
        f = int(rng.integers(1, 5))
        m = int(rng.integers(-f, f + 1))
        b_max = round(float(rng.uniform(8.0, 12.0)), 1)
        return {"argv": ["eigenstates", "--level", "5D5/2", "--f-tilde", str(f),
                         "--m-tilde", str(m), "--b", f"0:{b_max}:0.1"],
                "expect": {"file": f"eigenstate_5D52_F{f}_m{m}.csv",
                           "n_fields": int(round(b_max / 0.1)) + 1}}
    if kind == "strengths":
        fmt = str(rng.choice(["csv", "both"]))
        return {"argv": ["strengths", "--format", fmt, "--list-encodable"], "expect": {}}
    if kind == "spam-sim":
        shots = int(round(10 ** rng.uniform(3.0, 4.0)))
        mode = str(rng.choice(["first-bright", "strict-single-bright"]))
        return {"argv": ["--seed", str(int(rng.integers(2**31))), "spam", "--errors",
                         "table-e5", "--shots", str(shots), "--mode", mode],
                "expect": {"shots": shots}}
    if kind == "spam-analyze":
        table = str(rng.choice(["e2", "e3", "s1", "s2"]))
        return {"argv": ["spam", "--analyze", f"src/ba137qudit/fixtures/table_{table}.csv"],
                "expect": {"table": table}}
    if kind == "fit-lorentzian":
        scan = lorentz_scan(rng, float(rng.uniform(-5.0, 5.0)))
        rows = [[f, p, scan["shots"]] for f, p in zip(scan["freq_khz"], scan["p_dark"])]
        return {"argv": ["fit", "lorentzian", "{work}/scan.csv"],
                "files": {"scan.csv": csv_text(["freq_kHz", "p_dark", "shots"], rows)},
                "expect": {"center_khz": scan["line_khz"]}}
    if kind == "fit-rabi":
        tr = rabi_trace(rng)
        rows = [[t, p, tr["shots"]] for t, p in zip(tr["t_us"], tr["p"])]
        return {"argv": ["fit", "rabi", "{work}/rabi.csv"],
                "files": {"rabi.csv": csv_text(["t_us", "p_transition", "shots"], rows)},
                "expect": {"eps_pi": tr["eps_pi"]}}
    if kind == "fit-error-scaling":
        rows, b = scaling_points(rng)
        return {"argv": ["fit", "error-scaling", "{work}/points.csv"],
                "files": {"points.csv": csv_text(["kappa_MHz_per_G", "tau_pi_us", "eps_spam"], rows)},
                "expect": {"intercept": b}}
    if kind == "fit-calibration":
        snaps = [model.snapshot(h) for h in plan["history"]]
        ns = sorted(snaps[0]["freqs"], key=int)
        header = ["f_offset_MHz", "f_low_MHz", "f_up_MHz"] + [f"f{n}_MHz" for n in ns]
        rows = [[s["f_offset"], s["f_low"], s["f_up"]] + [s["freqs"][n] for n in ns] for s in snaps]
        return {"argv": ["fit", "calibration", "{work}/history.csv"],
                "files": {"history.csv": csv_text(header, rows)},
                "expect": {"test": model.snapshot(plan["test_B"])}}
    if kind == "calibrate-demo":
        return {"argv": ["--seed", str(int(rng.integers(2**31))), "calibrate-demo",
                         "--sessions", str(int(rng.integers(3, 7))),
                         "--b-center", f"{rng.uniform(*B_BAND):.4f}"],
                "expect": {}}
    if kind == "budget":
        fl = round(float(rng.uniform(3.0, 7.0)), 3)
        awg = round(float(rng.uniform(2.0, 6.0)), 3)
        return {"argv": ["budget", "--fluorescence-ms", str(fl), "--awg-ms", str(awg)],
                "expect": {"fluorescence_ms": fl, "awg_ms": awg}}
    raise ValueError(kind)


def gen_cli(rng, count: int) -> dict:
    n_blocks = -(-count // len(CLI_KINDS))
    plans = []
    fields = []
    for _ in range(n_blocks):
        b_est, b_cal = rng.uniform(*B_BAND, size=2)
        plan = {"B_true": float(b_est), "history": history_fields(rng, b_cal, 4),
                "test_B": float(b_cal + rng.uniform(-0.75, 0.75) * CAL_WINDOW)}
        fields += [plan["B_true"], plan["test_B"]] + plan["history"]
        plans.append(plan)
    model = Frequencies(fields)
    ops = []
    for plan in plans:
        for kind in CLI_KINDS:
            op = cli_op(rng, kind, model, plan)
            op["kind"] = kind
            ops.append(op)
    return {"block": len(CLI_KINDS), "ops": ops}


GENERATORS = {"calib-session": gen_calib, "spam-sweep": gen_spam, "cli-cold": gen_cli}


def main(argv) -> int:
    workload, seed, count, out = argv[1], int(argv[2]), int(argv[3]), argv[4]
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    doc = GENERATORS[workload](rng, count)
    doc["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ba137qudit": ba137qudit.__version__,
    }
    # the op list goes to its own file: a workload process reads it only
    # after its set-up is timed
    with open(out + ".ops", "w") as fh:
        json.dump(doc.pop("ops"), fh)
    with open(out, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
