"""One in-process workload process: set up, then run ops in a closed loop.

    python3 perfbench/worker.py <workload> <inputs.json> <start> <seconds> \\
        <trace 0|1> <out.json> [fault]

(``inputs.json`` and ``inputs.json.ops`` as written by gen.py.)

Set-up is import, fixture loads and one warm-up op; the parent times it
from process start to ``t_ready``.  Then ops ``start, start+1, ...`` run one
after another until their summed latency reaches ``seconds`` or the
generated ops run out.  Each op's outputs are checked after its timer
stops; an exception or a failed check makes the op fail.  The result
(latencies, failures, set-up stamps) goes to ``out.json``; a traced
process also writes its spans next to it.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback

# output-check tolerances, from the acceptance suite where it has one
FIELD_TOL_G = 0.01  # criterion 10: field round trip
KAPPA_TOL = 1e-3  # criterion 4: field sensitivities, MHz/G
STRENGTH_TOL = 5e-5  # criterion 2: strength table vs bundled reference
PREDICT_TOL_MHZ = 1e-3  # criterion 10: calibration predictions
CENTRE_TOL_KHZ = 0.5  # test_calib: noisy 21-point scan centre
# test_calib asks 95% of 100-shot traces within 0.02 of the true error; a
# per-op check must hold on every trace, so it allows four times that
RABI_TOL = 0.08
# criterion 6 allows 4 sigma on 20 entries at d = 4; a run compares ~10^4
# entries, so the bound is 6 sigma (one count of variance floor for entries
# the exact evaluator makes rare)
PULL_BOUND = 6.0
ROW_SUM_TOL = 1e-9


class CalibSession:
    """One calibration session at a fresh field: line fits, field estimate,
    sensitivities and references, strength table, pi times, Rabi fit and,
    every fourth session, the linear frequency calibration."""

    def __init__(self, inputs):
        from ba137qudit import calib, fixtures, transitions

        self.refs = calib.paper13_transition_refs()
        self.nominal = {int(n): f for n, f in inputs["nominal_mhz"].items()}
        self.d_labels = dict(zip(self.refs, transitions.PAPER13_D_STATES))
        d_keys, s_keys, values = fixtures.load_strength_fixture()
        self.stretched_ref = float(values[d_keys.index("D:F4:m4"), s_keys.index("S:F2:m2")])

    def run(self, s):
        import numpy as np

        from ba137qudit import atomstruct, calib, transitions

        fits = {
            int(n): calib.fit_lorentzian(
                calib.FrequencyScan(sc["freq_khz"], sc["p_dark"], np.full(len(sc["freq_khz"]), sc["shots"]))
            )
            for n, sc in s["scans"].items()
        }
        measured = {
            self.refs[n]: self.nominal[n] + fit.center_khz * 1e-3 for n, fit in sorted(fits.items())
        }
        est = calib.estimate_field(measured)
        kappa = {n: atomstruct.field_sensitivity(g, e, est.B) for n, (g, e) in self.refs.items()}
        trio = calib.select_references(kappa)
        table = transitions.strength_table(est.B, transitions.PAPER13_GEOMETRY)
        ground = (2, 2)
        anchors = {
            int(q): ((ground, self.d_labels[a["n"]]), a["omega"]) for q, a in s["anchors"].items()
        }
        targets = [(ground, self.d_labels[n]) for n in self.refs]
        pi_times = calib.ratio_pi_calibration(anchors, table, targets)
        tr = s["rabi"]
        rabi = calib.fit_rabi_flop(calib.RabiTrace(tr["t_us"], tr["p"], np.full(len(tr["t_us"]), tr["shots"])))
        out = {"fits": fits, "est": est, "kappa": kappa, "trio": trio, "table": table,
               "pi_times": pi_times, "anchors": anchors, "rabi": rabi}
        if "history" in s:
            model = calib.fit_calibration([snapshot(calib, h) for h in s["history"]])
            t = s["test"]
            out["predicted"] = {
                n: calib.predict_frequency(model, t["f_offset"], t["f_low"], t["f_up"], n)
                for n in self.refs
            }
        return out

    def check(self, s, out) -> list[str]:
        from ba137qudit import transitions

        bad = []
        for n, fit in out["fits"].items():
            line = s["scans"][str(n)]["line_khz"]
            if abs(fit.center_khz - line) > CENTRE_TOL_KHZ:
                bad.append(f"line {n}: centre {fit.center_khz:.3f} kHz, generated {line:.3f}")
        b = out["est"].B
        if not abs(b - s["B_true"]) < FIELD_TOL_G:
            bad.append(f"field estimate {b:.5f} G, true {s['B_true']:.5f} G")
        for n, k in out["kappa"].items():
            if not abs(k - s["kappa"][str(n)]) < KAPPA_TOL:
                bad.append(f"kappa {n}: {k:.5f} MHz/G, expected {s['kappa'][str(n)]:.5f}")
        kappa = out["kappa"]
        offset, low, up = out["trio"]
        if not (kappa[low] < 0 < kappa[up] and abs(kappa[offset]) == min(abs(v) for v in kappa.values())):
            bad.append(f"references {out['trio']} do not follow the selection rule")
        picked = transitions.encodable_states(out["table"])
        if picked != transitions.PAPER13_D_STATES:
            bad.append(f"encodable states at {b:.4f} G differ from the 13-level set")
        stretched = out["table"].value((4, 4), (2, 2))
        if not abs(stretched - self.stretched_ref) < STRENGTH_TOL:
            bad.append(f"stretched strength {stretched:.5f}, reference {self.stretched_ref}")
        for pair, omega in out["anchors"].values():
            got = out["pi_times"][pair][0]
            if not abs(got - omega) <= 1e-12 * omega:
                bad.append(f"anchor {pair} predicts {got}, measured {omega}")
        if not all(0 < tau < math.inf for _, tau in out["pi_times"].values()):
            bad.append("a pi time is not finite and positive")
        eps = out["rabi"].eps_pi
        if not abs(eps - s["rabi"]["eps_pi"]) < RABI_TOL:
            bad.append(f"Rabi eps_pi {eps:.4f}, generated {s['rabi']['eps_pi']:.4f}")
        for n, f in out.get("predicted", {}).items():
            truth = s["test"]["freqs"][str(n)]
            if not abs(f - truth) < PREDICT_TOL_MHZ:
                bad.append(f"calibration predicts line {n} at {f:.6f} MHz, true {truth:.6f}")
        return bad


def snapshot(calib, h):
    return calib.CalSnapshot(
        f_offset=h["f_offset"], f_low=h["f_low"], f_up=h["f_up"],
        freqs={int(n): f for n, f in h["freqs"].items()},
    )


class SpamSweep:
    """One noise -> SPAM evaluation: chi per encoded transition, pulse errors,
    Monte Carlo confusion matrices with post-selection and scaling curves,
    exact enumeration of a small sub-encoding against its Monte Carlo, and
    the error-scaling fit."""

    def __init__(self, inputs):
        from ba137qudit import fixtures, spam

        self.enc = {13: spam.paper13_encoding(), 25: spam.twenty_five_level_encoding()}
        self.rows = {
            r.index: (r.kappa, r.tau_pi_us * 1e-6)
            for r in fixtures.load_transition_params()
            if r.index not in (None, 0)
        }
        self.keys = {}  # key string -> (AtomicState, AtomicState)

    def key(self, text):
        """Pulse key "S:F2:m2->D:F4:m4" as a pair of atomic states."""
        from ba137qudit import spam

        if text not in self.keys:
            self.keys[text] = tuple(spam.parse_atomic_state(s) for s in text.split("->"))
        return self.keys[text]

    def errors(self, s, eps_of_key, leak):
        from ba137qudit import spam

        return spam.ErrorParams(
            eps_pi=eps_of_key,
            prep_error=s["prep_error"],
            p_dark_given_s=s["p_dark_given_s"],
            p_bright_given_d=s["p_bright_given_d"],
            decay_rate=s["decay_rate"],
            leak={self.key(a): (self.key(b), p) for a, b, p in leak},
        )

    def run(self, s):
        from ba137qudit import noise, spam

        model = noise.NoiseModel(**s["noise"])
        chi = {n: noise.chi_numeric(model, noise.TransitionNoiseParams(k, t)) for n, (k, t) in self.rows.items()}
        eps = {n: noise.pi_pulse_error(c) for n, c in chi.items()}
        enc = self.enc[s["d"]]
        errors = self.errors(s, {self.key(k): eps[row] for k, row in s["key_rows"]}, s["leak"])
        raw = spam.run_experiment(enc, errors, s["shots"], s["seed"], mode=s["mode"], intervals=s["interval_s"])
        post = spam.post_select(raw)
        fid_raw = spam.average_fidelity(raw)
        fid_post = spam.average_fidelity(post)
        diag = post.diagonal()
        curves = spam.scaling_analysis({i: float(p) for i, p in enumerate(diag)}, range(2, enc.d + 1))

        sub_in = s["sub"]
        e13 = self.enc[13]
        sub = spam.QuditEncoding("sub", (e13.states[0],) + tuple(e13.states[n] for n in sub_in["states"]))
        sub_eps = {(e13.states[0], e13.states[n]): eps[n] for n in sub_in["states"]}
        sub_errors = self.errors(s, sub_eps, sub_in["leak"])
        exact = [
            spam.enumerate_outcomes(sub, sub_errors, p, mode=s["mode"], intervals=s["interval_s"])
            for p in range(sub.d)
        ]
        mc = spam.run_experiment(sub, sub_errors, sub_in["shots"], sub_in["seed"], mode=s["mode"],
                                 intervals=s["interval_s"])

        row_of = dict(s["key_rows"])
        points = [(*self.rows[row_of[k]], 1.0 - float(diag[n])) for n, k in s["readout"]]
        fit = noise.fit_error_scaling(points)
        return {"chi": chi, "raw": raw, "post": post, "fid": (fid_raw, fid_post), "curves": curves,
                "exact": exact, "mc": mc, "sub_d": sub.d, "fit": fit}

    def check(self, s, out) -> list[str]:
        bad = []
        if not all(math.isfinite(c) and c >= 0 for c in out["chi"].values()):
            bad.append("chi is negative or not finite")
        for name in ("raw", "post", "mc"):
            dev = abs(out[name].probs.sum(axis=1) - 1.0).max()
            if not dev < ROW_SUM_TOL:
                bad.append(f"{name} confusion rows miss unit sum by {dev:.2e}")
        for f, _ in out["fid"]:
            if not 0.0 <= f <= 1.0:
                bad.append(f"average fidelity {f} outside [0, 1]")
        curves = out["curves"]
        if not all(o >= w - 1e-12 for o, w in zip(curves.optimal, curves.worst)):
            bad.append("optimal scaling curve below the worst one")
        if not abs(curves.optimal[-1] - out["fid"][1][0]) < 1e-12:
            bad.append("scaling curve end point differs from the post-selected fidelity")
        shots = s["sub"]["shots"]
        worst = 0.0
        for p, exact in enumerate(out["exact"]):
            if not abs(sum(exact.values()) - 1.0) < ROW_SUM_TOL:
                bad.append(f"exact outcome distribution of state {p} misses unit sum")
            for col in range(out["sub_d"] + 1):
                q = exact.get(None if col == out["sub_d"] else col, 0.0)
                k = out["mc"].probs[p, col] * out["mc"].shots[p]
                worst = max(worst, abs(k - shots * q) / math.sqrt(shots * q * (1 - q) + 1.0))
        if not worst < PULL_BOUND:
            bad.append(f"Monte Carlo vs exact enumeration: worst pull {worst:.1f} sigma")
        fit = out["fit"]
        if not (math.isfinite(fit.scale) and math.isfinite(fit.intercept)):
            bad.append("error-scaling fit parameters are not finite")
        return bad


SESSIONS = {"calib-session": CalibSession, "spam-sweep": SpamSweep}


def main(argv) -> int:
    workload, inputs_path, start, seconds, trace, out_path = argv[1:7]
    fault = argv[7] if len(argv) > 7 else None
    start, seconds, trace = int(start), float(seconds), trace == "1"
    with open(inputs_path) as fh:
        inputs = json.load(fh)

    t_import = time.perf_counter()
    import ba137qudit  # noqa: F401

    t_imported = time.perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.add_span("import.ba137qudit", t_import, t_imported, None)
        install(tracer)
    if fault:
        import faults

        faults.inject(fault)
    session = SESSIONS[workload](inputs)
    warmup_problems = session.check(inputs["warmup"], session.run(inputs["warmup"]))
    t_ready = time.perf_counter()

    with open(inputs_path + ".ops") as fh:
        ops = json.load(fh)
    results = []  # [op index, latency s, ok, message]
    busy = 0.0
    i = start
    while busy < seconds and i < len(ops):
        s = ops[i]
        sid = None
        if tracer is not None:
            tracer.op = i
            sid = tracer.open("op")
        t0 = time.perf_counter()
        try:
            out = session.run(s)
        except Exception as exc:  # any exception is a failed op, not a crash
            out = None
            message = "".join(traceback.format_exception_only(exc)).strip()
        t1 = time.perf_counter()
        if sid is not None:
            tracer.close(sid, t1)
        busy += t1 - t0
        if out is not None:
            message = "; ".join(session.check(s, out))
        results.append([i, t1 - t0, not message, message])
        i += 1

    doc = {"t_import": t_import, "t_ready": t_ready, "warmup_problems": warmup_problems,
           "ops": results, "next": i}
    if tracer is not None:
        tracer.write(out_path + ".spans")
        doc["spans"] = out_path + ".spans"
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
