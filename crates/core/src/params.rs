//! The paper's parameters (§2.1), exact and simulation-scale.
//!
//! The published parameter block was reconstructed from its uses in the
//! analysis (the conference OCR garbled it); each formula below is pinned
//! down by the lemma that consumes it:
//!
//! | param | value | pinned by |
//! |-------|-------|-----------|
//! | `a`   | `2e³ / ln(LN)` | Lemma 2.2 (per-set congestion `≤ ln(LN)` w.h.p.) |
//! | `m`   | `ln²(LN) + 5`  | Lemma 4.21 / invariant `I_f` |
//! | `q`   | `1 / (m² ln(LN))` | Lemma 4.13 (`mq = 1/(m ln LN)`) |
//! | `w`   | `4e·m²·ln(LN)·ln(1/p₁) + 3m + 1` | Lemma 4.15 |
//! | `p₀`  | `1 − 1/(2LN)`  | Lemma 2.2, basis of `p(k)` |
//! | `p₁`  | `1/((SM+L)·2SM·L·N²)` with `SM = aC·m` | Theorem 2.6 unfolding |
//! | `p(k)`| `p₀·(1 − SM·N·p₁/m)ᵏ`... see [`PaperParams::p`] | §4.3 |
//!
//! With these, the schedule runs `aC·m + L` phases of `m·w` steps each —
//! the `O((C+L)·ln⁹(LN))` total of Theorem 2.6, delivered with probability
//! at least `1 − 1/(LN)`. The `T7` experiment tabulates these formulas;
//! they are far too large to simulate literally (the paper itself calls
//! the algorithm "not really practical"), so simulations use the same
//! algorithm under the tunable [`Params`].

use routing_core::RoutingProblem;

/// The literal paper parameters for a problem with congestion `C`, depth
/// `L` and `N` packets. All values `f64` because they are astronomically
/// large for any interesting instance.
#[derive(Clone, Copy, Debug)]
pub struct PaperParams {
    /// Problem congestion `C`.
    pub c: f64,
    /// Network depth `L`.
    pub l: f64,
    /// Number of packets `N`.
    pub n: f64,
    /// `ln(LN)` (clamped below by 1 so tiny toy instances stay finite).
    pub ln_ln: f64,
    /// Frontier-set density: `aC` frontier sets are used.
    pub a: f64,
    /// Inner levels per frame = rounds per phase.
    pub m: f64,
    /// Per-step excitation probability.
    pub q: f64,
    /// Steps per round.
    pub w: f64,
    /// Basis success probability `p₀`.
    pub p0: f64,
    /// Per-phase failure quantum `p₁`.
    pub p1: f64,
}

impl serde::Serialize for PaperParams {
    fn to_json(&self) -> serde::Value {
        serde::Value::object([
            ("c", self.c.to_json()),
            ("l", self.l.to_json()),
            ("n", self.n.to_json()),
            ("ln_ln", self.ln_ln.to_json()),
            ("a", self.a.to_json()),
            ("m", self.m.to_json()),
            ("q", self.q.to_json()),
            ("w", self.w.to_json()),
            ("p0", self.p0.to_json()),
            ("p1", self.p1.to_json()),
        ])
    }
}

impl PaperParams {
    /// Evaluates the paper's formulas for `(C, L, N)`.
    pub fn new(c: u64, l: u64, n: u64) -> Self {
        let c = (c as f64).max(1.0);
        let l = (l as f64).max(1.0);
        let n = (n as f64).max(1.0);
        let ln_ln = (l * n).ln().max(1.0);
        let e = std::f64::consts::E;
        let a = 2.0 * e.powi(3) / ln_ln;
        let m = ln_ln.powi(2) + 5.0;
        let q = 1.0 / (m * m * ln_ln);
        // "amC" in the paper: (number of frontier sets ⌈aC⌉) times m. Using
        // the ceiled set count keeps p(k) and p₁ algebraically consistent,
        // so the Theorem 2.6 bound holds exactly.
        let amc = (a * c).ceil().max(1.0) * m;
        let p1 = 1.0 / ((amc + l) * 2.0 * amc * l * n * n);
        let w = 4.0 * e * m * m * ln_ln * (1.0 / p1).ln() + 3.0 * m + 1.0;
        let p0 = 1.0 - 1.0 / (2.0 * l * n);
        PaperParams {
            c,
            l,
            n,
            ln_ln,
            a,
            m,
            q,
            w,
            p0,
            p1,
        }
    }

    /// Number of frontier sets, `⌈aC⌉`.
    pub fn num_sets(&self) -> f64 {
        (self.a * self.c).ceil().max(1.0)
    }

    /// Number of phases until the last frontier-frame leaves the network:
    /// `aC·m + L` (the paper's `amC + L`).
    pub fn total_phases(&self) -> f64 {
        self.num_sets() * self.m + self.l
    }

    /// Total routing time `(aC·m + L)·m·w` of Proposition 4.25.
    pub fn total_time(&self) -> f64 {
        self.total_phases() * self.m * self.w
    }

    /// The inductive success probability `p(k) = p₀·(1 − aC·m·N·p₁)^k`
    /// (paper §2.1, unrolled). Evaluated via `ln_1p`/`exp`: `x` is tiny and
    /// `k` huge, so `powf` would lose the Θ(1/(LN)²) margin over the
    /// Theorem 2.6 bound to rounding.
    pub fn p(&self, k: f64) -> f64 {
        let amc = self.num_sets() * self.m;
        let x = amc * self.n * self.p1;
        self.p0 * (k * (-x).ln_1p()).exp()
    }

    /// The success probability of the whole run, `p(aC·m + L)`; Theorem 2.6
    /// shows it is at least `1 − 1/(LN)`.
    pub fn success_probability(&self) -> f64 {
        self.p(self.total_phases())
    }

    /// Theorem 2.6's lower bound on the success probability.
    pub fn success_lower_bound(&self) -> f64 {
        1.0 - 1.0 / (self.l * self.n)
    }

    /// The "Õ factor": total time divided by `C + L`, which Theorem 2.6
    /// bounds by `O(ln⁹(LN))`.
    pub fn polylog_factor(&self) -> f64 {
        self.total_time() / (self.c + self.l)
    }
}

/// Simulation-scale parameters: the same algorithm structure with tunable
/// constants. [`Params::auto`] picks values that deliver reliably at
/// laptop scale; the ablation experiments (`A1`–`A3`) sweep them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Inner levels per frontier-frame = rounds per phase (paper `m`,
    /// must be ≥ 3: injections happen at inner level `m−1`, targets recede
    /// to inner level `m−2`).
    pub m: u32,
    /// Steps per round (paper `w`).
    pub w: u32,
    /// Per-step excitation probability (paper `q`).
    pub q: f64,
    /// Number of frontier sets (paper `⌈aC⌉`).
    pub num_sets: u32,
    /// After the scheduled phases end, keep simulating (packets then chase
    /// their destinations directly) for at most this many extra scheduled
    /// lengths before giving up.
    pub grace_factor: u32,
}

impl serde::Serialize for Params {
    fn to_json(&self) -> serde::Value {
        serde::Value::object([
            ("m", self.m.to_json()),
            ("w", self.w.to_json()),
            ("q", self.q.to_json()),
            ("num_sets", self.num_sets.to_json()),
            ("grace_factor", self.grace_factor.to_json()),
        ])
    }
}

impl Params {
    /// Explicit parameters; panics if structurally invalid.
    pub fn scaled(m: u32, w: u32, q: f64, num_sets: u32) -> Self {
        let p = Params {
            m,
            w,
            q,
            num_sets,
            grace_factor: 3,
        };
        p.validate();
        p
    }

    /// Heuristic parameters for `problem`, scaling the paper's shapes down
    /// to practical constants: roughly `C/2` frontier sets (per-set
    /// congestion ~2), frames of `Θ(ln(LN))` levels, rounds long enough to
    /// cross a frame several times.
    pub fn auto(problem: &RoutingProblem) -> Self {
        let l = problem.network().depth().max(1) as f64;
        let n = problem.num_packets().max(1) as f64;
        let ln_ln = (l * n).ln().max(2.0);
        let m = (ln_ln.ceil() as u32).clamp(4, 12);
        let w = 8 * m;
        let q = 1.0 / (m as f64);
        let num_sets = (problem.congestion() / 2).max(1);
        Params {
            m,
            w,
            q,
            num_sets,
            grace_factor: 3,
        }
    }

    /// The literal paper parameters, rounded to integers. These are
    /// astronomically large for any non-trivial instance — useful only to
    /// demonstrate the formulas or drive micro-instances.
    pub fn from_paper(c: u64, l: u64, n: u64) -> Self {
        let p = PaperParams::new(c, l, n);
        Params {
            m: p.m.ceil() as u32,
            w: p.w.ceil().min(u32::MAX as f64) as u32,
            q: p.q,
            num_sets: p.num_sets().min(u32::MAX as f64) as u32,
            grace_factor: 1,
        }
    }

    /// Steps per phase, `m·w`.
    pub fn phase_len(&self) -> u64 {
        self.m as u64 * self.w as u64
    }

    /// Scheduled number of phases until the last frame leaves a network of
    /// depth `depth` (paper: `aC·m + L`).
    pub fn scheduled_phases(&self, depth: u32) -> u64 {
        self.num_sets as u64 * self.m as u64 + depth as u64
    }

    /// Scheduled number of steps, `(aC·m + L)·m·w`.
    pub fn scheduled_steps(&self, depth: u32) -> u64 {
        self.scheduled_phases(depth) * self.phase_len()
    }

    /// Hard simulation cap: scheduled steps times `1 + grace_factor`.
    pub fn max_steps(&self, depth: u32) -> u64 {
        self.scheduled_steps(depth) * (1 + self.grace_factor as u64)
    }

    fn validate(&self) {
        assert!(self.m >= 3, "m must be at least 3 (injection at inner m-1)");
        assert!(self.w >= 1, "rounds must have at least one step");
        assert!((0.0..=1.0).contains(&self.q), "q is a probability");
        assert!(self.num_sets >= 1, "need at least one frontier set");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn paper_params_match_reconstruction() {
        // C = 64, L = 32, N = 1024: ln(LN) = ln(32768).
        let p = PaperParams::new(64, 32, 1024);
        let ln_ln = (32.0f64 * 1024.0).ln();
        assert!((p.ln_ln - ln_ln).abs() < 1e-12);
        let e = std::f64::consts::E;
        assert!((p.a - 2.0 * e.powi(3) / ln_ln).abs() < 1e-9);
        assert!((p.m - (ln_ln * ln_ln + 5.0)).abs() < 1e-9);
        assert!((p.q - 1.0 / (p.m * p.m * ln_ln)).abs() < 1e-15);
        assert!((p.p0 - (1.0 - 1.0 / (2.0 * 32.0 * 1024.0))).abs() < 1e-15);
    }

    #[test]
    fn lemma_2_2_style_sanity() {
        // mq = 1/(m ln(LN)) ==> (1 - mq)^(m ln LN) >= 1/(2e) (Lemma 4.13).
        let p = PaperParams::new(100, 100, 10_000);
        let mq = p.m * p.q;
        assert!((mq - 1.0 / (p.m * p.ln_ln)).abs() < 1e-15);
        let prob = (1.0 - mq).powf(p.m * p.ln_ln);
        assert!(prob >= 1.0 / (2.0 * std::f64::consts::E), "prob = {prob}");
    }

    #[test]
    fn lemma_4_15_exponent_matches_w() {
        // (w - m - 1)/2 - m == 2e ln(1/p1) / q, so the failure probability
        // bound (1 - q/2e)^((w-m-1)/2 - m) <= e^(-ln(1/p1)) = p1.
        let p = PaperParams::new(10, 20, 50);
        let lhs = (p.w - p.m - 1.0) / 2.0 - p.m;
        let rhs = 2.0 * std::f64::consts::E * (1.0 / p.p1).ln() / p.q;
        assert!((lhs / rhs - 1.0).abs() < 1e-9, "lhs={lhs} rhs={rhs}");
        let fail = (1.0 - p.q / (2.0 * std::f64::consts::E)).powf(lhs);
        assert!(fail <= p.p1 * 1.01, "fail={fail} p1={}", p.p1);
    }

    #[test]
    fn theorem_2_6_success_probability() {
        for (c, l, n) in [(8u64, 8u64, 64u64), (64, 32, 1024), (1000, 100, 100_000)] {
            let p = PaperParams::new(c, l, n);
            let succ = p.success_probability();
            let bound = p.success_lower_bound();
            assert!(
                succ >= bound,
                "C={c} L={l} N={n}: success {succ} < bound {bound}"
            );
            assert!(succ <= 1.0);
        }
    }

    #[test]
    fn polylog_factor_is_polylog() {
        // The Õ factor should grow like ln⁹(LN): check it is sandwiched
        // between ln⁶ and ln¹² for a range of instances.
        for (c, l, n) in [(16u64, 16u64, 256u64), (256, 64, 4096), (4096, 256, 65536)] {
            let p = PaperParams::new(c, l, n);
            let f = p.polylog_factor();
            let ln = p.ln_ln;
            // The factor is Θ(ln⁹(LN)) up to constants and lower-order
            // ln(C), ln(1/p₁) terms: sandwich it generously.
            assert!(
                f > ln.powi(6),
                "factor {f} too small vs ln^6 {}",
                ln.powi(6)
            );
            assert!(
                f < ln.powi(14),
                "factor {f} too large vs ln^14 {}",
                ln.powi(14)
            );
        }
    }

    #[test]
    fn paper_time_is_impractical_and_scaled_is_not() {
        let p = PaperParams::new(64, 32, 1024);
        assert!(p.total_time() > 1e12, "literal schedule is astronomic");
        let s = Params::scaled(6, 48, 0.1, 8);
        assert!(s.max_steps(32) < 10_000_000);
    }

    #[test]
    fn scaled_accessors() {
        let p = Params::scaled(4, 10, 0.5, 3);
        assert_eq!(p.phase_len(), 40);
        assert_eq!(p.scheduled_phases(20), 3 * 4 + 20);
        assert_eq!(p.scheduled_steps(20), 32 * 40);
        assert_eq!(p.max_steps(20), 32 * 40 * 4);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_m_rejected() {
        let _ = Params::scaled(2, 10, 0.5, 3);
    }

    #[test]
    fn auto_params_are_reasonable() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let net = Arc::new(builders::butterfly(5));
        let prob = routing_core::workloads::random_pairs(&net, 20, &mut rng).unwrap();
        let p = Params::auto(&prob);
        assert!(p.m >= 4 && p.m <= 12);
        assert!(p.num_sets >= 1);
        assert!(p.q > 0.0 && p.q <= 0.5);
        assert!(p.max_steps(net.depth()) < 100_000_000);
    }

    #[test]
    fn from_paper_is_huge_but_finite() {
        let p = Params::from_paper(4, 4, 8);
        assert!(p.m >= 3);
        assert!(p.w > 1000, "w = {} should be large", p.w);
        assert!(p.num_sets >= 1);
    }
}
