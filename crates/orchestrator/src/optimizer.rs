//! The configuration optimizer.
//!
//! The paper's prototype "uses gradient descent, while other algorithms
//! can be easily supported". Accordingly:
//!
//! - [`adam`] — gradient descent with Adam over element phases, driven by
//!   the analytic gradients of [`crate::objective`]; the workhorse.
//! - [`random_search`] — a sampling baseline (how much does the gradient
//!   buy?).
//! - [`greedy_quantized`] — per-element coordinate descent over a design's
//!   discrete phase states; the realistic algorithm for 1–2-bit hardware
//!   and the ablation for quantization losses.
//!
//! All optimizers support *granularity tying*: a surface whose hardware is
//! column-/row-wise reconfigurable exposes fewer degrees of freedom, and
//! the optimizer must respect that rather than let the hardware silently
//! project (and wreck) its solution.

use crate::objective::Objective;
use rand::{Rng, RngExt};
use surfos_channel::par;
use surfos_em::complex::Complex;
use surfos_em::phase::wrap_phase;

/// Ties element phases into shared groups per surface: `groups[s]` lists,
/// for each degree of freedom, the element indices sharing that state.
/// `None` for a surface means element-wise control.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tying {
    /// Per-surface grouping; indexed like the response vectors.
    pub groups: Vec<Option<Vec<Vec<usize>>>>,
}

impl Tying {
    /// Element-wise control on every one of `n` surfaces.
    pub fn element_wise(n: usize) -> Self {
        Tying {
            groups: vec![None; n],
        }
    }

    /// Column-wise tying for surface `s` with a `rows × cols` grid.
    pub fn tie_columns(&mut self, s: usize, rows: usize, cols: usize) {
        let groups = (0..cols)
            .map(|c| (0..rows).map(|r| r * cols + c).collect())
            .collect();
        self.groups[s] = Some(groups);
    }

    /// Row-wise tying for surface `s` with a `rows × cols` grid.
    pub fn tie_rows(&mut self, s: usize, rows: usize, cols: usize) {
        let groups = (0..rows)
            .map(|r| (0..cols).map(|c| r * cols + c).collect())
            .collect();
        self.groups[s] = Some(groups);
    }

    /// Degrees of freedom for surface `s` given `n_elements`.
    pub fn dof(&self, s: usize, n_elements: usize) -> usize {
        match &self.groups[s] {
            None => n_elements,
            Some(g) => g.len(),
        }
    }

    /// Expands per-group phases to per-element phases for surface `s`.
    fn expand(&self, s: usize, params: &[f64], n_elements: usize) -> Vec<f64> {
        match &self.groups[s] {
            None => params.to_vec(),
            Some(groups) => {
                let mut out = vec![0.0; n_elements];
                for (g, &phase) in groups.iter().zip(params) {
                    for &e in g {
                        out[e] = phase;
                    }
                }
                out
            }
        }
    }

    /// Writes surface `s`'s element responses for per-group phases
    /// `params` into `out`: `cis` of [`expand`](Self::expand)'s phases, with
    /// one `cis` per group.
    fn respond(&self, s: usize, params: &[f64], out: &mut [Complex]) {
        match &self.groups[s] {
            None => {
                for (r, &phase) in out.iter_mut().zip(params) {
                    *r = Complex::cis(phase);
                }
            }
            Some(groups) => {
                for (g, &phase) in groups.iter().zip(params) {
                    let r = Complex::cis(phase);
                    for &e in g {
                        out[e] = r;
                    }
                }
            }
        }
    }

    /// Reduces per-element gradients to per-group gradients for surface
    /// `s`: `grad` itself under element-wise control, else the group sums
    /// written into `buf`.
    fn reduce<'a>(&self, s: usize, grad: &'a [f64], buf: &'a mut Vec<f64>) -> &'a [f64] {
        match &self.groups[s] {
            None => grad,
            Some(groups) => {
                buf.clear();
                buf.extend(
                    groups
                        .iter()
                        .map(|g| g.iter().map(|&e| grad[e]).sum::<f64>()),
                );
                buf
            }
        }
    }
}

/// Options for [`adam`].
#[derive(Debug, Clone, Copy)]
pub struct AdamOptions {
    /// Number of gradient steps.
    pub iters: usize,
    /// Learning rate (radians per step scale).
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
}

impl Default for AdamOptions {
    fn default() -> Self {
        AdamOptions {
            iters: 300,
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
        }
    }
}

/// The result of a configuration search.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Optimized per-surface element phases.
    pub phases: Vec<Vec<f64>>,
    /// Final loss.
    pub loss: f64,
    /// Loss after every iteration (for convergence plots/benches).
    pub history: Vec<f64>,
}

fn to_responses(phases: &[Vec<f64>]) -> Vec<Vec<Complex>> {
    phases
        .iter()
        .map(|p| p.iter().map(|&x| Complex::cis(x)).collect())
        .collect()
}

/// Adam gradient descent over (possibly tied) element phases.
///
/// `initial` holds per-surface *per-element* phases; with tying, the
/// group value is taken from the first member element.
///
/// # Panics
/// Panics if `initial` shape disagrees with `tying`, or options are
/// degenerate.
pub fn adam(
    objective: &dyn Objective,
    initial: &[Vec<f64>],
    tying: &Tying,
    opts: AdamOptions,
) -> OptimizeResult {
    let _span = surfos_obs::span!("orchestrator.adam");
    assert!(opts.iters > 0, "need at least one iteration");
    assert!(opts.lr > 0.0, "learning rate must be positive");
    assert_eq!(initial.len(), tying.groups.len(), "tying shape mismatch");
    let n_elements: Vec<usize> = initial.iter().map(Vec::len).collect();

    // Parameters: per-surface group phases.
    let mut params: Vec<Vec<f64>> = initial
        .iter()
        .enumerate()
        .map(|(s, elems)| match &tying.groups[s] {
            None => elems.clone(),
            Some(groups) => groups.iter().map(|g| elems[g[0]]).collect(),
        })
        .collect();

    let mut m: Vec<Vec<f64>> = params.iter().map(|p| vec![0.0; p.len()]).collect();
    let mut v: Vec<Vec<f64>> = params.iter().map(|p| vec![0.0; p.len()]).collect();
    let mut history = Vec::with_capacity(opts.iters);
    let eps = 1e-8;

    let mut best_loss = f64::INFINITY;
    let mut best_params = params.clone();
    // Reused across iterations: an element that no tied group covers keeps
    // phase 0, as `Tying::expand` gives it.
    let mut responses: Vec<Vec<Complex>> = n_elements
        .iter()
        .map(|&n| vec![Complex::cis(0.0); n])
        .collect();
    let mut reduced = Vec::new();

    for t in 1..=opts.iters {
        let _iter_span = surfos_obs::span!("orchestrator.adam.iter");
        for (s, p) in params.iter().enumerate() {
            tying.respond(s, p, &mut responses[s]);
        }
        let (loss, elem_grads) = objective.loss_and_grad(&responses);
        if loss < best_loss {
            best_loss = loss;
            best_params = params.clone();
        }
        history.push(loss);

        if surfos_obs::enabled() {
            // The norm is only worth its O(elements) sweep when someone is
            // watching. Milli-units keep sub-1.0 norms out of bucket zero.
            let norm = elem_grads
                .iter()
                .flatten()
                .map(|g| g * g)
                .sum::<f64>()
                .sqrt();
            surfos_obs::observe("orchestrator.adam.grad_norm_milli", (norm * 1e3) as u64);
            surfos_obs::gauge("orchestrator.adam.loss", loss);
        }
        for s in 0..params.len() {
            let g = tying.reduce(s, &elem_grads[s], &mut reduced);
            for i in 0..params[s].len() {
                m[s][i] = opts.beta1 * m[s][i] + (1.0 - opts.beta1) * g[i];
                v[s][i] = opts.beta2 * v[s][i] + (1.0 - opts.beta2) * g[i] * g[i];
                let m_hat = m[s][i] / (1.0 - opts.beta1.powi(t as i32));
                let v_hat = v[s][i] / (1.0 - opts.beta2.powi(t as i32));
                params[s][i] = wrap_phase(params[s][i] - opts.lr * m_hat / (v_hat.sqrt() + eps));
            }
        }
    }

    // Evaluate the final point too; keep the best seen.
    for (s, p) in params.iter().enumerate() {
        tying.respond(s, p, &mut responses[s]);
    }
    let final_loss = objective.loss(&responses);
    if final_loss < best_loss {
        best_loss = final_loss;
        best_params = params;
    }
    history.push(final_loss);

    surfos_obs::add("orchestrator.adam.iters", opts.iters as u64);
    surfos_obs::gauge("orchestrator.adam.loss", best_loss);
    let phases = best_params
        .iter()
        .enumerate()
        .map(|(s, p)| tying.expand(s, p, n_elements[s]))
        .collect();
    OptimizeResult {
        phases,
        loss: best_loss,
        history,
    }
}

/// Random-search baseline: `samples` uniform configurations, keep the best.
pub fn random_search<R: Rng>(
    objective: &dyn Objective,
    shape: &[usize],
    samples: usize,
    rng: &mut R,
) -> OptimizeResult {
    let _span = surfos_obs::span!("orchestrator.random_search");
    surfos_obs::add("orchestrator.random_search.samples", samples as u64);
    assert!(samples > 0, "need at least one sample");
    // Draw every candidate up front, serially: the rng is consumed in
    // exactly the order the sequential loop used, so results are
    // reproducible regardless of worker count.
    let candidates: Vec<Vec<Vec<f64>>> = (0..samples)
        .map(|_| {
            shape
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|_| rng.random::<f64>() * std::f64::consts::TAU)
                        .collect()
                })
                .collect()
        })
        .collect();
    // Score in parallel, then fold serially in draw order — the same
    // first-strictly-better winner as the sequential loop (including its
    // all-NaN behavior: no candidate selected, zero phases returned).
    let losses = par::par_map(&candidates, |c| objective.loss(&to_responses(c)));
    let mut best_loss = f64::INFINITY;
    let mut best_idx: Option<usize> = None;
    let mut history = Vec::with_capacity(samples);
    for (i, &loss) in losses.iter().enumerate() {
        if loss < best_loss {
            best_loss = loss;
            best_idx = Some(i);
        }
        history.push(best_loss);
    }
    surfos_obs::gauge("orchestrator.random_search.loss", best_loss);
    let phases = match best_idx {
        Some(i) => candidates.into_iter().nth(i).expect("index in range"),
        None => shape.iter().map(|&n| vec![0.0; n]).collect(),
    };
    OptimizeResult {
        phases,
        loss: best_loss,
        history,
    }
}

/// Greedy quantized coordinate descent: sweeps every element (or tied
/// group), trying each of the `2^bits` discrete phase states and keeping
/// the best, for `passes` full sweeps. This is how real 1–2-bit hardware
/// is configured.
pub fn greedy_quantized(
    objective: &dyn Objective,
    shape: &[usize],
    tying: &Tying,
    bits: u8,
    passes: usize,
) -> OptimizeResult {
    assert!((1..=8).contains(&bits), "bits must be in 1..=8");
    assert!(passes > 0, "need at least one pass");
    let levels = 1u32 << bits;
    let states: Vec<f64> = (0..levels)
        .map(|i| surfos_em::phase::phase_from_state_index(i, bits))
        .collect();

    let mut params: Vec<Vec<f64>> = shape
        .iter()
        .enumerate()
        .map(|(s, &n)| vec![0.0; tying.dof(s, n)])
        .collect();
    let expand_all = |params: &[Vec<f64>]| -> Vec<Vec<f64>> {
        params
            .iter()
            .enumerate()
            .map(|(s, p)| tying.expand(s, p, shape[s]))
            .collect()
    };
    let mut best_loss = objective.loss(&to_responses(&expand_all(&params)));
    let mut history = vec![best_loss];

    for _ in 0..passes {
        for s in 0..params.len() {
            for i in 0..params[s].len() {
                let original = params[s][i];
                let mut best_state = original;
                for &st in &states {
                    if st == original {
                        continue;
                    }
                    params[s][i] = st;
                    let loss = objective.loss(&to_responses(&expand_all(&params)));
                    if loss < best_loss {
                        best_loss = loss;
                        best_state = st;
                    }
                }
                params[s][i] = best_state;
            }
        }
        history.push(best_loss);
    }
    OptimizeResult {
        phases: expand_all(&params),
        loss: best_loss,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A toy objective with a known optimum: align every element's phase
    /// with a target phasor pattern, across two "surfaces".
    struct Align {
        targets: Vec<Vec<Complex>>,
    }

    impl Align {
        fn new() -> Self {
            Align {
                targets: vec![
                    (0..16).map(|i| Complex::cis(i as f64 * 0.39)).collect(),
                    (0..8).map(|i| Complex::cis(-(i as f64) * 0.7)).collect(),
                ],
            }
        }
        fn shape(&self) -> Vec<usize> {
            self.targets.iter().map(Vec::len).collect()
        }
    }

    impl Objective for Align {
        fn loss(&self, responses: &[Vec<Complex>]) -> f64 {
            // Maximize Re(conj(target)·r) per element — loss is negative
            // alignment; optimum −(16+8) = −24.
            -self
                .targets
                .iter()
                .zip(responses)
                .map(|(t, r)| {
                    t.iter()
                        .zip(r)
                        .map(|(ti, ri)| (ti.conj() * *ri).re)
                        .sum::<f64>()
                })
                .sum::<f64>()
        }

        fn loss_and_grad(&self, responses: &[Vec<Complex>]) -> (f64, Vec<Vec<f64>>) {
            let grads = self
                .targets
                .iter()
                .zip(responses)
                .map(|(t, r)| {
                    t.iter()
                        .zip(r)
                        .map(|(ti, ri)| -(ti.conj() * Complex::J * *ri).re)
                        .collect()
                })
                .collect();
            (self.loss(responses), grads)
        }
    }

    /// Adam as it ran before the fused step: `loss`, then a separate
    /// gradient pass, with fresh expand/respond/reduce vectors every
    /// iteration.
    fn two_pass_adam(
        objective: &dyn Objective,
        grad_phase: impl Fn(&[Vec<Complex>]) -> Vec<Vec<f64>>,
        initial: &[Vec<f64>],
        tying: &Tying,
        opts: AdamOptions,
    ) -> OptimizeResult {
        let n_elements: Vec<usize> = initial.iter().map(Vec::len).collect();
        let mut params: Vec<Vec<f64>> = initial
            .iter()
            .enumerate()
            .map(|(s, elems)| match &tying.groups[s] {
                None => elems.clone(),
                Some(groups) => groups.iter().map(|g| elems[g[0]]).collect(),
            })
            .collect();
        let mut m: Vec<Vec<f64>> = params.iter().map(|p| vec![0.0; p.len()]).collect();
        let mut v: Vec<Vec<f64>> = params.iter().map(|p| vec![0.0; p.len()]).collect();
        let mut history = Vec::new();
        let mut best_loss = f64::INFINITY;
        let mut best_params = params.clone();
        let expand_all = |params: &[Vec<f64>]| -> Vec<Vec<f64>> {
            params
                .iter()
                .enumerate()
                .map(|(s, p)| tying.expand(s, p, n_elements[s]))
                .collect()
        };
        for t in 1..=opts.iters {
            let responses = to_responses(&expand_all(&params));
            let loss = objective.loss(&responses);
            if loss < best_loss {
                best_loss = loss;
                best_params = params.clone();
            }
            history.push(loss);
            let elem_grads = grad_phase(&responses);
            for s in 0..params.len() {
                let g: Vec<f64> = match &tying.groups[s] {
                    None => elem_grads[s].clone(),
                    Some(groups) => groups
                        .iter()
                        .map(|g| g.iter().map(|&e| elem_grads[s][e]).sum())
                        .collect(),
                };
                for i in 0..params[s].len() {
                    m[s][i] = opts.beta1 * m[s][i] + (1.0 - opts.beta1) * g[i];
                    v[s][i] = opts.beta2 * v[s][i] + (1.0 - opts.beta2) * g[i] * g[i];
                    let m_hat = m[s][i] / (1.0 - opts.beta1.powi(t as i32));
                    let v_hat = v[s][i] / (1.0 - opts.beta2.powi(t as i32));
                    params[s][i] =
                        wrap_phase(params[s][i] - opts.lr * m_hat / (v_hat.sqrt() + 1e-8));
                }
            }
        }
        let final_loss = objective.loss(&to_responses(&expand_all(&params)));
        if final_loss < best_loss {
            best_loss = final_loss;
            best_params = params;
        }
        history.push(final_loss);
        OptimizeResult {
            phases: expand_all(&best_params),
            loss: best_loss,
            history,
        }
    }

    #[test]
    fn fused_adam_matches_two_pass_adam() {
        use crate::objective::CoverageObjective;
        use crate::reference;
        let (sim, ap, client, points) = reference::relay_lab();
        let obj = CoverageObjective::new(&sim, &ap, &points, &client);
        let initial: Vec<Vec<f64>> = reference::responses(&sim)
            .iter()
            .map(|r| r.iter().map(|c| c.arg()).collect())
            .collect();
        let mut columns = Tying::element_wise(2);
        columns.tie_columns(0, 32, 32);
        columns.tie_columns(1, 32, 32);
        let opts = AdamOptions {
            iters: 12,
            lr: 0.15,
            ..Default::default()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for tying in [Tying::element_wise(2), columns] {
            let fused = adam(&obj, &initial, &tying, opts);
            let two_pass = two_pass_adam(
                &obj,
                |r| reference::coverage_grad(&obj, r),
                &initial,
                &tying,
                opts,
            );
            assert_eq!(bits(&fused.history), bits(&two_pass.history));
            assert_eq!(fused.loss.to_bits(), two_pass.loss.to_bits());
            for (a, b) in fused.phases.iter().zip(&two_pass.phases) {
                assert_eq!(bits(a), bits(b));
            }
            assert!(fused.loss < fused.history[0], "Adam made no progress");
        }
    }

    #[test]
    fn adam_reaches_known_optimum() {
        let obj = Align::new();
        let initial = vec![vec![0.0; 16], vec![0.0; 8]];
        let res = adam(
            &obj,
            &initial,
            &Tying::element_wise(2),
            AdamOptions {
                iters: 400,
                lr: 0.1,
                ..Default::default()
            },
        );
        assert!(res.loss < -23.8, "loss={}", res.loss);
        // History is monotone-ish towards the optimum at the end.
        assert!(res.history.last().unwrap() < &res.history[0]);
    }

    #[test]
    fn adam_gradient_check_on_align() {
        // The Align test objective's own gradient must be consistent.
        let obj = Align::new();
        let responses: Vec<Vec<Complex>> = vec![
            (0..16).map(|i| Complex::cis(i as f64 * 0.2)).collect(),
            (0..8).map(|i| Complex::cis(i as f64 * 0.5)).collect(),
        ];
        let (base, g) = obj.loss_and_grad(&responses);
        let eps = 1e-6;
        let mut r2 = responses.clone();
        r2[1][3] *= Complex::cis(eps);
        let fd = (obj.loss(&r2) - base) / eps;
        assert!((fd - g[1][3]).abs() < 1e-5);
    }

    #[test]
    fn random_search_improves_with_samples() {
        let obj = Align::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let few = random_search(&obj, &obj.shape(), 5, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let many = random_search(&obj, &obj.shape(), 200, &mut rng);
        assert!(many.loss <= few.loss);
        // But far from the gradient optimum in this 24-dim space.
        let initial = vec![vec![0.0; 16], vec![0.0; 8]];
        let grad = adam(
            &obj,
            &initial,
            &Tying::element_wise(2),
            AdamOptions::default(),
        );
        assert!(
            grad.loss < many.loss,
            "adam {} vs random {}",
            grad.loss,
            many.loss
        );
    }

    #[test]
    fn random_search_history_monotone() {
        let obj = Align::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let res = random_search(&obj, &obj.shape(), 50, &mut rng);
        for w in res.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn greedy_quantized_beats_identity_and_respects_lattice() {
        let obj = Align::new();
        let tying = Tying::element_wise(2);
        let res = greedy_quantized(&obj, &obj.shape(), &tying, 2, 2);
        let identity = obj.loss(&to_responses(&[vec![0.0; 16], vec![0.0; 8]]));
        assert!(res.loss < identity);
        // All phases on the 2-bit lattice.
        for surf in &res.phases {
            for &p in surf {
                let q = surfos_em::phase::quantize_phase(p, 2);
                assert!((p - q).abs() < 1e-9, "{p} off-lattice");
            }
        }
        // 2-bit quantization bound: within sinc²(π/4) of optimal power is
        // not directly checkable on this toy loss, but it must approach the
        // optimum within the quantization penalty (~19 % per element).
        assert!(res.loss < -19.0, "loss={}", res.loss);
    }

    #[test]
    fn greedy_history_monotone_nonincreasing() {
        let obj = Align::new();
        let res = greedy_quantized(&obj, &obj.shape(), &Tying::element_wise(2), 1, 3);
        for w in res.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn tying_reduces_dof_and_constrains_solution() {
        let obj = Align::new();
        let mut tying = Tying::element_wise(2);
        // Surface 0 is a 4×4 grid, tie columns: 4 DoF instead of 16.
        tying.tie_columns(0, 4, 4);
        assert_eq!(tying.dof(0, 16), 4);
        let initial = vec![vec![0.0; 16], vec![0.0; 8]];
        let res = adam(&obj, &initial, &tying, AdamOptions::default());
        // Tied solution: elements in the same column share a phase.
        for c in 0..4 {
            for r in 1..4 {
                assert!(
                    (res.phases[0][r * 4 + c] - res.phases[0][c]).abs() < 1e-12,
                    "column {c} not tied"
                );
            }
        }
        // And the constrained optimum is worse than element-wise.
        let free = adam(
            &obj,
            &initial,
            &Tying::element_wise(2),
            AdamOptions::default(),
        );
        assert!(res.loss > free.loss);
    }

    #[test]
    fn tie_rows_groups_rows() {
        let mut tying = Tying::element_wise(1);
        tying.tie_rows(0, 2, 3);
        let groups = tying.groups[0].as_ref().unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1, 2]);
        assert_eq!(groups[1], vec![3, 4, 5]);
    }

    #[test]
    fn expand_reduce_are_adjoint() {
        // reduce(grad)·params == grad·expand(params): group-sum vs copy.
        let mut tying = Tying::element_wise(1);
        tying.tie_columns(0, 2, 2);
        let params = [0.3, 0.7];
        let grad = [1.0, 2.0, 3.0, 4.0];
        let expanded = tying.expand(0, &params, 4);
        let mut buf = Vec::new();
        let reduced = tying.reduce(0, &grad, &mut buf);
        let lhs: f64 = params.iter().zip(reduced).map(|(p, g)| p * g).sum();
        let rhs: f64 = expanded.iter().zip(&grad).map(|(p, g)| p * g).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_rejected() {
        let obj = Align::new();
        let _ = adam(
            &obj,
            &[vec![0.0; 16], vec![0.0; 8]],
            &Tying::element_wise(2),
            AdamOptions {
                lr: 0.0,
                ..Default::default()
            },
        );
    }
}
