//! A tiny from-scratch multi-layer perceptron — the 4-layer fully-connected
//! network behind the paper's DQN (§VI-B: "we use the DQN algorithm to
//! train a 4-layer fully-connected neural network, which predicts
//! Q-values").
//!
//! Plain `f64` math, ReLU activations, squared-error loss on selected
//! outputs, and SGD — everything the Q-learner needs and nothing more.
//!
//! Replay training dominates a software exploration (~83% of its time
//! on perfbench's sw-map requests, 2 vCPUs), so the training path reuses
//! activation and gradient buffers owned by the network, computes four
//! outputs per pass over a layer's input, and runs a TD step's two
//! inputs through each layer together. None of this changes a float op
//! or its order: every dot product still accumulates sequentially from
//! std's `f64: Sum` start value, so the explorer's trajectory is
//! bit-identical to a naive implementation (pinned against a frozen
//! copy of one in the tests).

use rand::Rng;

/// Where every dot product starts accumulating: the neutral element of
/// std's `f64: Sum`, so a row whose products are all `-0.0` still sums
/// to `-0.0`.
const SUM_START: f64 = -0.0;

/// A fully-connected layer.
#[derive(Debug, Clone)]
struct Layer {
    w: Vec<f64>, // out x in, row-major
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Layer {
    fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        // He initialization.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    /// `y[o] = b[o] + Σ_i w[o][i]·x[i]` for each of `K` inputs, each sum
    /// accumulated in ascending `i` from [`SUM_START`]. Four rows share
    /// one pass over the inputs, and every weight loaded feeds all `K`
    /// inputs: the `4·K` independent accumulators hide the add latency
    /// without reassociating any sum.
    fn forward_into<const K: usize>(&self, xs: [&[f64]; K], mut ys: [&mut [f64]; K]) {
        let n = self.inputs;
        let xs = xs.map(|x| &x[..n]);
        let blocks = self.w.chunks_exact(4 * n);
        let rest = blocks.remainder();
        let mut o = 0;
        for rows in blocks {
            let (r0, rows) = rows.split_at(n);
            let (r1, rows) = rows.split_at(n);
            let (r2, r3) = rows.split_at(n);
            let mut acc = [[SUM_START; 4]; K];
            for i in 0..n {
                let w = [r0[i], r1[i], r2[i], r3[i]];
                for (acc, x) in acc.iter_mut().zip(xs) {
                    for (a, w) in acc.iter_mut().zip(w) {
                        *a += w * x[i];
                    }
                }
            }
            for (y, acc) in ys.iter_mut().zip(acc) {
                for (k, a) in acc.into_iter().enumerate() {
                    y[o + k] = self.b[o + k] + a;
                }
            }
            o += 4;
        }
        for row in rest.chunks_exact(n) {
            for (y, x) in ys.iter_mut().zip(xs) {
                y[o] = self.b[o] + row.iter().zip(x).fold(SUM_START, |a, (w, x)| a + w * x);
            }
            o += 1;
        }
    }

    /// One SGD step from `grad` = dL/dy at input `x`: for every output
    /// with a nonzero gradient `g`, `w[o][i] -= (lr·g)·x[i]` and
    /// `b[o] -= lr·g`. When `grad_in` is given it accumulates dL/dx,
    /// read from the weights before they move.
    fn backward(&mut self, grad: &[f64], x: &[f64], lr: f64, mut grad_in: Option<&mut [f64]>) {
        let n = self.inputs;
        for (o, &g) in grad.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let step = lr * g;
            let row = &mut self.w[o * n..(o + 1) * n];
            match grad_in.as_deref_mut() {
                Some(grad_in) => {
                    for ((w, gi), &xi) in row.iter_mut().zip(grad_in.iter_mut()).zip(x) {
                        *gi += *w * g;
                        *w -= step * xi;
                    }
                }
                None => {
                    for (w, &xi) in row.iter_mut().zip(x) {
                        *w -= step * xi;
                    }
                }
            }
            self.b[o] -= step;
        }
    }
}

/// Runs each of the `K` inputs through `layers` in one pass over the
/// weights, writing every layer's output for `xs[k]` into `acts[k]` with
/// ReLU applied in place on every layer but the last.
fn forward_layers<const K: usize>(
    layers: &[Layer],
    xs: [&[f64]; K],
    mut acts: [&mut [Vec<f64>]; K],
) {
    let last = layers.len() - 1;
    for (li, layer) in layers.iter().enumerate() {
        // Lend each output buffer out while the previous layer's output
        // is read as its input.
        let mut ys: [Vec<f64>; K] = std::array::from_fn(|k| std::mem::take(&mut acts[k][li]));
        let inputs: [&[f64]; K] =
            std::array::from_fn(|k| if li == 0 { xs[k] } else { &acts[k][li - 1] });
        layer.forward_into(inputs, ys.each_mut().map(Vec::as_mut_slice));
        for (k, mut y) in ys.into_iter().enumerate() {
            if li < last {
                for v in &mut y {
                    *v = v.max(0.0);
                }
            }
            acts[k][li] = y;
        }
    }
}

/// A 4-layer MLP: input → hidden → hidden → output, ReLU between layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    /// Each layer's output from the last training-path forward pass.
    acts: Vec<Vec<f64>>,
    /// The same for the TD target's `next_state`, computed alongside.
    next_acts: Vec<Vec<f64>>,
    /// Backward-pass scratch: dL/d(output) of the current layer, and
    /// dL/d(input) being accumulated from it.
    grad: Vec<f64>,
    grad_in: Vec<f64>,
}

impl Mlp {
    /// Creates a 4-layer network with the given widths.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, output: usize, rng: &mut R) -> Self {
        let layers = vec![
            Layer::new(input, hidden, rng),
            Layer::new(hidden, hidden, rng),
            Layer::new(hidden, hidden, rng),
            Layer::new(hidden, output, rng),
        ];
        let acts: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.outputs]).collect();
        Mlp {
            next_acts: acts.clone(),
            acts,
            grad: Vec::new(),
            grad_in: Vec::new(),
            layers,
        }
    }

    /// Number of layers (always 4).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The network output for `x`.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut acts: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.outputs]).collect();
        forward_layers(&self.layers, [x], [&mut acts]);
        acts.pop().expect("network has layers")
    }

    /// One SGD step on the squared error of a single output unit
    /// (Q-learning updates only the taken action's Q-value). Returns the
    /// pre-update error.
    pub fn train_on_output(
        &mut self,
        x: &[f64],
        action: usize,
        target: f64,
        learning_rate: f64,
    ) -> f64 {
        forward_layers(&self.layers, [x], [&mut self.acts]);
        self.backward_from_acts(x, action, target, learning_rate)
    }

    /// The SGD step of [`Mlp::train_on_output`], from the activations of
    /// `x` already in `self.acts`.
    fn backward_from_acts(
        &mut self,
        x: &[f64],
        action: usize,
        target: f64,
        learning_rate: f64,
    ) -> f64 {
        let Mlp {
            layers,
            acts,
            grad,
            grad_in,
            ..
        } = self;
        let out = acts.last().expect("network has layers");
        let error = out[action] - target;
        // Output-layer gradient: only `action` has nonzero dL/dz.
        grad.clear();
        grad.resize(out.len(), 0.0);
        grad[action] = error;
        for li in (1..layers.len()).rev() {
            let input = &acts[li - 1];
            grad_in.clear();
            grad_in.resize(input.len(), 0.0);
            layers[li].backward(grad, input, learning_rate, Some(grad_in.as_mut_slice()));
            // ReLU derivative. The input is the previous layer's
            // post-activation `max(z, 0)`, positive exactly where `z` was
            // (a NaN `z` maps to 0).
            grad.clear();
            grad.extend(
                grad_in
                    .iter()
                    .zip(input)
                    .map(|(&g, &a)| if a > 0.0 { g } else { 0.0 }),
            );
        }
        // The first layer's input gradient would be discarded.
        layers[0].backward(grad, x, learning_rate, None);
        0.5 * error * error
    }

    /// One Q-learning update towards the TD target
    /// `reward + gamma · max_a Q(next_state, a)`:
    /// [`Mlp::train_on_output`] on `state`'s `action`. Allocation-free,
    /// and `next_state` and `state` share one forward pass over the
    /// weights, which do not move between the two. Returns the
    /// pre-update error.
    pub fn td_step(
        &mut self,
        state: &[f64],
        action: usize,
        reward: f64,
        gamma: f64,
        next_state: &[f64],
        learning_rate: f64,
    ) -> f64 {
        forward_layers(
            &self.layers,
            [state, next_state],
            [&mut self.acts, &mut self.next_acts],
        );
        let next_q = self.next_acts.last().expect("network has layers");
        let max_next = next_q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let target = reward + gamma * max_next;
        self.backward_from_acts(state, action, target, learning_rate)
    }

    /// Every weight and bias, layer by layer, as raw bits.
    #[cfg(test)]
    pub(crate) fn param_bits(&self) -> Vec<u64> {
        self.layers
            .iter()
            .flat_map(|l| l.w.iter().chain(&l.b).map(|v| v.to_bits()))
            .collect()
    }
}

/// A frozen copy of the network as it was before the forward pass was
/// register-blocked and the training step went allocation-free: the
/// reference the bit-identity tests compare against. Keep it naive.
#[cfg(test)]
pub(crate) mod frozen {
    #[derive(Debug, Clone)]
    struct Layer {
        w: Vec<f64>,
        b: Vec<f64>,
        inputs: usize,
        outputs: usize,
    }

    impl Layer {
        fn forward(&self, x: &[f64]) -> Vec<f64> {
            let mut y = self.b.clone();
            for (o, yo) in y.iter_mut().enumerate() {
                let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
                *yo += row.iter().zip(x.iter()).map(|(w, x)| w * x).sum::<f64>();
            }
            y
        }
    }

    struct ForwardPass {
        pre: Vec<Vec<f64>>,
        post: Vec<Vec<f64>>,
    }

    impl ForwardPass {
        fn output(&self) -> &[f64] {
            self.post.last().expect("forward pass has layers")
        }
    }

    #[derive(Debug, Clone)]
    pub(crate) struct Mlp {
        layers: Vec<Layer>,
    }

    impl Mlp {
        /// A copy of `net`'s current parameters.
        pub(crate) fn copy_of(net: &super::Mlp) -> Self {
            Mlp {
                layers: net
                    .layers
                    .iter()
                    .map(|l| Layer {
                        w: l.w.clone(),
                        b: l.b.clone(),
                        inputs: l.inputs,
                        outputs: l.outputs,
                    })
                    .collect(),
            }
        }

        pub(crate) fn param_bits(&self) -> Vec<u64> {
            self.layers
                .iter()
                .flat_map(|l| l.w.iter().chain(&l.b).map(|v| v.to_bits()))
                .collect()
        }

        fn forward(&self, x: &[f64]) -> ForwardPass {
            let mut pre = Vec::with_capacity(self.layers.len());
            let mut post = vec![x.to_vec()];
            for (li, layer) in self.layers.iter().enumerate() {
                let z = layer.forward(post.last().expect("non-empty"));
                let last = li == self.layers.len() - 1;
                let a = if last {
                    z.clone()
                } else {
                    z.iter().map(|&v| v.max(0.0)).collect()
                };
                pre.push(z);
                post.push(a);
            }
            ForwardPass { pre, post }
        }

        pub(crate) fn predict(&self, x: &[f64]) -> Vec<f64> {
            self.forward(x).output().to_vec()
        }

        pub(crate) fn train_on_output(
            &mut self,
            x: &[f64],
            action: usize,
            target: f64,
            learning_rate: f64,
        ) -> f64 {
            let fp = self.forward(x);
            let out = fp.output();
            let error = out[action] - target;
            let mut grad: Vec<f64> = vec![0.0; out.len()];
            grad[action] = error;
            for li in (0..self.layers.len()).rev() {
                let input = &fp.post[li];
                let layer = &mut self.layers[li];
                let mut grad_in = vec![0.0; layer.inputs];
                for (o, &g) in grad.iter().enumerate().take(layer.outputs) {
                    if g == 0.0 {
                        continue;
                    }
                    let row_start = o * layer.inputs;
                    for i in 0..layer.inputs {
                        grad_in[i] += layer.w[row_start + i] * g;
                        layer.w[row_start + i] -= learning_rate * g * input[i];
                    }
                    layer.b[o] -= learning_rate * g;
                }
                if li > 0 {
                    let prev_pre = &fp.pre[li - 1];
                    grad = grad_in
                        .iter()
                        .zip(prev_pre.iter())
                        .map(|(&g, &z)| if z > 0.0 { g } else { 0.0 })
                        .collect();
                }
            }
            0.5 * error * error
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn has_four_layers() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = Mlp::new(4, 8, 3, &mut rng);
        assert_eq!(net.depth(), 4);
        assert_eq!(net.predict(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    fn learns_a_constant_target() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut net = Mlp::new(2, 16, 2, &mut rng);
        let x = [0.5, -0.3];
        for _ in 0..500 {
            net.train_on_output(&x, 0, 1.0, 0.01);
            net.train_on_output(&x, 1, -1.0, 0.01);
        }
        let y = net.predict(&x);
        assert!((y[0] - 1.0).abs() < 0.05, "y0 = {}", y[0]);
        assert!((y[1] + 1.0).abs() < 0.05, "y1 = {}", y[1]);
    }

    #[test]
    fn learns_input_dependent_targets() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut net = Mlp::new(1, 24, 1, &mut rng);
        // Fit y = 2x - 0.5 on a small grid.
        let grid: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
        for _ in 0..3000 {
            for &x in &grid {
                net.train_on_output(&[x], 0, 2.0 * x - 0.5, 0.02);
            }
        }
        for &x in &grid {
            let y = net.predict(&[x])[0];
            assert!((y - (2.0 * x - 0.5)).abs() < 0.1, "x = {x}: y = {y}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut net = Mlp::new(3, 12, 4, &mut rng);
        let x = [0.2, 0.4, 0.9];
        let first = net.train_on_output(&x, 2, 0.7, 0.05);
        for _ in 0..100 {
            net.train_on_output(&x, 2, 0.7, 0.05);
        }
        let last = net.train_on_output(&x, 2, 0.7, 0.05);
        assert!(last < first * 0.1, "loss {first} -> {last}");
    }

    #[test]
    fn untouched_outputs_drift_less_than_trained_one() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut net = Mlp::new(2, 8, 3, &mut rng);
        let x = [0.3, 0.6];
        let before = net.predict(&x);
        for _ in 0..50 {
            net.train_on_output(&x, 1, 5.0, 0.01);
        }
        let after = net.predict(&x);
        let trained_delta = (after[1] - before[1]).abs();
        let other_delta = (after[0] - before[0])
            .abs()
            .max((after[2] - before[2]).abs());
        assert!(
            trained_delta > other_delta,
            "{trained_delta} vs {other_delta}"
        );
    }

    /// Dyadic values with both signed zeros: products and short sums are
    /// exact, so pre-activations of exactly ±0 and rows of all-`-0.0`
    /// products come up often.
    const GRID: [f64; 8] = [-1.0, -0.5, -0.0, 0.0, 0.0, 0.5, 1.0, 2.0];

    fn grid_vec(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| GRID[rng.gen_range(0..GRID.len())]).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `steps` random TD steps (and every other step a plain
    /// `train_on_output`) through `net` and a frozen copy of it, failing
    /// on the first bit that differs in the loss, the outputs or any
    /// parameter.
    fn check_against_frozen(
        net: &mut Mlp,
        steps: usize,
        rng: &mut SmallRng,
        mut input: impl FnMut(&mut SmallRng) -> Vec<f64>,
        lr: f64,
    ) -> Result<(), TestCaseError> {
        let mut old = frozen::Mlp::copy_of(net);
        let outputs = net.layers.last().unwrap().outputs;
        for step in 0..steps {
            let state = input(rng);
            // Replayed transitions often revisit their own state.
            let next = if rng.gen_bool(0.3) {
                state.clone()
            } else {
                input(rng)
            };
            let action = rng.gen_range(0..outputs);
            let reward = GRID[rng.gen_range(0..GRID.len())];
            let (loss, old_loss) = if step % 2 == 0 {
                let max_next = old
                    .predict(&next)
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let target = reward + 0.5 * max_next;
                (
                    net.td_step(&state, action, reward, 0.5, &next, lr),
                    old.train_on_output(&state, action, target, lr),
                )
            } else {
                (
                    net.train_on_output(&state, action, reward, lr),
                    old.train_on_output(&state, action, reward, lr),
                )
            };
            prop_assert_eq!(loss.to_bits(), old_loss.to_bits(), "loss at step {}", step);
            prop_assert_eq!(
                bits(&net.predict(&next)),
                bits(&old.predict(&next)),
                "outputs at step {}",
                step
            );
            prop_assert_eq!(
                net.param_bits(),
                old.param_bits(),
                "params at step {}",
                step
            );
        }
        Ok(())
    }

    #[test]
    fn sum_start_is_std_sums_neutral_element() {
        let empty = std::iter::empty::<f64>().sum::<f64>();
        assert_eq!(SUM_START.to_bits(), empty.to_bits());
        // All-`-0.0` products must sum to `-0.0`, as std's `Sum` does.
        let layer = Layer {
            w: vec![-1.0, 2.0, -0.0, 0.5, 1.0, 1.0, -3.0, 0.25, -0.0],
            b: vec![-0.0; 9],
            inputs: 1,
            outputs: 9,
        };
        let mut y = vec![1.0; 9];
        layer.forward_into([&[0.0]], [&mut y]);
        let expected: Vec<f64> = layer.w.iter().map(|w| -0.0 + w * 0.0).collect();
        assert_eq!(bits(&y), bits(&expected));
        assert!(y[0].is_sign_negative() && y[1].is_sign_positive());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn grid_networks_train_bit_identically_to_frozen(
            input in 1usize..11,
            hidden in 1usize..14,
            output in 1usize..8,
            seed in any::<u64>()
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut net = Mlp::new(input, hidden, output, &mut rng);
            // Grid parameters, so exact cancellations reach every layer.
            for l in &mut net.layers {
                l.w = grid_vec(&mut rng, l.w.len());
                l.b = grid_vec(&mut rng, l.b.len());
            }
            check_against_frozen(&mut net, 12, &mut rng, |r| grid_vec(r, input), 0.25)?;
        }

        #[test]
        fn he_initialised_networks_train_bit_identically_to_frozen(
            input in 1usize..20,
            hidden in 1usize..52,
            output in 1usize..30,
            seed in any::<u64>()
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut net = Mlp::new(input, hidden, output, &mut rng);
            let features = |r: &mut SmallRng| -> Vec<f64> {
                (0..input).map(|_| r.gen_range(-1.0..1.0)).collect()
            };
            check_against_frozen(&mut net, 8, &mut rng, features, 0.005)?;
        }
    }

    /// `n` grid values; with `zeros`, only signed zeros, so every product
    /// is ±0 and whole rows of `-0.0` products come up often; with
    /// `nan`, one entry replaced by NaN.
    fn probe_vec(rng: &mut SmallRng, n: usize, zeros: bool, nan: bool) -> Vec<f64> {
        let mut x = if zeros {
            (0..n)
                .map(|_| if rng.gen_bool(0.5) { 0.0 } else { -0.0 })
                .collect()
        } else {
            grid_vec(rng, n)
        };
        if nan {
            x[rng.gen_range(0..n)] = f64::NAN;
        }
        x
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_forward_matches_single_passes_bit_for_bit(
            inputs in 1usize..14,
            outputs in 1usize..14,
            seed in any::<u64>(),
            same in any::<bool>(),
            zeros in any::<bool>(),
            nan in any::<bool>()
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let layer = Layer {
                w: grid_vec(&mut rng, inputs * outputs),
                b: grid_vec(&mut rng, outputs),
                inputs,
                outputs,
            };
            let xa = probe_vec(&mut rng, inputs, zeros, nan);
            let xb = if same {
                xa.clone()
            } else {
                let nan = nan && rng.gen_bool(0.5);
                probe_vec(&mut rng, inputs, zeros, nan)
            };
            let (mut ya, mut yb) = (vec![1.0; outputs], vec![2.0; outputs]);
            layer.forward_into([&xa, &xb], [&mut ya, &mut yb]);
            for (x, fused) in [(&xa, &ya), (&xb, &yb)] {
                let mut single = vec![3.0; outputs];
                layer.forward_into([x], [&mut single]);
                prop_assert_eq!(bits(fused), bits(&single));
                // The naive definition, summed by std.
                let naive: Vec<f64> = layer
                    .w
                    .chunks_exact(inputs)
                    .zip(&layer.b)
                    .map(|(row, b)| b + row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>())
                    .collect();
                prop_assert_eq!(bits(fused), bits(&naive));
            }
        }

        #[test]
        fn td_steps_with_nan_and_signed_zero_inputs_match_frozen(
            input in 1usize..14,
            hidden in 1usize..14,
            output in 1usize..14,
            seed in any::<u64>()
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut net = Mlp::new(input, hidden, output, &mut rng);
            for l in &mut net.layers {
                l.w = grid_vec(&mut rng, l.w.len());
                l.b = grid_vec(&mut rng, l.b.len());
            }
            // `check_against_frozen` repeats the state as `next_state` in
            // ~30% of its steps.
            let probe = |r: &mut SmallRng| {
                let (zeros, nan) = (r.gen_bool(0.3), r.gen_bool(0.1));
                probe_vec(r, input, zeros, nan)
            };
            check_against_frozen(&mut net, 12, &mut rng, probe, 0.25)?;
        }
    }

    #[test]
    fn paper_sized_network_trains_bit_identically_to_frozen() {
        // The Q-learner's 18 → 48 → 48 → 48 → 26 network over many
        // consecutive steps, with features mixing continuous values and
        // signed zeros.
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut net = Mlp::new(18, 48, 26, &mut rng);
        let features = |r: &mut SmallRng| -> Vec<f64> {
            (0..18)
                .map(|_| match r.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => r.gen_range(-1.0..1.0),
                })
                .collect()
        };
        check_against_frozen(&mut net, 400, &mut rng, features, 0.005).unwrap();
    }
}
