//! The Q-learning revision policy (§VI-B, Fig. 5(e)).
//!
//! "To revise candidates, we use Q-learning to generate a new candidate p′
//! for a valuable candidate p. We use a Q-value to indicate how good each
//! revision choice is \[and\] apply the revision choice with the highest
//! Q-value." A DQN — our from-scratch 4-layer [`crate::nn::Mlp`] — predicts
//! Q-values from schedule features; a replay buffer smooths the updates.
//! The network "is reused for all design points in a software space".

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::nn::Mlp;
use crate::schedule::{Revision, Schedule, ScheduleContext, MAX_DIMS, NUM_REVISIONS};

/// One replay-buffer transition.
#[derive(Debug, Clone)]
struct Transition {
    state: Vec<f64>,
    action: usize,
    reward: f64,
    next_state: Vec<f64>,
}

/// DQN-based revision policy.
#[derive(Debug)]
pub struct QLearner {
    net: Mlp,
    rng: SmallRng,
    replay: Vec<Transition>,
    /// Exploration rate (ε-greedy), decayed multiplicatively per step.
    pub epsilon: f64,
    /// Discount factor.
    pub gamma: f64,
    /// SGD learning rate.
    pub learning_rate: f64,
    replay_cap: usize,
    batch: usize,
}

impl QLearner {
    /// Creates a learner with the paper's 4-layer network.
    pub fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let net = Mlp::new(2 * MAX_DIMS + 2, 48, NUM_REVISIONS, &mut rng);
        QLearner {
            net,
            rng,
            replay: Vec::new(),
            epsilon: 0.3,
            gamma: 0.7,
            learning_rate: 0.005,
            replay_cap: 512,
            batch: 16,
        }
    }

    /// Q-values for a schedule.
    pub fn q_values(&self, sched: &Schedule, ctx: &ScheduleContext) -> Vec<f64> {
        self.net.predict(&sched.features(ctx))
    }

    /// Picks a revision for `sched`: the applicable action with the highest
    /// Q-value (ε-greedy), returning the revised schedule and the action id.
    pub fn propose(
        &mut self,
        sched: &Schedule,
        ctx: &ScheduleContext,
    ) -> Option<(Schedule, usize)> {
        let q = self.q_values(sched, ctx);
        // Applicable actions with their revised schedules.
        let mut applicable: Vec<(usize, Schedule)> = Vec::new();
        for a in 0..NUM_REVISIONS {
            if let Some(s) = Revision::from_action(a).apply(sched, ctx, &mut self.rng) {
                applicable.push((a, s));
            }
        }
        if applicable.is_empty() {
            return None;
        }
        let pick = if self.rng.gen_bool(self.epsilon) {
            self.rng.gen_range(0..applicable.len())
        } else {
            applicable
                .iter()
                .enumerate()
                .max_by(|(_, (a1, _)), (_, (a2, _))| {
                    q[*a1].partial_cmp(&q[*a2]).expect("finite Q-values")
                })
                .map(|(i, _)| i)
                .expect("non-empty")
        };
        let (action, revised) = applicable.swap_remove(pick);
        Some((revised, action))
    }

    /// Records the outcome of applying `action` (latency-based reward) and
    /// trains on a replay mini-batch.
    pub fn observe(&mut self, state: Vec<f64>, action: usize, reward: f64, next_state: Vec<f64>) {
        if self.replay.len() == self.replay_cap {
            let i = self.rng.gen_range(0..self.replay.len());
            self.replay.swap_remove(i);
        }
        self.replay.push(Transition {
            state,
            action,
            reward,
            next_state,
        });
        for _ in 0..self.batch.min(self.replay.len()) {
            let t = &self.replay[self.rng.gen_range(0..self.replay.len())];
            self.net.td_step(
                &t.state,
                t.action,
                t.reward,
                self.gamma,
                &t.next_state,
                self.learning_rate,
            );
        }
        self.epsilon = (self.epsilon * 0.995).max(0.05);
    }

    /// Latency-delta reward: positive when the revision reduced latency.
    pub fn reward(before_latency: f64, after_latency: f64) -> f64 {
        if before_latency <= 0.0 {
            return 0.0;
        }
        ((before_latency - after_latency) / before_latency).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::frozen;
    use accel_model::arch::AcceleratorConfig;
    use proptest::prelude::*;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn ctx() -> ScheduleContext {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let wl = suites::gemm_workload("g", 128, 128, 128);
        ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap()
    }

    #[test]
    fn proposes_applicable_revisions() {
        let c = ctx();
        let mut q = QLearner::new(0);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = c.random_schedule(&mut rng);
        for _ in 0..20 {
            let (revised, action) = q.propose(&s, &c).expect("some revision applies");
            assert!(action < NUM_REVISIONS);
            assert!(revised.validate(&c).is_ok());
        }
    }

    #[test]
    fn reward_sign_tracks_improvement() {
        assert!(QLearner::reward(100.0, 50.0) > 0.0);
        assert!(QLearner::reward(50.0, 100.0) < 0.0);
        assert_eq!(QLearner::reward(0.0, 10.0), 0.0);
        assert_eq!(QLearner::reward(10.0, 10.0), 0.0);
    }

    #[test]
    fn epsilon_decays_with_observations() {
        let c = ctx();
        let mut q = QLearner::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = c.random_schedule(&mut rng);
        let feat = s.features(&c);
        let e0 = q.epsilon;
        for _ in 0..50 {
            q.observe(feat.clone(), 0, 0.1, feat.clone());
        }
        assert!(q.epsilon < e0);
        assert!(q.epsilon >= 0.05);
    }

    #[test]
    fn learns_to_prefer_rewarded_action() {
        let c = ctx();
        let mut q = QLearner::new(4);
        q.epsilon = 0.0;
        let mut rng = SmallRng::seed_from_u64(5);
        let s = c.random_schedule(&mut rng);
        let feat = s.features(&c);
        // Action 3 always yields high reward, others zero.
        for a in 0..NUM_REVISIONS {
            let r = if a == 3 { 1.0 } else { 0.0 };
            for _ in 0..30 {
                q.observe(feat.clone(), a, r, feat.clone());
            }
        }
        let qv = q.q_values(&s, &c);
        let best = qv
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(best, 3, "Q-values: {qv:?}");
    }

    #[test]
    fn replay_buffer_is_bounded() {
        let c = ctx();
        let mut q = QLearner::new(6);
        let mut rng = SmallRng::seed_from_u64(7);
        let s = c.random_schedule(&mut rng);
        let feat = s.features(&c);
        for _ in 0..1000 {
            q.observe(feat.clone(), 0, 0.0, feat.clone());
        }
        assert!(q.replay.len() <= 512);
    }

    /// A frozen copy of `QLearner::observe` as it was before the replay
    /// step was fused, over the frozen network.
    struct FrozenLearner {
        net: frozen::Mlp,
        rng: SmallRng,
        replay: Vec<Transition>,
        epsilon: f64,
        gamma: f64,
        learning_rate: f64,
        replay_cap: usize,
        batch: usize,
    }

    impl FrozenLearner {
        fn mirror(q: &QLearner) -> Self {
            FrozenLearner {
                net: frozen::Mlp::copy_of(&q.net),
                rng: q.rng.clone(),
                replay: q.replay.clone(),
                epsilon: q.epsilon,
                gamma: q.gamma,
                learning_rate: q.learning_rate,
                replay_cap: q.replay_cap,
                batch: q.batch,
            }
        }

        fn observe(&mut self, state: Vec<f64>, action: usize, reward: f64, next_state: Vec<f64>) {
            if self.replay.len() == self.replay_cap {
                let i = self.rng.gen_range(0..self.replay.len());
                self.replay.swap_remove(i);
            }
            self.replay.push(Transition {
                state,
                action,
                reward,
                next_state,
            });
            for _ in 0..self.batch.min(self.replay.len()) {
                let t = &self.replay[self.rng.gen_range(0..self.replay.len())];
                let next_q = self.net.predict(&t.next_state);
                let max_next = next_q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let target = t.reward + self.gamma * max_next;
                let (s, a) = (t.state.clone(), t.action);
                self.net.train_on_output(&s, a, target, self.learning_rate);
            }
            self.epsilon = (self.epsilon * 0.995).max(0.05);
        }
    }

    /// Feeds the same transitions to `q` and a frozen mirror of it,
    /// comparing weights, biases, Q-values, ε and the RNG state bit for
    /// bit after every observation.
    fn observe_like_frozen(
        q: &mut QLearner,
        transitions: impl IntoIterator<Item = (Vec<f64>, usize, f64, Vec<f64>)>,
    ) -> Result<(), TestCaseError> {
        let mut old = FrozenLearner::mirror(q);
        for (step, (state, action, reward, next)) in transitions.into_iter().enumerate() {
            q.observe(state.clone(), action, reward, next.clone());
            old.observe(state.clone(), action, reward, next);
            prop_assert_eq!(
                q.net.param_bits(),
                old.net.param_bits(),
                "params at step {}",
                step
            );
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(q.net.predict(&state)),
                bits(old.net.predict(&state)),
                "Q-values at step {}",
                step
            );
            prop_assert_eq!(q.epsilon.to_bits(), old.epsilon.to_bits());
            prop_assert!(q.rng == old.rng, "RNG state at step {}", step);
            prop_assert_eq!(q.replay.len(), old.replay.len());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn observe_is_bit_identical_to_frozen(seed in any::<u64>(), cap in 4usize..24) {
            // A small replay cap, so eviction and replays of old
            // transitions (some with `next_state == state`) start early.
            let c = ctx();
            let mut q = QLearner::new(seed);
            q.replay_cap = cap;
            let mut rng = SmallRng::seed_from_u64(seed ^ 1);
            let mut transitions = Vec::new();
            for _ in 0..40 {
                let s = c.random_schedule(&mut rng);
                let state = s.features(&c);
                let next = if rng.gen_bool(0.3) {
                    state.clone()
                } else {
                    c.random_schedule(&mut rng).features(&c)
                };
                let reward = [-1.0, 0.0, rng.gen_range(-1.0..1.0)][rng.gen_range(0..3usize)];
                transitions.push((state, rng.gen_range(0..NUM_REVISIONS), reward, next));
            }
            observe_like_frozen(&mut q, transitions)?;
        }
    }

    #[test]
    fn observe_on_a_full_replay_buffer_is_bit_identical_to_frozen() {
        // The explorer's own setting: the paper's network and the
        // 512-transition buffer, past the point where it is full.
        let c = ctx();
        let mut q = QLearner::new(8);
        let mut rng = SmallRng::seed_from_u64(9);
        let schedules: Vec<Vec<f64>> = (0..64)
            .map(|_| c.random_schedule(&mut rng).features(&c))
            .collect();
        let transitions = (0..560).map(|i| {
            let state = schedules[i % 64].clone();
            let next = schedules[(i * 7 + 1) % 64].clone();
            (state, i % NUM_REVISIONS, ((i % 5) as f64 - 2.0) / 2.0, next)
        });
        observe_like_frozen(&mut q, transitions).unwrap();
        assert_eq!(q.replay.len(), q.replay_cap);
    }
}
