//! In-process replay: a workload's set-up and a fixed prefix of its timed
//! traffic, sent straight to a [`Router`] configured like the server.

use crate::gate::{self, Counts};
use crate::traffic::{Batch, Client, Plan};
use ndg_serve::Router;
use std::time::Instant;

/// One replayed batch, as the callback sees it.
pub struct Step<'a> {
    /// Whether this batch belongs to the timed traffic (not the set-up).
    pub timed: bool,
    /// The batch sent.
    pub batch: &'a Batch,
    /// The router's answers.
    pub responses: &'a [String],
    /// Wall time of the `Router::handle_batch` call, µs.
    pub router_us: f64,
}

/// Replay `plan`'s set-up and then `timed` batches of its timed traffic
/// through `router`, calling `on_step` after every batch. When the
/// `ndg-obs` registry is installed, returns the counter deltas of the
/// timed batches' `handle_batch` calls only: work the callback does
/// between calls is not counted.
pub fn replay(
    router: &Router,
    plan: &Plan,
    timed: usize,
    mut on_step: impl FnMut(&Router, Step<'_>),
) -> Counts {
    let mut client = Client::new(plan);
    let mut counts = Counts::new();
    let mut sent_timed = 0;
    while sent_timed < timed {
        let is_timed = client.setup_done();
        let batch = client.next_batch();
        let before = is_timed.then(gate::read_counts);
        let t0 = Instant::now();
        let responses = router.handle_batch(&batch.lines);
        let router_us = t0.elapsed().as_secs_f64() * 1e6;
        if let Some(before) = before {
            gate::accumulate(&mut counts, &gate::delta(&before, &gate::read_counts()));
            sent_timed += 1;
        }
        let refs: Vec<&str> = responses.iter().map(String::as_str).collect();
        client.observe(&refs);
        on_step(
            router,
            Step {
                timed: is_timed,
                batch: &batch,
                responses: &responses,
                router_us,
            },
        );
    }
    counts
}
