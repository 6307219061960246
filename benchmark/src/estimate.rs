//! The estimators every end-to-end number goes through.
//!
//! A run is R rounds of E epochs; epoch `i` does the same ops in every
//! round. Host noise (a neighbour on the physical core, vCPU steal)
//! comes in phases of seconds and only ever *adds* time, so every timing
//! metric describes the **quiet composite** run: for each epoch index,
//! the round in which that epoch's wall time was smallest. Rate and CPU
//! cost are sums over the composite's epochs. Percentiles are taken
//! *inside* each composite epoch, over the ops of the workload's primary
//! type — so the pauses the program makes in every round (batch stalls,
//! GC passes) stay in — and the **median epoch** is reported, so that
//! one epoch that was noisy in all R rounds cannot move them.

use crate::workload::{Kind, Op};

/// What one measured epoch recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Epoch {
    /// Wall time of the epoch's ops, first send to last reply.
    pub wall_ns: u64,
    /// Server on-CPU time over the epoch (`schedstat`, all threads).
    pub server_cpu_ns: u64,
    /// Load generator on-CPU time over the epoch.
    pub client_cpu_ns: u64,
    /// Per-op latency in ns, in issue order.
    pub latencies_ns: Vec<u32>,
}

/// The latencies of the ops of one `kind`, ascending; `latencies` and
/// `ops` run in the same issue order.
pub fn latencies_of<'a>(
    ops: &[Op],
    latencies: impl IntoIterator<Item = &'a u32>,
    kind: Kind,
) -> Vec<u32> {
    let mut sorted: Vec<u32> = latencies
        .into_iter()
        .zip(ops)
        .filter(|(_, op)| op.kind == kind)
        .map(|(&ns, _)| ns)
        .collect();
    sorted.sort_unstable();
    sorted
}

/// For each epoch index, the round whose epoch had the smallest wall
/// time. Rounds must have equal epoch counts.
pub fn quiet_composite(rounds: &[Vec<Epoch>]) -> Vec<&Epoch> {
    let epochs = rounds.first().map_or(0, Vec::len);
    (0..epochs)
        .filter_map(|i| rounds.iter().map(|r| &r[i]).min_by_key(|e| e.wall_ns))
        .collect()
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` with the lower value at a tie
/// (`q = 0.25`: the lower quartile the layer kernels report).
pub fn lower_quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() - 1) as f64 * q).floor() as usize]
}

/// Median over the epochs of a (composite) run of each epoch's `q`-th
/// latency percentile, in ns. Each epoch's samples must be ascending.
pub fn median_epoch_percentile(sorted_epochs: &[Vec<u32>], q: f64) -> f64 {
    let per_epoch: Vec<f64> = sorted_epochs
        .iter()
        .map(|sorted| f64::from(percentile(sorted, q)))
        .collect();
    median(&per_epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(wall_ns: u64, server_cpu_ns: u64) -> Epoch {
        Epoch {
            wall_ns,
            server_cpu_ns,
            ..Epoch::default()
        }
    }

    #[test]
    fn the_composite_takes_each_epoch_from_its_quietest_round() {
        let rounds = vec![
            vec![epoch(100, 1), epoch(900, 2), epoch(300, 3)],
            vec![epoch(200, 4), epoch(250, 5), epoch(310, 6)],
            vec![epoch(150, 7), epoch(260, 8), epoch(290, 9)],
        ];
        let picked: Vec<(u64, u64)> = quiet_composite(&rounds)
            .iter()
            .map(|e| (e.wall_ns, e.server_cpu_ns))
            .collect();
        // CPU time travels with the wall time it was measured under.
        assert_eq!(picked, vec![(100, 1), (250, 5), (290, 9)]);
        assert!(quiet_composite(&[]).is_empty());
    }

    #[test]
    fn one_noisy_round_does_not_move_the_composite() {
        let quiet: Vec<Epoch> = (0..4).map(|_| epoch(100, 50)).collect();
        let noisy: Vec<Epoch> = (0..4).map(|_| epoch(200, 90)).collect();
        let total = |rounds: &[Vec<Epoch>]| -> u64 {
            quiet_composite(rounds).iter().map(|e| e.wall_ns).sum()
        };
        assert_eq!(total(&[quiet.clone(), noisy, quiet.clone()]), 400);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        // 2,048 samples leave 20 beyond the p99.
        let n = 2048;
        let rank = (0.99 * n as f64).ceil() as usize;
        assert_eq!(n - rank, 20);
    }

    #[test]
    fn the_median_epoch_keeps_program_made_pauses() {
        // Every epoch has the same 2 % of slow ops (a batch stall); one
        // epoch is also hit by host noise. The stall shows in the p99,
        // the noisy epoch does not move it.
        let epoch =
            |slow: u32| -> Vec<u32> { (0..100).map(|i| if i < 98 { 10 } else { slow }).collect() };
        let run = [epoch(3000), epoch(3000), epoch(3000), epoch(90_000)];
        assert_eq!(median_epoch_percentile(&run, 0.99), 3000.0);
        assert_eq!(median_epoch_percentile(&run, 0.50), 10.0);
        assert_eq!(median_epoch_percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn medians_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(lower_quantile(&v, 0.25), 5.0);
        assert_eq!(lower_quantile(&[7.0], 0.25), 7.0);
    }
}
