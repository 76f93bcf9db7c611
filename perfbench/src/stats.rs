//! Sample statistics: nearest-rank percentiles and the rule for which
//! tail percentile a sample supports.

/// Percentiles the benchmark may report, lowest first, in hundredths of
/// a percent (9_900 is the 99th percentile) so rank arithmetic is exact.
pub const LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` (hundredths of a percent)
/// among `n` samples.
fn rank(n: usize, p: u64) -> usize {
    ((n as u64 * p).div_ceil(10_000) as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`LADDER`], in percent, with at least
/// [`MIN_BEYOND`] samples beyond its nearest rank; `None` when even the
/// median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n >= MIN_BEYOND && n - rank(n, p) >= MIN_BEYOND)
        .map(|p| p as f64 / 100.0)
}

/// Nearest-rank `p`-th percentile (in percent) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), (p * 100.0).round() as u64) - 1]
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Indices, ascending, of the lowest `share` of `costs` (at least one),
/// leaving out the first, a warm-up, whenever there is more than one.
pub fn least(costs: &[f64], share: f64) -> Vec<usize> {
    let skip = usize::from(costs.len() > 1);
    let mut order: Vec<usize> = (skip..costs.len()).collect();
    order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
    order.truncate(((order.len() as f64 * share).ceil() as usize).max(1));
    order.sort_unstable();
    order
}

/// [`least`] within each stratum: indices, ascending, of the lowest
/// `share` of the `costs` of each stratum, where `strata[i]` is the
/// stratum of `costs[i]`.
pub fn least_by_stratum(strata: &[usize], costs: &[f64], share: f64) -> Vec<usize> {
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &s) in strata.iter().enumerate() {
        groups.entry(s).or_default().push(i);
    }
    let mut kept: Vec<usize> = groups
        .values()
        .flat_map(|members| {
            let group: Vec<f64> = members.iter().map(|&i| costs[i]).collect();
            least(&group, share).into_iter().map(|j| members[j])
        })
        .collect();
    kept.sort_unstable();
    kept
}

/// A latency sample summarised as the benchmark reports it.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples, failed operations included (as +∞).
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest percentile the sample supports, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarise `xs` (any order).
    pub fn of(xs: &[f64]) -> Latency {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p| {
            if v.is_empty() {
                f64::NAN
            } else {
                percentile(&v, p)
            }
        };
        Latency {
            n: v.len(),
            p50: at(50.0),
            p99: at(99.0),
            tail: highest_supported(v.len()).map(|p| (p, at(p))),
        }
    }

    /// The 99th percentile, or NaN when fewer than ten samples lie
    /// beyond it.
    pub fn p99_or_nan(&self) -> f64 {
        if self.tail.is_some_and(|(p, _)| p >= 99.0) {
            self.p99
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        assert!(Latency::of(&[1.0; 999]).p99_or_nan().is_nan());
        assert_eq!(Latency::of(&[1.0; 1000]).p99_or_nan(), 1.0);
    }

    #[test]
    fn least_skips_the_warm_up_and_keeps_the_cheapest_share() {
        assert_eq!(least(&[9.0], 0.25), vec![0]);
        assert_eq!(least(&[1.0, 5.0], 0.25), vec![1]);
        // Eight slices after the warm-up: the cheapest two, in run order.
        let costs = [0.5, 7.0, 3.0, 9.0, 2.0, 8.0, 6.0, 4.0, 5.0];
        assert_eq!(least(&costs, 0.25), vec![2, 4]);
        assert_eq!(least(&costs[..4], 0.25), vec![2]);
    }

    #[test]
    fn least_by_stratum_keeps_a_share_of_every_stratum() {
        // Stratum 1 is the dearer work; its cheapest slice still counts.
        let strata = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        let costs = [1.0, 10.0, 4.0, 30.0, 2.0, 20.0, 3.0, 50.0, 5.0, 40.0];
        assert_eq!(least_by_stratum(&strata, &costs, 0.25), vec![4, 5]);
        assert_eq!(least_by_stratum(&strata, &costs, 0.5), vec![3, 4, 5, 6]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // A failed operation is +∞ and so misses every latency limit.
        let l = Latency::of(&[1.0, f64::INFINITY, 2.0]);
        assert_eq!(l.p99, f64::INFINITY);
        assert_eq!(l.p50, 2.0);
    }
}
