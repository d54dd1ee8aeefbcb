//! The benchmark's own arithmetic: percentiles, the session-age slowdown,
//! windowed throughput and the serving ladder's rung selection.

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it. Returns NaN for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// Sorts a copy and returns it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Median of the last tenth of `in_order` divided by the median of its first
/// tenth: how much slower a request is at the end of the run than at its
/// start. Needs at least 10 samples.
pub fn age_slowdown(in_order: &[f64]) -> f64 {
    let tenth = in_order.len() / 10;
    if tenth == 0 {
        return f64::NAN;
    }
    median(&in_order[in_order.len() - tenth..]) / median(&in_order[..tenth])
}

/// Requests per second over consecutive windows of `window` requests, from
/// each request's duration in ms. A last, partial window is left out.
pub fn window_rates(durations_ms: &[f64], window: usize) -> Vec<f64> {
    durations_ms
        .chunks_exact(window)
        .map(|w| window as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect()
}

/// What one rung of the serving ladder measured.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate (tasks per second).
    pub rate: f64,
    /// p99 of the rung's latencies, failed requests counted as infinite.
    pub p99_ms: f64,
    /// Tasks submitted but not completed when the rung's schedule ended.
    pub backlog_end: usize,
    /// Tasks completed per wall second over the rung.
    pub completed_tps: f64,
}

impl Rung {
    /// A rung passes when its tail meets the limit and the backlog it left
    /// behind is no more than `backlog_slack_s` seconds of offered work.
    pub fn passes(&self, limit_ms: f64, backlog_slack_s: f64) -> bool {
        self.p99_ms <= limit_ms && (self.backlog_end as f64) <= self.rate * backlog_slack_s
    }
}

/// The highest rung, climbing from the lowest, before the first rung that
/// fails. `None` when even the lowest rung fails.
pub fn max_passing_rung(rungs: &[Rung], limit_ms: f64, backlog_slack_s: f64) -> Option<&Rung> {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_ms, backlog_slack_s))
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_leaves_ten_samples_beyond_at_one_thousand() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn age_slowdown_compares_last_and_first_tenths() {
        // 100 samples: first tenth all 2.0, last tenth all 5.0.
        let mut v = vec![2.0; 10];
        v.extend(std::iter::repeat_n(3.0, 80));
        v.extend(std::iter::repeat_n(5.0, 10));
        assert_eq!(age_slowdown(&v), 2.5);
        // A steady run reads 1.
        assert_eq!(age_slowdown(&[1.0; 50]), 1.0);
        // The tenth rounds down: 19 samples use 1 at each end.
        let w: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(age_slowdown(&w), 19.0);
        assert!(age_slowdown(&[1.0; 9]).is_nan());
    }

    #[test]
    fn window_rates_use_whole_windows() {
        // 25 requests: two windows of 10 and a partial one left out.
        let mut v = vec![2.0; 10];
        v.extend([4.0; 10]);
        v.extend([1.0; 5]);
        assert_eq!(window_rates(&v, 10), [500.0, 250.0]);
        assert!(window_rates(&v[..9], 10).is_empty());
    }

    fn rung(rate: f64, p99_ms: f64, backlog_end: usize) -> Rung {
        Rung {
            rate,
            p99_ms,
            backlog_end,
            completed_tps: rate,
        }
    }

    #[test]
    fn max_rate_is_last_rung_before_the_first_failure() {
        let rungs = [
            rung(100.0, 5.0, 0),
            rung(200.0, 8.0, 3),
            rung(400.0, 60.0, 0), // tail over the limit
            rung(800.0, 9.0, 0),  // passes, but above a failed rung
        ];
        assert_eq!(max_passing_rung(&rungs, 50.0, 0.05).unwrap().rate, 200.0);
    }

    #[test]
    fn growing_backlog_fails_a_rung() {
        let rungs = [rung(100.0, 5.0, 0), rung(200.0, 8.0, 11)];
        // 200 tasks/s x 0.05 s = 10 tasks of slack.
        assert_eq!(max_passing_rung(&rungs, 50.0, 0.05).unwrap().rate, 100.0);
        assert!(max_passing_rung(&rungs[1..], 50.0, 0.05).is_none());
        let limit = [rung(100.0, 50.0, 5)];
        assert_eq!(max_passing_rung(&limit, 50.0, 0.05).unwrap().rate, 100.0);
    }
}
