//! The statistics every metric goes through.

use dpxbench::stats::{
    highest_percentile, median, percentile, quartiles, relative_spread, without_linear_part,
    Summary,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: tiny sets
    // extrapolate, exactly as Python's exclusive method does.
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
}

#[test]
fn spread_is_interquartile_range_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
    assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_percentile(19), None);
    assert_eq!(highest_percentile(20), Some(50));
    assert_eq!(highest_percentile(100), Some(90));
    // The serve workload pools 64 jobs over seven or more reps.
    assert_eq!(highest_percentile(448), Some(97));
    for n in 20..2000 {
        let p = highest_percentile(n).unwrap();
        let beyond = n as f64 * (1.0 - f64::from(p) / 100.0);
        assert!(beyond >= 10.0 - 1e-9, "n={n} p={p} leaves {beyond}");
        let next = n as f64 * (1.0 - f64::from(p + 1) / 100.0);
        assert!(next < 10.0, "n={n}: p{} would still have {next}", p + 1);
    }
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 0.0), 10.0);
    assert_eq!(percentile(&v, 50.0), 30.0);
    assert_eq!(percentile(&v, 100.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 46.0);
}

#[test]
fn summary_reports_count_extremes_and_quartiles() {
    let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!((s.n, s.median, s.min, s.max), (4, 2.5, 1.0, 4.0));
    assert_eq!((s.q1, s.q3), (1.25, 3.75));
}

#[test]
fn linear_part_is_removed_robustly_and_never_added() {
    // y = 0.3 + 2x, with one rep that is slow for another reason.
    let x = [0.0, 0.01, 0.0, 0.05, 0.1, 0.02, 0.0];
    let mut y: Vec<f64> = x.iter().map(|x| 0.3 + 2.0 * x).collect();
    y[2] = 0.9;
    let (k, rest) = without_linear_part(&x, &y);
    assert!((k - 2.0).abs() < 1e-9, "{k}");
    assert!((median(&rest) - 0.3).abs() < 1e-9);
    assert!((rest[2] - 0.9).abs() < 1e-9, "the outlier stays one");
    // Nothing to fit, a falling line, or a line that would leave no time:
    // the samples come back as they were.
    assert_eq!(
        without_linear_part(&[0.0; 3], &[1.0, 2.0, 3.0]),
        (0.0, vec![1.0, 2.0, 3.0])
    );
    assert_eq!(without_linear_part(&[0.0, 1.0], &[2.0, 1.0]).0, 0.0);
    assert_eq!(
        without_linear_part(&[1.0, 2.0], &[1.0, 3.0]),
        (0.0, vec![1.0, 3.0])
    );
}
