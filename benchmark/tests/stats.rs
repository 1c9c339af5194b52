//! The order statistics agree with Python's `statistics` module, and the
//! tail-percentile rule leaves at least ten samples beyond.

use idabench::stats::{highest_tail_percentile, median, percentile, quartiles};

fn close(a: [f64; 3], b: [f64; 3]) -> bool {
    a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-12)
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(xs, n=4)`.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[4., 1., 3., 2.], [1.25, 2.5, 3.75]),
        (&[5., 1., 3.], [1.0, 3.0, 5.0]),
        // Two samples: Python extrapolates past both ends.
        (&[2.0, 7.5], [0.625, 4.75, 8.875]),
        (&[3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 3.2], [2.9, 3.05, 3.2]),
    ];
    for (xs, want) in cases {
        assert!(
            close(quartiles(xs), want),
            "{xs:?}: {:?} != {want:?}",
            quartiles(xs)
        );
    }
    assert_eq!(quartiles(&[4.2]), [4.2; 3]);
    assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
}

#[test]
fn median_is_the_middle_quartile() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn nearest_rank_percentiles() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 85), 85.0);
    assert_eq!(percentile(&xs, 0), 1.0);
    assert_eq!(percentile(&xs, 100), 100.0);
    assert_eq!(percentile(&[7.0], 50), 7.0);
}

#[test]
fn highest_tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(highest_tail_percentile(110), Some(90));
    assert_eq!(highest_tail_percentile(88), Some(88));
    assert_eq!(highest_tail_percentile(11), Some(9));
    assert_eq!(highest_tail_percentile(10), None);
    for n in 11..500 {
        let p = highest_tail_percentile(n).expect("11 or more samples");
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let beyond = |p| xs.iter().filter(|&&x| x > percentile(&xs, p)).count();
        assert!(beyond(p) >= 10, "n={n}: p{p} has {} beyond", beyond(p));
        assert!(
            p == 99 || beyond(p + 1) < 10,
            "n={n}: p{} also qualifies",
            p + 1
        );
    }
    // The grids report p85: both the 88- and the 110-cell grid keep at
    // least ten cells beyond it.
    assert!(highest_tail_percentile(88) >= Some(85));
    assert!(highest_tail_percentile(110) >= Some(85));
}
