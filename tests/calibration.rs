//! The coverage table of `calibrate table` (`aqp_bench::calibration_table`)
//! at 200 runs a cell: the same bytes on every call, the full grid, and
//! coverage that never falls as α rises. The last holds only while every
//! cell of a (θ, family) row reuses the row's samples, which is what makes
//! the four α of one ξ comparable at all.

use aqp_bench::calibration_table;

#[test]
fn calibration_table_is_deterministic_and_monotone_in_alpha() {
    // Two calls at once: each runs its rows on the machine's threads, and
    // the second fills the first's idle tail.
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| calibration_table(200));
        let b = s.spawn(|| calibration_table(200));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, b, "two runs of the table differ");

    let cells: Vec<Vec<&str>> = a.lines().skip(1).map(|l| l.split('\t').collect()).collect();
    // (AVG, SUM) × 3 families + COUNT, × 2 ξ × 4 α.
    assert_eq!(cells.len(), 56);
    for row in cells.chunks(4) {
        let key = &row[0][..3];
        let alphas: Vec<&str> = row.iter().map(|c| c[3]).collect();
        assert!(row.iter().all(|c| c.len() == 10 && &c[..3] == key), "{row:?}");
        assert_eq!(alphas, ["0.80", "0.90", "0.95", "0.99"], "{key:?}");
        let coverage: Vec<f64> = row.iter().map(|c| c[5].parse().unwrap()).collect();
        assert!(coverage.windows(2).all(|w| w[0] <= w[1]), "{key:?}: coverage {coverage:?}");
    }
}
