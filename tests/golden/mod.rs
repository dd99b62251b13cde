//! Shared pieces of the bit-identity golden tests: exact-bit records
//! and the bless-or-compare loop over worker thread counts.

use numkit::DMat;

/// One named record: a matrix (or vector / scalar) as exact f64 bits.
pub fn record(name: &str, nrows: usize, ncols: usize, data: impl Iterator<Item = f64>) -> String {
    let mut line = format!("{name} {nrows} {ncols}");
    for x in data {
        line.push_str(&format!(" {:016x}", x.to_bits()));
    }
    line.push('\n');
    line
}

pub fn mat(name: &str, m: &DMat) -> String {
    let (r, c) = m.shape();
    record(name, r, c, (0..r).flat_map(|i| (0..c).map(move |j| (i, j))).map(|ij| m[ij]))
}

/// With `PMTBR_BLESS` set, writes `run()` to `tests/fixtures/<fixture>`;
/// otherwise asserts that `run()` reproduces the fixture byte for byte
/// at 1, 2 and 8 worker threads.
///
/// `numkit::par::num_threads` reads `PMTBR_THREADS` dynamically, so one
/// process can exercise serial, small-parallel, and oversubscribed
/// fan-out. The caller must be the only test in its binary that touches
/// the variable.
pub fn assert_matches_fixture_at_any_thread_count(fixture: &str, run: impl Fn() -> String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);

    if std::env::var_os("PMTBR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, run()).expect("bless fixture");
        return;
    }

    let blessed = std::fs::read_to_string(&path)
        .expect("blessed fixture missing — run once with PMTBR_BLESS=1 to create it");

    for threads in ["1", "2", "8"] {
        std::env::set_var("PMTBR_THREADS", threads);
        let got = run();
        assert!(
            got == blessed,
            "output diverged from {fixture} at {threads} threads;\n\
             first differing line:\n{}",
            first_diff(&blessed, &got)
        );
    }
    std::env::remove_var("PMTBR_THREADS");
}

fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("  blessed: {la}\n  got:     {lb}");
        }
    }
    format!("(line count differs: {} vs {})", a.lines().count(), b.lines().count())
}
