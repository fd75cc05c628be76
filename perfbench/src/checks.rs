//! Correctness-check ledger: every check counts as attempted, and every
//! failure is printed with the workload, cell, seed and check that failed.

/// Counts checks and prints failures to standard error.
#[derive(Debug)]
pub struct Checks {
    workload: &'static str,
    seed: u64,
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// A ledger for one run of `workload` at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Checks {
        Checks {
            workload,
            seed,
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one check on `cell`; on failure prints `detail()`.
    pub fn check(&mut self, cell: &str, check: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!(
                "FAIL workload={} cell={} seed={} check={}: {}",
                self.workload,
                cell,
                self.seed,
                check,
                detail()
            );
        }
    }

    /// Check (d) and the traced-run reproduction check: `got` must equal
    /// the reference round's fingerprint line for line.
    pub fn same_fingerprint(&mut self, check: &str, reference: &[String], got: &[String]) {
        let cells = reference.len().max(got.len());
        for i in 0..cells {
            let (a, b) = (reference.get(i), got.get(i));
            let cell = a.or(b).map_or("?", |l| l.split(' ').next().unwrap_or("?"));
            self.check(cell, check, a == b, || {
                format!("fingerprint differs from the reference round (line {i})")
            });
        }
    }
}
