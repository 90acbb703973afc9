//! The correctness gate: digests of every explanation's canonical JSON,
//! compared op for op between runs and, for the first step of each kind,
//! against a serial, uncached reference.

use crate::library::Kind;

/// FNV-1a over the explanations' canonical JSON (which holds no timing
/// fields).
pub fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(Debug, Default)]
pub struct Check {
    referenced: [bool; 4],
    pub mismatches: Vec<String>,
}

impl Check {
    /// True the first time `kind` is seen: that explain is then compared
    /// with the reference.
    pub fn first_of(&mut self, kind: Kind) -> bool {
        !std::mem::replace(&mut self.referenced[kind.index()], true)
    }

    /// Record a mismatch unless `got == want`.
    pub fn expect_equal(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.mismatches.push(format!(
                "{what}: explanations differ from the reference (digest {:016x} vs {:016x})",
                digest(got),
                digest(want)
            ));
        }
    }

    /// The untraced and traced runs must return the same explanations,
    /// op for op (`None` = the op failed).
    pub fn same_runs(&mut self, untraced: &[Option<u64>], traced: &[Option<u64>]) {
        if untraced.len() != traced.len() {
            self.mismatches.push(format!(
                "runs differ in length: {} untraced vs {} traced ops",
                untraced.len(),
                traced.len()
            ));
        }
        for (i, (a, b)) in untraced.iter().zip(traced).enumerate() {
            if a != b {
                self.mismatches
                    .push(format!("op {i}: untraced digest {a:x?} vs traced {b:x?}"));
            }
        }
    }
}
