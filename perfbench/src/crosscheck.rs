//! Holds the layer replay to the program: the counts the replay produced
//! must equal the `--json` stats `snids analyze` printed for the same
//! capture, or the per-layer numbers describe some other pipeline.

use snids::obs::json::{self, Value};

/// The counts compared, in `--json` stats key order.
pub const KEYS: [&str; 5] = [
    "packets",
    "suspicious_packets",
    "flows_analyzed",
    "frames_extracted",
    "alerts",
];

/// One side's values for [`KEYS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts(pub [u64; 5]);

impl Counts {
    /// Read the counts from a `snids analyze --json` document (the
    /// `stats` object).
    pub fn from_analyze_json(text: &str) -> Result<Counts, String> {
        let doc = json::parse(text).ok_or("child output is not JSON")?;
        let stats = doc.get("stats").ok_or("child output has no `stats`")?;
        let mut out = [0u64; 5];
        for (slot, key) in out.iter_mut().zip(KEYS) {
            *slot = stats
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("child stats lack `{key}`"))?;
        }
        Ok(Counts(out))
    }
}

/// `Ok` when `replay` equals `program` on every key; otherwise the list
/// of mismatches.
pub fn check(replay: Counts, program: Counts) -> Result<(), String> {
    let bad: Vec<String> = KEYS
        .iter()
        .zip(replay.0.iter().zip(program.0.iter()))
        .filter(|(_, (r, p))| r != p)
        .map(|(k, (r, p))| format!("{k}: replay {r} != program {p}"))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHILD: &str = r#"{"stats":{"records_in":12,"packets":11,"processed":11,"suspicious_packets":4,"flows_analyzed":3,"frames_extracted":2,"frame_bytes":90,"alerts":1,"drops":{}},"alerts":[]}"#;

    #[test]
    fn equal_counts_pass() {
        let program = Counts::from_analyze_json(CHILD).unwrap();
        assert_eq!(program, Counts([11, 4, 3, 2, 1]));
        assert_eq!(check(Counts([11, 4, 3, 2, 1]), program), Ok(()));
    }

    #[test]
    fn every_mismatched_count_is_rejected_and_named() {
        let program = Counts::from_analyze_json(CHILD).unwrap();
        for (i, key) in KEYS.iter().enumerate() {
            let mut replay = program;
            replay.0[i] += 1;
            let err = check(replay, program).unwrap_err();
            assert!(err.starts_with(&format!("{key}: ")), "{err}");
        }
        let err = check(Counts([0; 5]), program).unwrap_err();
        assert_eq!(err.matches("!=").count(), 5);
    }

    #[test]
    fn malformed_child_output_is_an_error() {
        assert!(Counts::from_analyze_json("not json").is_err());
        assert!(Counts::from_analyze_json(r#"{"alerts":[]}"#).is_err());
        assert!(Counts::from_analyze_json(r#"{"stats":{"packets":1}}"#).is_err());
    }
}
