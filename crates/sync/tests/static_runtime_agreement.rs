//! The two halves of the lock tooling must agree on one rule — no
//! tracked lock is acquired while another is held — on the canonical
//! seeded two-lock pair: the *static* `lock-nesting` pass (workspace
//! call-graph analysis in `spanner-analyze`) and the *runtime*
//! `lock-audit` check in this crate. The static half reports the
//! nesting in `ab` and the one in `ba` from source text alone; the
//! runtime half panics at `ab`'s second acquisition. Both halves see
//! the same two-fn shape, so a behavior drift in either breaks this pin.
//!
//! The runtime half needs the `lock-audit` feature (the passthrough
//! wrappers deliberately check nothing); the static half runs always.

/// The seeded pair, as the static pass sees it. The runtime half below
/// is a line-for-line transcription of `ab`.
const SEEDED_INVERSION: &str = r#"
    pub struct Pair {
        a: TrackedMutex<u32>,
        b: TrackedMutex<u32>,
    }

    impl Pair {
        pub fn new() -> Self {
            Pair {
                a: TrackedMutex::new("agree.a", 0),
                b: TrackedMutex::new("agree.b", 0),
            }
        }

        pub fn ab(&self) {
            let ga = self.a.lock();
            let gb = self.b.lock();
            drop((ga, gb));
        }

        pub fn ba(&self) {
            let gb = self.b.lock();
            let ga = self.a.lock();
            drop((ga, gb));
        }
    }
"#;

fn nestings(src: String) -> Vec<String> {
    let report = spanner_analyze::analyze_sources(&[(
        std::path::PathBuf::from("crates/core/src/pipeline/seeded.rs"),
        src,
    )]);
    report
        .findings
        .into_iter()
        .filter(|f| f.lint == "lock-nesting")
        .map(|f| f.message)
        .collect()
}

#[test]
fn static_pass_reports_a_nesting_in_each_fn_of_the_seeded_pair() {
    let msgs = nestings(SEEDED_INVERSION.to_string());
    assert_eq!(msgs.len(), 2, "{msgs:#?}");
    assert!(
        msgs[0].contains("`Pair::ab` acquires `agree.b` while holding `agree.a`"),
        "{}",
        msgs[0]
    );
    assert!(
        msgs[1].contains("`Pair::ba` acquires `agree.a` while holding `agree.b`"),
        "{}",
        msgs[1]
    );
}

#[cfg(feature = "lock-audit")]
#[test]
fn runtime_audit_panics_on_the_same_inversion() {
    use spanner_sync::TrackedMutex;

    let a = TrackedMutex::new("agree.a", 0u32);
    let b = TrackedMutex::new("agree.b", 0u32);

    // `Pair::ab`: acquiring agree.b while holding agree.a is already a
    // nesting — the audit refuses it before `ba` ever runs.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let ga = a.lock();
        let gb = b.lock();
        drop((ga, gb));
    }));
    let err = result.expect_err("runtime audit missed the seeded nesting");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("'agree.b' while holding 'agree.a'"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn both_halves_accept_the_two_locks_taken_one_after_the_other() {
    // Static: the same struct with each guard dropped before the next
    // lock is taken.
    let sequential = SEEDED_INVERSION
        .replace(
            "let ga = self.a.lock();
            let gb = self.b.lock();
            drop((ga, gb));",
            "let ga = self.a.lock();
            drop(ga);
            let gb = self.b.lock();
            drop(gb);",
        )
        .replace(
            "let gb = self.b.lock();
            let ga = self.a.lock();
            drop((ga, gb));",
            "let gb = self.b.lock();
            drop(gb);
            let ga = self.a.lock();
            drop(ga);",
        );
    assert_ne!(sequential, SEEDED_INVERSION, "replacement must apply");
    let msgs = nestings(sequential);
    assert!(msgs.is_empty(), "{msgs:#?}");

    // Runtime: the same sequence, in both orders, is fine under the
    // audit.
    #[cfg(feature = "lock-audit")]
    {
        use spanner_sync::TrackedMutex;
        let a = TrackedMutex::new("agree.a", 0u32);
        let b = TrackedMutex::new("agree.b", 0u32);
        drop(a.lock());
        drop(b.lock());
        drop(b.lock());
        drop(a.lock());
    }
}
