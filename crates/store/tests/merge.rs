//! Merge properties of the run store — the invariant the sweep fabric
//! leans on: merging K shuffled, overlapping journals (read with
//! `read_records`, some with torn tails from kill-mid-append fault plans)
//! into a canonical store with `merge_records` is **idempotent** and
//! produces exactly the deduped union of every record a writer durably
//! appended. Content addressing makes this safe: two journals never
//! disagree about a key, they either both have the identical record or
//! one is missing it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cochar_machine::RunOutcome;
use cochar_store::journal::JOURNAL_FILE;
use cochar_store::{read_records, Fault, FaultPlan, MergeReport, ReplayReport, RunKey, RunStore};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("cochar-merge-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Key `n` always maps to the outcome with `horizon == n`, so any two
/// workers that share a key wrote byte-identical records.
fn outcome_for(key: u64) -> Arc<RunOutcome> {
    Arc::new(RunOutcome {
        apps: vec![],
        horizon: key,
        truncated: false,
        stalled: false,
        epochs: vec![],
        epoch_cycles: 1,
        freq_ghz: 2.7,
    })
}

/// Merges every trustworthy record of the journal in `dir` into `canon`.
fn merge_dir(canon: &RunStore, dir: &std::path::Path) -> (MergeReport, ReplayReport) {
    let (records, replay) = read_records(&dir.join(JOURNAL_FILE)).unwrap();
    let report = canon.merge_records(records.into_iter().map(|(k, o)| (k, Arc::new(o)))).unwrap();
    (report, replay)
}

/// Deterministic shuffle (Fisher–Yates over a SplitMix64 stream).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merging_shuffled_overlapping_journals_is_idempotent_union(
        subsets in prop::collection::vec(
            prop::collection::vec(1u64..12, 1..10), 1..4),
        kills in prop::collection::vec((any::<bool>(), 0usize..8), 4),
        order_seed in any::<u64>(),
    ) {
        // --- Write each worker journal, possibly tearing its tail.
        let mut worker_dirs = Vec::new();
        let mut union: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut total_acked = 0u64;
        for (w, subset) in subsets.iter().enumerate() {
            let dir = tmpdir(&format!("w{w}"));
            let mut seen = std::collections::BTreeSet::new();
            let keys: Vec<u64> =
                subset.iter().copied().filter(|&k| seen.insert(k)).collect();
            let kill_at = kills
                .get(w)
                .and_then(|&(on, i)| if on { Some(i) } else { None })
                .filter(|&i| i < keys.len());
            let plan = match kill_at {
                // Kill partway through the 40th byte of that append: the
                // record is torn on disk and everything after fails.
                Some(i) => FaultPlan::new().at(i as u64, Fault::Kill(40)),
                None => FaultPlan::new(),
            };
            let store = RunStore::open_with_faults(&dir, plan).unwrap();
            for &k in &keys {
                if store.put(RunKey(k), outcome_for(k)).is_ok() {
                    union.insert(k);
                    total_acked += 1;
                }
            }
            drop(store);
            worker_dirs.push(dir);
        }

        // --- Merge all journals into a canonical store, twice, in a
        // shuffled order each time.
        let canon_dir = tmpdir("canon");
        let canon = RunStore::open(&canon_dir).unwrap();
        let mut order: Vec<usize> = (0..worker_dirs.len()).collect();
        let mut first_added = 0u64;
        let mut first_dups = 0u64;
        shuffle(&mut order, order_seed);
        for &w in &order {
            let (report, replay) = merge_dir(&canon, &worker_dirs[w]);
            first_added += report.added;
            first_dups += report.duplicates;
            // A kill tears at most the one dying record.
            prop_assert!(replay.torn <= 1, "{replay:?}");
        }
        prop_assert_eq!(first_added as usize, union.len(), "merge must equal the union");
        prop_assert_eq!(first_added + first_dups, total_acked, "every acked record lands");

        shuffle(&mut order, order_seed.wrapping_add(1));
        for &w in &order {
            let (report, _) = merge_dir(&canon, &worker_dirs[w]);
            prop_assert_eq!(report.added, 0, "second merge must add nothing");
        }

        // --- The canonical store is exactly the deduped union.
        prop_assert_eq!(canon.len(), union.len());
        for &k in &union {
            let got = canon.get(RunKey(k));
            prop_assert!(got.is_some(), "union key {k} missing after merge");
            prop_assert_eq!(got.unwrap().horizon, k, "union key {k} mutated");
        }

        // --- And it survives a reopen byte-for-byte (the merged journal
        // is a valid journal).
        drop(canon);
        let reopened = RunStore::open(&canon_dir).unwrap();
        prop_assert_eq!(reopened.len(), union.len());
        prop_assert_eq!(reopened.replay_report().torn, 0);
        prop_assert_eq!(reopened.replay_report().corrupt, 0);

        drop(reopened);
        for dir in worker_dirs.iter().chain([&canon_dir]) {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

/// The advisory-lock satellite: a second writer (here, the same process
/// opening a second handle) is refused while the journal is held.
#[test]
fn second_open_is_refused_while_journal_is_held() {
    let dir = tmpdir("lock");
    let store = RunStore::open(&dir).unwrap();
    store.put(RunKey(1), outcome_for(1)).unwrap();
    let err = match RunStore::open(&dir) {
        Ok(_) => panic!("second open must be refused while the journal is held"),
        Err(e) => e.to_string(),
    };
    assert!(err.contains("locked"), "expected a lock refusal, got: {err}");
    drop(store);
    let reopened = RunStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), 1);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
