//! An in-memory store answers exactly as a disk store does for the same
//! puts and merges, and touches no file. The test points the working
//! directory and `TMPDIR` at an empty directory of its own, which is
//! process-global, so it lives alone in this binary.

use std::sync::Arc;

use cochar_machine::RunOutcome;
use cochar_store::{RunKey, RunStore, StoreError};

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

/// The same calls on either store; returns everything they answered.
fn exercise(store: &RunStore) -> String {
    let mut log = Vec::new();
    for k in [1, 2, 1] {
        log.push(format!("put {k}: {:?}", store.put(RunKey(k), outcome_for(k)).is_ok()));
    }
    let report = store.merge_records([2, 3, 4, 3].map(|k| (RunKey(k), outcome_for(k)))).unwrap();
    log.push(format!("merge: {report:?}"));
    for k in [1, 5, 4] {
        log.push(format!("get {k}: {:?}", store.get(RunKey(k)).map(|o| o.horizon)));
        log.push(format!("contains {k}: {}", store.contains(RunKey(k))));
    }
    let entries: Vec<_> = store.entries().into_iter().map(|(k, o)| (k.0, o.horizon)).collect();
    log.push(format!("entries: {entries:?}"));
    log.push(format!("len {} stats {:?}", store.len(), store.stats()));
    log.join("\n")
}

#[test]
fn in_memory_store_matches_disk_and_writes_nothing() {
    let base = std::env::temp_dir().join(format!("cochar-store-in-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let watched = base.join("watched");
    std::fs::create_dir_all(&watched).unwrap();
    let disk = RunStore::open(base.join("disk")).unwrap();
    let expected = exercise(&disk);
    assert!(!disk.is_in_memory());
    assert!(disk.verify().is_ok());

    std::env::set_current_dir(&watched).unwrap();
    std::env::set_var("TMPDIR", &watched);
    let mem = RunStore::in_memory();
    assert_eq!(exercise(&mem), expected);
    assert!(mem.is_in_memory());
    assert!(mem.dir().as_os_str().is_empty());
    assert!(matches!(mem.verify(), Err(StoreError::InMemory)));
    assert!(matches!(mem.gc(), Err(StoreError::InMemory)));
    drop(mem);
    let left: Vec<_> =
        std::fs::read_dir(&watched).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "an in-memory store wrote {left:?}");

    std::env::set_current_dir(base.parent().unwrap()).unwrap();
    drop(disk);
    std::fs::remove_dir_all(&base).unwrap();
}
