//! Internal debugging aid: reproduces a read-dominated transfer/audit mix
//! and dumps any update transaction stuck in its Pre-Commit phase.
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sss_core::{SssCluster, SssConfig, Value};

fn key(i: u64) -> String {
    format!("account:{i}")
}

fn main() {
    let cluster = Arc::new(SssCluster::start(SssConfig::new(4).replication(2)).unwrap());
    let setup = cluster.session(0);
    let mut f = setup.begin_update();
    for i in 0..32 {
        f.write(key(i), Value::from_u64(1000));
    }
    f.commit().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..3usize {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let session = cluster.session(w % 4);
            let mut rng = w as u64; let mut timeouts = 0; let mut commits = 0; let mut aborts = 0; let run_start = std::time::Instant::now(); let _ = run_start;
            while !stop.load(Ordering::Relaxed) {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(w as u64 + 1);
                let a = rng % 32; let b = (rng / 37) % 32;
                if a == b { continue; }
                let mut t = session.begin_update();
                let ra = t.read(key(a)).unwrap().and_then(|v| v.to_u64()).unwrap_or(0);
                let rb = t.read(key(b)).unwrap().and_then(|v| v.to_u64()).unwrap_or(0);
                t.write(key(a), Value::from_u64(ra.saturating_sub(1)));
                t.write(key(b), Value::from_u64(rb + 1));
                let began = std::time::Instant::now();
                match t.commit() {
                    Ok(_) => commits += 1,
                    Err(e) if e.is_abort() => aborts += 1,
                    Err(e) => {
                        timeouts += 1;
                        eprintln!("[writer {w}] timeout after {:?}: {e} (keys {a},{b}) txn originated at node {}\n{}", began.elapsed(), w % 4, cluster.pending_reports());
                    }
                }
            }
            (commits, aborts, timeouts)
        }));
    }
    let auditor = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let session = cluster.session(1);
            let mut audits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut ro = session.begin_read_only();
                let mut sum = 0u64;
                for i in 0..32 {
                    sum += ro
                        .read(key(i))
                        .unwrap()
                        .and_then(|v| v.to_u64())
                        .unwrap_or(0);
                }
                ro.commit().unwrap();
                assert_eq!(sum, 32_000, "inconsistent audit");
                audits += 1;
            }
            audits
        })
    };
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(500));
        println!(
            "--- tick squeue_entries={} ",
            cluster.snapshot_queue_entries()
        );
        print!("{}", cluster.pending_reports());
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        println!("writer (commits,aborts,timeouts): {:?}", h.join().unwrap());
    }
    println!("audits: {}", auditor.join().unwrap());
    cluster.shutdown();
}
