//! The cache layer, timed entry by entry: a fresh `Store` reads every
//! entry a workload left in its cache directory, and each payload is
//! decoded and replayed, so read, decode and replay are timed apart on
//! the same entries.

use crate::stats;
use crate::trace::Tracer;
use relsim::RunObs;
use relsim_cache::{CacheConfig, Key, Store};
use std::path::Path;
use std::time::Instant;

/// Every entry key stored under a cache directory.
fn entry_keys(dir: &Path) -> Vec<Key> {
    let mut keys = Vec::new();
    for fan in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for entry in std::fs::read_dir(fan.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "rsc") {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                if let Ok(k) = u128::from_str_radix(stem, 16) {
                    keys.push(Key(k));
                }
            }
        }
    }
    keys.sort_by_key(|k| k.0);
    keys
}

/// Time the cache layer on every entry under `dir`, one fresh store:
/// `Store::peek` (disk read + checksum verify), `decode_bundle`, and the
/// replay of the stored events and metrics into an observer. Returns the
/// per-entry medians and throughputs, the payload bytes the store read
/// from disk over the pass (`cache.bytes_read`), and whether every entry
/// decoded.
pub fn entry_pass<T: serde::Deserialize>(
    tracer: &Tracer,
    dir: &Path,
) -> (Vec<(&'static str, f64)>, bool) {
    let store = Store::new(CacheConfig {
        dir: Some(dir.to_path_buf()),
    });
    let mut ok = true;
    let (mut read_ns, mut decode_ns, mut bytes) = (0u128, 0u128, 0u64);
    let (mut read_ms, mut decode_ms, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (i, key) in entry_keys(dir).into_iter().enumerate() {
        let t0 = Instant::now();
        let g = tracer.start("cache.read", None, i as u64);
        let hit = store.peek(key);
        let n = hit.as_ref().map_or(0, |(p, _)| p.len() as u64);
        g.end(n, "");
        let t1 = Instant::now();
        let Some((payload, _)) = hit else {
            ok = false;
            continue;
        };
        let g = tracer.start("cache.decode", None, i as u64);
        let decoded = relsim::cache::decode_bundle::<T>(&payload);
        g.end(n, "");
        let t2 = Instant::now();
        let Some((_value, events, metrics)) = decoded else {
            ok = false;
            continue;
        };
        let g = tracer.start("cache.replay", None, i as u64);
        let mut obs = RunObs::disabled();
        for e in &events {
            obs.sink.emit(e);
        }
        obs.recorder.merge_snapshot(&metrics);
        g.end(n, "");
        let t3 = Instant::now();
        read_ns += (t1 - t0).as_nanos();
        decode_ns += (t2 - t1).as_nanos();
        bytes += n;
        read_ms.push((t1 - t0).as_secs_f64() * 1e3);
        decode_ms.push((t2 - t1).as_secs_f64() * 1e3);
        replay_ms.push((t3 - t2).as_secs_f64() * 1e3);
    }
    let mb_per_s = |ns: u128| bytes as f64 / 1e6 / (ns as f64 / 1e9);
    (
        vec![
            ("cache.read_ms", stats::median(&read_ms)),
            ("cache.read_mb_per_s", mb_per_s(read_ns)),
            ("cache.decode_ms", stats::median(&decode_ms)),
            ("cache.decode_mb_per_s", mb_per_s(decode_ns)),
            ("cache.replay_ms", stats::median(&replay_ms)),
            ("cache.bytes_read", store.stats().bytes_read as f64),
        ],
        ok && !read_ms.is_empty(),
    )
}
