//! Proves that steady-state writes allocate nothing: once a tree's
//! arenas, node caches and reclamation bags have reached their working
//! size, inserts and removes under `Ebr` recycle every slot and every
//! bag buffer instead of calling the allocator (the paper's Table 1: a
//! delete allocates nothing). The arenas' free lists are threaded
//! through the free slots and have no buffer to grow.
//!
//! Lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`, which must not taint other
//! binaries' measurements. The count is per thread, as in
//! `range_alloc.rs`: the harness runs tests on parallel threads, and
//! each test must see only its own allocations.

use nmbst::{BatchCmd, BatchScratch, BatchVerdict, MapHandle, NmTreeMap, ShardedMap};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by the current thread, and
    /// the bytes they asked for. Const-initialized and drop-free, so the
    /// allocator can touch them without allocating itself.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations made while the thread's locals are being
    // torn down go uncounted instead of panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

/// (allocations, bytes) the calling thread has made so far.
fn allocs() -> (usize, usize) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// SplitMix64, the fixed-seed idiom of the other test files.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One insert or remove of a random key below `keys`.
fn churn(h: &mut MapHandle<'_, u64, u64>, rng: &mut Rng, keys: u64) {
    let r = rng.next();
    let k = (r >> 1) % keys;
    if r & 1 == 0 {
        h.insert(k, r);
    } else {
        h.remove(&k);
    }
}

/// Point writes through a handle: a 1,024-key tree where every op is
/// an insert or a remove, so every op that changes the tree retires at
/// least one node into the collector's bags.
#[test]
fn steady_state_handle_writes_allocate_nothing() {
    const KEYS: u64 = 1_024;
    const WARM: usize = 200_000;
    const MEASURED: usize = 1_000_000;
    let mut map: NmTreeMap<u64, u64> = NmTreeMap::new();
    let mut h = map.handle();
    let mut rng = Rng(0x5EED);
    for k in (0..KEYS).step_by(2) {
        h.insert(k, k);
    }
    for _ in 0..WARM {
        churn(&mut h, &mut rng, KEYS);
    }

    let before = allocs();
    for _ in 0..MEASURED {
        churn(&mut h, &mut rng, KEYS);
    }
    let after = allocs();
    h.flush_stats();
    let m = map.metrics();
    assert!(
        m.inserted + m.removed > MEASURED as u64 / 2,
        "the ops changed the tree"
    );
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "{MEASURED} steady-state handle writes allocated (calls, bytes)"
    );
    drop(h);
    map.check_invariants().unwrap();
}

/// Mutating `execute_batch` passes over a 4-shard store, with the
/// worker unpinned after every pass as a serving worker is before it
/// blocks: GETs, inserts that add keys and removes that remove them.
#[test]
fn steady_state_mutating_batches_allocate_nothing() {
    const KEYS: u64 = 4_096;
    const WIDTH: usize = 16;
    const WARM: usize = 20_000;
    const MEASURED: usize = 80_000;
    let mut map: ShardedMap<u64, u64> = ShardedMap::with_shards(4);
    let mut h = map.handle();
    let mut rng = Rng(0xBA7C);
    let mut cmds: Vec<BatchCmd<u64, u64>> = Vec::with_capacity(WIDTH);
    let mut scratch = BatchScratch::new();
    let mut out: Vec<BatchVerdict<u64>> = Vec::with_capacity(WIDTH);
    let mut pass = |h: &mut nmbst::ShardedMapHandle<'_, u64, u64>| {
        cmds.clear();
        for _ in 0..WIDTH {
            let r = rng.next();
            let k = (r >> 2) % KEYS;
            cmds.push(match r & 3 {
                0 => BatchCmd::Get(k),
                1 | 2 => BatchCmd::Insert(k, r),
                _ => BatchCmd::Remove(k),
            });
        }
        h.execute_batch(&cmds, &mut scratch, &mut out);
        h.unpin();
        out.iter()
            .filter(|v| matches!(v, BatchVerdict::Added(true) | BatchVerdict::Removed(true)))
            .count()
    };
    for _ in 0..WARM {
        pass(&mut h);
    }

    let before = allocs();
    let mut changed = 0;
    for _ in 0..MEASURED {
        changed += pass(&mut h);
    }
    let after = allocs();
    assert!(
        changed > MEASURED * WIDTH / 4,
        "the passes changed the store"
    );
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "{} steady-state mutating batch ops allocated (calls, bytes)",
        MEASURED * WIDTH
    );
    drop(h);
    map.check_invariants().unwrap();
}
