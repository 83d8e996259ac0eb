//! Type-erased deferred destruction.

/// A type-erased "free this later" closure: the address of a heap
/// allocation, one word of caller context, and the monomorphic function
/// that knows the allocation's real type.
///
/// This is the unit stored in reclamation bags. It is deliberately a bare
/// (data, ctx, fn) triple rather than `Box<dyn FnOnce>` so that deferring
/// a destruction performs **zero** additional allocation — reclamation
/// bookkeeping must not dominate the allocation behaviour being measured
/// (Table 1 counts objects allocated per operation).
///
/// The context word exists for the recycle path: a deferral that returns
/// the block to a [`NodePool`](crate::NodePool) instead of the global
/// allocator carries an owned `Arc` pointer to the pool there, so the
/// pool provably outlives every deferral that references it.
pub struct Deferred {
    data: *mut (),
    ctx: *mut (),
    call: unsafe fn(*mut (), *mut ()),
}

// SAFETY: a `Deferred` is only constructed from `Box::into_raw` of a
// `T: Send` allocation (enforced by the constructors' contracts), so
// transferring the right to drop it to another thread is sound.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Creates a deferred destruction for a `Box<T>` allocation.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw` and must not be freed or
    /// retired elsewhere; calling the returned deferral is the unique
    /// release of the allocation.
    pub unsafe fn drop_box<T: Send>(ptr: *mut T) -> Self {
        unsafe fn call_drop<T>(data: *mut (), _ctx: *mut ()) {
            // SAFETY: `data` is the pointer stored by `drop_box::<T>`.
            drop(unsafe { Box::from_raw(data.cast::<T>()) });
        }
        Deferred {
            data: ptr.cast(),
            ctx: std::ptr::null_mut(),
            call: call_drop::<T>,
        }
    }

    /// Creates a deferral from raw parts: `call(data, ctx)` runs exactly
    /// once when the deferral fires. This is how callers build deferrals
    /// that do something other than `Box::from_raw` — e.g. hand the block
    /// back to a node pool.
    ///
    /// # Safety
    ///
    /// * `call(data, ctx)` must be sound to invoke exactly once, from any
    ///   thread (ownership of whatever `data`/`ctx` reference transfers
    ///   into the deferral).
    /// * The deferral WILL eventually be called by any reclaimer whose
    ///   [`Reclaim::RECLAIMS`](crate::Reclaim::RECLAIMS) is `true`; under
    ///   a non-reclaiming scheme it is leaked uncalled, so `ctx` must not
    ///   be something whose leak is unsound (a leaked refcount is fine).
    pub unsafe fn from_raw(data: *mut (), ctx: *mut (), call: unsafe fn(*mut (), *mut ())) -> Self {
        Deferred { data, ctx, call }
    }

    /// The erased address: the allocation (or slot) this deferral
    /// releases, so a test can check which target a deferral carries.
    #[inline]
    pub fn address(&self) -> usize {
        self.data as usize
    }

    /// Runs the deferred destruction, consuming it.
    #[inline]
    pub fn call(self) {
        // SAFETY: constructors guarantee `data`/`ctx`/`call` are a matched
        // triple and `self` is consumed, so the destructor runs exactly
        // once.
        unsafe { (self.call)(self.data, self.ctx) }
    }
}

impl std::fmt::Debug for Deferred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deferred")
            .field("addr", &self.data)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn call_runs_destructor_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let ptr = Box::into_raw(Box::new(DropCounter(count.clone())));
        let d = unsafe { Deferred::drop_box(ptr) };
        assert_eq!(count.load(Ordering::Relaxed), 0);
        d.call();
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn address_matches_allocation() {
        let ptr = Box::into_raw(Box::new(17u64));
        let d = unsafe { Deferred::drop_box(ptr) };
        assert_eq!(d.address(), ptr as usize);
        d.call();
    }

    #[test]
    fn send_to_another_thread() {
        let count = Arc::new(AtomicUsize::new(0));
        let ptr = Box::into_raw(Box::new(DropCounter(count.clone())));
        let d = unsafe { Deferred::drop_box(ptr) };
        std::thread::spawn(move || d.call()).join().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn from_raw_passes_both_words() {
        unsafe fn record(data: *mut (), ctx: *mut ()) {
            let target = unsafe { &*(ctx as *const AtomicUsize) };
            target.store(data as usize, Ordering::Relaxed);
        }
        let target = AtomicUsize::new(0);
        let d = unsafe {
            Deferred::from_raw(0xBEE8 as *mut (), &target as *const _ as *mut (), record)
        };
        assert_eq!(d.address(), 0xBEE8);
        d.call();
        assert_eq!(target.load(Ordering::Relaxed), 0xBEE8);
    }
}
