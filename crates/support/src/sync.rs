//! `std::sync` locks behind the ergonomics the workspace was written
//! against.
//!
//! The workspace's crates used `parking_lot` locks (no poison plumbing at
//! call sites: `lock()`/`read()`/`write()` return guards directly). These
//! thin wrappers provide the same call-site shape over `std::sync` only.
//! Channels need no wrapper: the daemons' bounded job queues are
//! `std::sync::mpsc::sync_channel`s.
//!
//! Poisoning policy: a poisoned lock means a peer thread panicked while
//! holding shared state; continuing on that state would be silent data
//! corruption, so the wrappers propagate the panic — the behaviour
//! `parking_lot` callers implicitly relied on never having to think about.

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, panicking if a previous holder panicked.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().expect("mutex poisoned: a thread panicked while holding it")
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .expect("mutex poisoned: a thread panicked while holding it")
    }
}

/// A readers-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().expect("rwlock poisoned: a thread panicked while holding it")
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0
            .write()
            .expect("rwlock poisoned: a thread panicked while holding it")
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .expect("rwlock poisoned: a thread panicked while holding it")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_rwlock_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);

        let rw = RwLock::new(vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.into_inner(), vec![1, 2, 3]);
    }
}
