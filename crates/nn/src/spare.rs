//! Spare `f64` buffers that outlive one training batch.
//!
//! A 64-row chunk of the paper LSTM holds about 6 MiB of forward cache and
//! backward scratch. Handed back to glibc after every batch, that memory is
//! unmapped or trimmed, and the next batch faults every page back in
//! (DESIGN §7.1). While a [`keep`] scope is open — a training epoch, an
//! input-gradient call — [`give`] keeps returned buffers and [`take`] hands
//! them out again; when the last scope closes they are freed, so nothing
//! stays resident after the work that needed them. The spares are shared
//! by all threads, because a chunk may run on any of `par`'s workers.
//!
//! A taken buffer's contents are unspecified: callers overwrite what they
//! read, so which buffer a chunk gets never changes any result.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// At most this many spare buffers are kept: a two-layer LSTM forward
/// holds ten cache buffers per worker, its backward a few more.
const MAX_SPARE: usize = 32;

/// Byte budget of the spare buffers.
const MAX_SPARE_BYTES: usize = 32 << 20;

struct Spares {
    /// Open [`keep`] scopes; buffers are kept only while this is non-zero.
    scopes: usize,
    bufs: Vec<Vec<f64>>,
}

static SPARES: Mutex<Spares> = Mutex::new(Spares {
    scopes: 0,
    bufs: Vec::new(),
});

fn spares() -> MutexGuard<'static, Spares> {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// While the returned guard lives, buffers handed to [`give`] are kept for
/// [`take`]. Scopes nest; the spares are freed when the last one closes.
pub(crate) fn keep() -> Keep {
    spares().scopes += 1;
    Keep(())
}

/// An open [`keep`] scope.
pub(crate) struct Keep(());

impl Drop for Keep {
    fn drop(&mut self) {
        let freed = {
            let mut spares = spares();
            spares.scopes -= 1;
            if spares.scopes == 0 {
                std::mem::take(&mut spares.bufs)
            } else {
                Vec::new()
            }
        };
        drop(freed);
    }
}

/// A buffer of `len` elements with unspecified contents: the spare with
/// the smallest capacity that fits, else a fresh allocation.
pub(crate) fn take(len: usize) -> Vec<f64> {
    if len == 0 {
        return Vec::new();
    }
    let mut buf = spares().best_fit(len).unwrap_or_default();
    buf.resize(len, 0.0);
    buf
}

/// Returns buffers for reuse while a [`keep`] scope is open, within
/// [`MAX_SPARE`] buffers and [`MAX_SPARE_BYTES`]; the rest are freed.
pub(crate) fn give(bufs: impl IntoIterator<Item = Vec<f64>>) {
    let freed = spares().keep_within_budget(bufs);
    drop(freed);
}

impl Spares {
    /// Removes and returns the spare with the smallest capacity of at
    /// least `len`.
    fn best_fit(&mut self, len: usize) -> Option<Vec<f64>> {
        let best = (0..self.bufs.len())
            .filter(|&i| self.bufs[i].capacity() >= len)
            .min_by_key(|&i| self.bufs[i].capacity())?;
        Some(self.bufs.swap_remove(best))
    }

    /// Keeps what the scope and the budget allow; returns the rest.
    fn keep_within_budget(&mut self, bufs: impl IntoIterator<Item = Vec<f64>>) -> Vec<Vec<f64>> {
        let mut bytes: usize = self.bufs.iter().map(|b| b.capacity() * 8).sum();
        let mut rest = Vec::new();
        for buf in bufs {
            let size = buf.capacity() * 8;
            let fits = self.bufs.len() < MAX_SPARE && bytes + size <= MAX_SPARE_BYTES;
            if self.scopes > 0 && size > 0 && fits {
                bytes += size;
                self.bufs.push(buf);
            } else {
                rest.push(buf);
            }
        }
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spares_with(scopes: usize) -> Spares {
        Spares {
            scopes,
            bufs: Vec::new(),
        }
    }

    #[test]
    fn nothing_is_kept_outside_a_scope() {
        let mut s = spares_with(0);
        let rest = s.keep_within_budget([vec![0.0; 8]]);
        assert_eq!(rest.len(), 1);
        assert!(s.best_fit(1).is_none());
    }

    #[test]
    fn best_fit_takes_the_smallest_buffer_that_fits() {
        let mut s = spares_with(1);
        let small = Vec::<f64>::with_capacity(100);
        let large = Vec::<f64>::with_capacity(1000);
        let (small_ptr, large_ptr) = (small.as_ptr(), large.as_ptr());
        assert!(s.keep_within_budget([large, small]).is_empty());
        assert!(s.best_fit(2000).is_none());
        assert_eq!(s.best_fit(50).map(|b| b.as_ptr()), Some(small_ptr));
        assert_eq!(s.best_fit(50).map(|b| b.as_ptr()), Some(large_ptr));
        assert!(s.best_fit(1).is_none());
    }

    #[test]
    fn the_budget_caps_what_is_kept() {
        let mut s = spares_with(1);
        let rest = s.keep_within_budget((0..MAX_SPARE + 3).map(|_| vec![0.0; 4]));
        assert_eq!((s.bufs.len(), rest.len()), (MAX_SPARE, 3));
        let mut s = spares_with(1);
        let rest = s.keep_within_budget([vec![0.0; MAX_SPARE_BYTES / 8 + 1]]);
        assert_eq!((s.bufs.len(), rest.len()), (0, 1));
    }

    #[test]
    fn take_resizes_to_the_requested_length() {
        let _scope = keep();
        give([vec![1.0; 64]]);
        assert_eq!(take(16).len(), 16);
        assert_eq!(take(100).len(), 100);
    }
}
