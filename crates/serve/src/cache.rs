//! A shared in-memory trace cache keyed by canonical request body.
//!
//! The compile stage builds each workload trace once; repeat requests for
//! the same canonical body reuse both the raw trace (which feeds the
//! `Validator`, so cached and uncached requests are bit-identical) and its
//! [`CompiledTrace`] (which the guard stage re-verifies on every hit — a
//! cache entry whose invariants no longer hold is rebuilt, not served).
//!
//! Eviction is least-recently-used over a small fixed capacity: the
//! service is expected to see a handful of hot workloads, not an unbounded
//! stream of distinct ones.

use std::sync::{Arc, Mutex};

use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::SerrError;

/// How a lookup was satisfied, for the metrics at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry present and its compiled form passed verification.
    Hit,
    /// Entry present but its compiled form failed verification; the trace
    /// was rebuilt from scratch and the entry replaced.
    HitRebuilt,
    /// Entry absent; built and inserted (possibly evicting the LRU entry).
    Miss,
}

/// One cached workload: the raw trace (AVF reads it) and its verified
/// compiled form, which Monte Carlo, renewal and SoftArch share.
#[derive(Clone)]
pub struct CachedTrace {
    /// The trace exactly as the batch CLI would build it.
    pub raw: Arc<dyn VulnerabilityTrace>,
    /// The compiled form, when the trace is compilable (all service
    /// workloads are; `None` falls back to the event-loop path on `raw`).
    pub compiled: Option<Arc<CompiledTrace>>,
}

impl std::fmt::Debug for CachedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedTrace")
            .field("avf", &self.raw.avf())
            .field("compiled", &self.compiled.is_some())
            .finish()
    }
}

struct Entry {
    key: String,
    cached: CachedTrace,
    last_use: u64,
}

struct Inner {
    entries: Vec<Entry>,
    tick: u64,
}

/// A bounded LRU cache of built workload traces.
pub struct TraceCache {
    cap: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache").field("cap", &self.cap).finish()
    }
}

impl TraceCache {
    /// A cache holding at most `cap` traces (`cap` ≥ 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TraceCache { cap: cap.max(1), inner: Mutex::new(Inner { entries: Vec::new(), tick: 0 }) }
    }

    /// Looks up `key`, building (and caching) the trace with `build_raw` on
    /// a miss or on a hit whose compiled form no longer verifies.
    ///
    /// Returns the outcome alongside the trace so the caller can count
    /// hits, misses, and rebuilds; `evicted` reports whether an LRU entry
    /// was displaced.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (e.g. an invalid workload spec);
    /// nothing is cached on error.
    pub fn get_or_build(
        &self,
        key: &str,
        build_raw: impl FnOnce() -> Result<Arc<dyn VulnerabilityTrace>, SerrError>,
    ) -> Result<(CachedTrace, CacheOutcome, bool), SerrError> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.tick += 1;
        let tick = g.tick;
        if let Some(e) = g.entries.iter_mut().find(|e| e.key == key) {
            e.last_use = tick;
            let verified = match &e.cached.compiled {
                Some(c) => c.verify().is_ok(),
                // Nothing compiled means nothing to corrupt; serve as-is.
                None => true,
            };
            if verified {
                return Ok((e.cached.clone(), CacheOutcome::Hit, false));
            }
            // The compiled tables failed their invariant check: rebuild in
            // place rather than serving a corrupted estimate.
            let raw = build_raw()?;
            let compiled = CompiledTrace::compile(&*raw).map(Arc::new);
            e.cached = CachedTrace { raw, compiled };
            return Ok((e.cached.clone(), CacheOutcome::HitRebuilt, false));
        }
        let raw = build_raw()?;
        let compiled = CompiledTrace::compile(&*raw).map(Arc::new);
        let cached = CachedTrace { raw, compiled };
        let mut evicted = false;
        if g.entries.len() >= self.cap {
            if let Some(lru) =
                g.entries.iter().enumerate().min_by_key(|(_, e)| e.last_use).map(|(i, _)| i)
            {
                g.entries.swap_remove(lru);
                evicted = true;
            }
        }
        g.entries.push(Entry { key: key.to_owned(), cached: cached.clone(), last_use: tick });
        Ok((cached, CacheOutcome::Miss, evicted))
    }

    /// Test hook: corrupt a cached entry's compiled trace so the next hit
    /// must detect it and rebuild.
    #[cfg(test)]
    fn poison(&self, key: &str, bad: Arc<CompiledTrace>) -> bool {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match g.entries.iter_mut().find(|e| e.key == key) {
            Some(e) => {
                e.cached.compiled = Some(bad);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::IntervalTrace;

    fn build(busy: u64) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
        Ok(Arc::new(IntervalTrace::busy_idle(busy, 1_000)?))
    }

    #[test]
    fn hits_reuse_the_same_raw_trace() {
        let cache = TraceCache::new(4);
        let (a, out, _) = cache.get_or_build("k", || build(100)).expect("builds");
        assert_eq!(out, CacheOutcome::Miss);
        let (b, out, _) =
            cache.get_or_build("k", || panic!("hit must not rebuild")).expect("cached");
        assert_eq!(out, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a.raw, &b.raw), "hit returns the identical Arc");
        assert!(a.compiled.is_some(), "interval traces compile");
    }

    #[test]
    fn lru_entry_is_evicted_at_capacity() {
        let cache = TraceCache::new(2);
        cache.get_or_build("a", || build(100)).expect("builds");
        cache.get_or_build("b", || build(200)).expect("builds");
        // Touch "a" so "b" is the LRU victim.
        cache.get_or_build("a", || panic!("hit")).expect("cached");
        let (_, out, evicted) = cache.get_or_build("c", || build(300)).expect("builds");
        assert_eq!((out, evicted), (CacheOutcome::Miss, true));
        // "a" survived, "b" did not.
        cache.get_or_build("a", || panic!("a must still be cached")).expect("cached");
        let (_, out, _) = cache.get_or_build("b", || build(200)).expect("rebuilds");
        assert_eq!(out, CacheOutcome::Miss, "the LRU entry was evicted");
    }

    #[test]
    fn corrupted_compiled_entry_is_rebuilt_on_hit() {
        let cache = TraceCache::new(4);
        cache.get_or_build("k", || build(100)).expect("builds");
        // Corrupt the compiled tables the way the chaos taxonomy does: a
        // bit flip in the dominant segment value fails `verify()`.
        let mut broken =
            CompiledTrace::compile(&IntervalTrace::busy_idle(100, 1_000).expect("valid trace"))
                .expect("compiles");
        broken.chaos_flip_dominant_value_bit(51);
        let bad = Arc::new(broken);
        assert!(cache.poison("k", bad));
        let (got, out, _) = cache.get_or_build("k", || build(100)).expect("rebuilds");
        assert_eq!(out, CacheOutcome::HitRebuilt);
        assert!(
            got.compiled.as_deref().map(CompiledTrace::verify).is_some_and(|r| r.is_ok()),
            "the rebuilt entry verifies again"
        );
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cache = TraceCache::new(4);
        let err = cache.get_or_build("bad", || Err(SerrError::invalid_config("nope")));
        assert!(err.is_err());
        // The failed build left no entry behind.
        let (_, out, _) = cache.get_or_build("bad", || build(100)).expect("builds");
        assert_eq!(out, CacheOutcome::Miss);
    }
}
