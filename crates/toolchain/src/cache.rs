//! The shared build-artifact cache.
//!
//! FLiT's hierarchical bisection relinks the same handful of objects
//! hundreds of times: every file-level Test executable recompiles every
//! translation unit, every symbol-level probe recompiles the target file
//! twice under `-fPIC`, and every search relinks the trusted baseline.
//! This module memoizes both layers:
//!
//! * an **object cache** keyed on
//!   `(program fingerprint, file id, compilation, pic, build tag)` —
//!   everything [`crate::object::ObjectFile`] can depend on (object
//!   files carry symbol *structure*, never function bodies, so two
//!   programs with identical structure may share objects); and
//! * a **link memo** keyed on a recipe digest of the exact object set
//!   plus the link driver. A memo hit skips the compiles *and* the link.
//!
//! Both layers sit behind [`BuildCtx`], a cheap cloneable handle that is
//! threaded through `flit-program::build`, the bisect hierarchy, and the
//! matrix runner. Three modes exist:
//!
//! * [`BuildCtx::cached`] — reuse artifacts and count work;
//! * [`BuildCtx::counting`] — count work but never reuse (the "cache
//!   off" A/B arm, so both arms report comparable counters);
//! * [`BuildCtx::uncached`] — no cache, no counters, zero overhead
//!   (the default; preserves the original build path exactly).
//!
//! Reuse is *sound* because the simulated toolchain is referentially
//! transparent: `compile_file` is a pure function of the file's
//! structure and the compilation, and `link` is a pure function of the
//! objects and driver. It is *deterministic* because a given request
//! stream produces the same artifacts and the same counter totals under
//! any thread schedule (first requester compiles, later ones hit).

use std::collections::HashMap;
use std::sync::Arc;

use flit_trace::names::counter as counter_names;
use flit_trace::registry::{Counter, MetricsRegistry};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::compilation::Compilation;
use crate::linker::{Executable, LinkError};
use crate::object::ObjectFile;

/// Everything an [`ObjectFile`] produced by the simulated compiler can
/// depend on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectKey {
    /// Structural fingerprint of the program being compiled.
    pub program: u64,
    /// Translation-unit index.
    pub file_id: usize,
    /// The compilation triple (before any `-fPIC` rewrite).
    pub compilation: Compilation,
    /// Whether the unit is compiled position-independent.
    pub pic: bool,
    /// Build tag stamped onto the object (baseline/variable).
    pub tag: u32,
}

/// Build-work counters exposed through the results database and
/// `flit analyze`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Object files actually produced by the simulated compiler.
    pub objects_compiled: u64,
    /// Object requests served from the cache.
    pub object_cache_hits: u64,
    /// Link steps actually performed.
    pub links: u64,
    /// Executable requests served from the link memo.
    pub link_memo_hits: u64,
}

impl BuildStats {
    /// Total object requests (compiled + served from cache).
    pub fn object_requests(&self) -> u64 {
        self.objects_compiled + self.object_cache_hits
    }

    /// Total executable requests (linked + served from the memo).
    pub fn link_requests(&self) -> u64 {
        self.links + self.link_memo_hits
    }
}

/// Lock shards per map. Each shard's lock is held across the compile or
/// link it guards (that is what makes same-key requests build exactly
/// once and the counters schedule-independent), so without sharding a
/// parallel sweep — all *distinct* keys — would serialize behind one
/// lock.
const SHARDS: usize = 16;

fn object_shard(key: &ObjectKey) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % SHARDS as u64) as usize
}

fn link_shard(digest: u64) -> usize {
    (digest % SHARDS as u64) as usize
}

/// A memoized link outcome: errors are cached alongside successes so a
/// failing recipe is not re-linked either.
type LinkResult = Result<Arc<Executable>, LinkError>;

/// The shared cache state behind a counting or caching [`BuildCtx`].
///
/// Work counters are [`flit_trace::registry::Counter`] handles resolved
/// from a [`MetricsRegistry`] — by default a private one, or a caller's
/// shared registry (see [`BuildCtx::cached_in`]) so the same totals
/// appear in a workflow trace and in [`BuildCtx::stats`].
#[derive(Debug)]
struct CacheInner {
    /// `false` = counting mode: tally work, never reuse.
    reuse: bool,
    objects: [Mutex<HashMap<ObjectKey, ObjectFile>>; SHARDS],
    links: [Mutex<HashMap<u64, LinkResult>>; SHARDS],
    objects_compiled: Counter,
    object_cache_hits: Counter,
    links_done: Counter,
    link_memo_hits: Counter,
}

impl CacheInner {
    fn new(reuse: bool, registry: &MetricsRegistry) -> Self {
        CacheInner {
            reuse,
            objects: Default::default(),
            links: Default::default(),
            objects_compiled: registry.counter(counter_names::BUILD_OBJECTS_COMPILED),
            object_cache_hits: registry.counter(counter_names::BUILD_OBJECT_CACHE_HITS),
            links_done: registry.counter(counter_names::BUILD_LINKS),
            link_memo_hits: registry.counter(counter_names::BUILD_LINK_MEMO_HITS),
        }
    }
}

/// Handle to a (possibly absent) build-artifact cache. Clones share the
/// same underlying cache and counters; the handle is `Send + Sync` and
/// safe to use from the runner's worker threads.
#[derive(Debug, Clone, Default)]
pub struct BuildCtx(Option<Arc<CacheInner>>);

impl BuildCtx {
    /// A caching context: reuse artifacts and count work (into a
    /// private registry).
    pub fn cached() -> Self {
        BuildCtx::cached_in(&MetricsRegistry::new())
    }

    /// A caching context whose work counters live in `registry` — the
    /// single source of truth shared with a
    /// [`flit_trace::sink::TraceSink`], so a workflow trace and
    /// [`BuildCtx::stats`] report the same numbers.
    pub fn cached_in(registry: &MetricsRegistry) -> Self {
        BuildCtx(Some(Arc::new(CacheInner::new(true, registry))))
    }

    /// A counting context: tally compiles and links without reusing
    /// anything — the "cache off" arm of an A/B comparison.
    pub fn counting() -> Self {
        BuildCtx::counting_in(&MetricsRegistry::new())
    }

    /// [`BuildCtx::counting`] with counters in a shared `registry`.
    pub fn counting_in(registry: &MetricsRegistry) -> Self {
        BuildCtx(Some(Arc::new(CacheInner::new(false, registry))))
    }

    /// No cache, no counters (the default).
    pub fn uncached() -> Self {
        BuildCtx(None)
    }

    /// Snapshot of the work counters (all zero for an uncached
    /// context). Values are read from the registry-backed counters, so
    /// a context built with [`BuildCtx::cached_in`] reports exactly
    /// what the shared registry's trace snapshot reports.
    ///
    /// Note: with a *shared* registry, other contexts registered in the
    /// same registry contribute to the same counters — that is the
    /// point (one source of truth per workflow).
    pub fn stats(&self) -> BuildStats {
        match &self.0 {
            None => BuildStats::default(),
            Some(c) => BuildStats {
                objects_compiled: c.objects_compiled.get(),
                object_cache_hits: c.object_cache_hits.get(),
                links: c.links_done.get(),
                link_memo_hits: c.link_memo_hits.get(),
            },
        }
    }

    /// Produce the object for `key`, compiling with `compile` on a miss.
    ///
    /// The key's shard lock is held across the compile so that
    /// concurrent requests for the same key compile exactly once and the
    /// counters stay schedule-independent.
    pub fn object_with(&self, key: ObjectKey, compile: impl FnOnce() -> ObjectFile) -> ObjectFile {
        let Some(inner) = &self.0 else {
            return compile();
        };
        if !inner.reuse {
            inner.objects_compiled.incr(1);
            return compile();
        }
        let mut objects = inner.objects[object_shard(&key)].lock();
        if let Some(hit) = objects.get(&key) {
            inner.object_cache_hits.incr(1);
            return hit.clone();
        }
        inner.objects_compiled.incr(1);
        let obj = compile();
        objects.insert(key, obj.clone());
        obj
    }

    /// Produce the executable whose recipe digest is `digest`, building
    /// (compiling any missing objects and linking) with `build` on a
    /// miss.
    ///
    /// The digest's shard lock is held across the build, so a digest is
    /// built exactly once under any schedule. `build` may call
    /// [`BuildCtx::object_with`] (object shards are separate locks, only
    /// ever taken *after* a link shard; no two shards of the same map
    /// are ever held together).
    pub fn link_with(
        &self,
        digest: u64,
        build: impl FnOnce() -> Result<Executable, LinkError>,
    ) -> Result<Arc<Executable>, LinkError> {
        let Some(inner) = &self.0 else {
            return build().map(Arc::new);
        };
        if !inner.reuse {
            inner.links_done.incr(1);
            return build().map(Arc::new);
        }
        let mut links = inner.links[link_shard(digest)].lock();
        if let Some(hit) = links.get(&digest) {
            inner.link_memo_hits.incr(1);
            return hit.clone();
        }
        inner.links_done.incr(1);
        let result = build().map(Arc::new);
        links.insert(digest, result.clone());
        result
    }
}

/// Incremental FNV-1a hasher for building link-recipe digests.
///
/// Field boundaries are marked with a `0xFF` separator byte (which
/// cannot appear in the UTF-8 content being hashed), so adjacent fields
/// cannot alias each other.
#[derive(Debug, Clone)]
pub struct RecipeHasher {
    h: u64,
}

impl Default for RecipeHasher {
    fn default() -> Self {
        RecipeHasher::new()
    }
}

impl RecipeHasher {
    /// Start a fresh digest (FNV offset basis).
    pub fn new() -> Self {
        RecipeHasher {
            h: 0xcbf29ce484222325,
        }
    }

    /// Mix raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Mix a string field (terminated by a separator).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes());
        self.write(&[0xFF])
    }

    /// Mix a `u64` field.
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        self.write(&x.to_le_bytes());
        self.write(&[0xFF])
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompilerKind, OptLevel};
    use crate::linker::link;
    use crate::object::{Linkage, SymbolEntry};

    impl BuildCtx {
        /// Does this context reuse artifacts?
        fn is_caching(&self) -> bool {
            self.0.as_ref().is_some_and(|c| c.reuse)
        }
    }

    fn key(file_id: usize, pic: bool) -> ObjectKey {
        ObjectKey {
            program: 42,
            file_id,
            compilation: Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]),
            pic,
            tag: 0,
        }
    }

    fn obj(file_id: usize) -> ObjectFile {
        ObjectFile {
            file_id,
            file_name: format!("f{file_id}.cpp"),
            compilation: Compilation::new(CompilerKind::Gcc, OptLevel::O2, vec![]),
            pic: false,
            build_tag: 0,
            symbols: vec![SymbolEntry {
                name: format!("sym{file_id}"),
                linkage: Linkage::Strong,
            }],
        }
    }

    #[test]
    fn cached_reuses_objects_and_counts() {
        let ctx = BuildCtx::cached();
        let a = ctx.object_with(key(0, false), || obj(0));
        let b = ctx.object_with(key(0, false), || panic!("must hit the cache"));
        assert_eq!(a, b);
        let s = ctx.stats();
        assert_eq!(s.objects_compiled, 1);
        assert_eq!(s.object_cache_hits, 1);
        // A different key misses.
        let _ = ctx.object_with(key(1, false), || obj(1));
        assert_eq!(ctx.stats().objects_compiled, 2);
    }

    #[test]
    fn pic_and_tag_are_part_of_the_key() {
        let ctx = BuildCtx::cached();
        let _ = ctx.object_with(key(0, false), || obj(0));
        let _ = ctx.object_with(key(0, true), || obj(0));
        let mut tagged = key(0, false);
        tagged.tag = 1;
        let _ = ctx.object_with(tagged, || obj(0));
        let s = ctx.stats();
        assert_eq!(s.objects_compiled, 3);
        assert_eq!(s.object_cache_hits, 0);
    }

    #[test]
    fn counting_counts_without_reuse() {
        let ctx = BuildCtx::counting();
        let mut compiles = 0;
        for _ in 0..3 {
            let _ = ctx.object_with(key(0, false), || {
                compiles += 1;
                obj(0)
            });
        }
        assert_eq!(compiles, 3);
        let s = ctx.stats();
        assert_eq!(s.objects_compiled, 3);
        assert_eq!(s.object_cache_hits, 0);
        assert!(!ctx.is_caching());
    }

    #[test]
    fn uncached_is_invisible() {
        let ctx = BuildCtx::uncached();
        let _ = ctx.object_with(key(0, false), || obj(0));
        assert_eq!(ctx.stats(), BuildStats::default());
    }

    #[test]
    fn link_memo_hits_skip_the_build_entirely() {
        let ctx = BuildCtx::cached();
        let e1 = ctx
            .link_with(7, || link(vec![obj(0), obj(1)], CompilerKind::Gcc))
            .unwrap();
        let e2 = ctx.link_with(7, || panic!("must hit the memo")).unwrap();
        assert!(Arc::ptr_eq(&e1, &e2));
        let s = ctx.stats();
        assert_eq!(s.links, 1);
        assert_eq!(s.link_memo_hits, 1);
    }

    #[test]
    fn link_errors_are_memoized_too() {
        let ctx = BuildCtx::cached();
        let e1 = ctx.link_with(9, || link(vec![], CompilerKind::Gcc));
        let e2 = ctx.link_with(9, || panic!("must hit the memo"));
        assert_eq!(e1.unwrap_err(), LinkError::EmptyLink);
        assert_eq!(e2.unwrap_err(), LinkError::EmptyLink);
        assert_eq!(ctx.stats().link_memo_hits, 1);
    }

    #[test]
    fn clones_share_the_cache() {
        let ctx = BuildCtx::cached();
        let ctx2 = ctx.clone();
        let _ = ctx.object_with(key(0, false), || obj(0));
        let _ = ctx2.object_with(key(0, false), || panic!("shared cache"));
        assert_eq!(ctx.stats().object_cache_hits, 1);
        assert_eq!(ctx2.stats(), ctx.stats());
    }

    #[test]
    fn recipe_hasher_separates_fields() {
        let a = {
            let mut h = RecipeHasher::new();
            h.write_str("ab").write_str("c");
            h.finish()
        };
        let b = {
            let mut h = RecipeHasher::new();
            h.write_str("a").write_str("bc");
            h.finish()
        };
        assert_ne!(a, b);
        let c = {
            let mut h = RecipeHasher::new();
            h.write_u64(1).write_u64(2);
            h.finish()
        };
        let d = {
            let mut h = RecipeHasher::new();
            h.write_u64(2).write_u64(1);
            h.finish()
        };
        assert_ne!(c, d);
    }

    #[test]
    fn stats_serialize_round_trip() {
        use serde::{Deserialize as _, Serialize as _};
        let s = BuildStats {
            objects_compiled: 10,
            object_cache_hits: 90,
            links: 4,
            link_memo_hits: 6,
        };
        let back = BuildStats::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.object_requests(), 100);
        assert_eq!(s.link_requests(), 10);
    }
}
