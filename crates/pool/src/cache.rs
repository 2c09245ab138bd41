//! Content-hash cache of assembled programs, slotted templates and
//! compiled programs.
//!
//! Serving many clients means seeing the same submission many times: a
//! calibration fleet re-sends the same AllXY source, a sweep service
//! re-builds the same slotted T1 template. Assembly is pure — the same
//! source always yields the same [`Program`] — so the pool keys a cache
//! on the *content* of the submission (FNV-1a over the source bytes,
//! with the full key stored beside the entry so a 64-bit collision can
//! never alias two different programs) and hands every identical
//! submission the same [`Arc`]. The second client pays a hash lookup,
//! not an assembler pass, and the instruction memory is shared.
//!
//! Compiler output is cached the same way on a shelf of its own
//! ([`ProgramCache::compile`]), keyed on a description of the compile
//! inputs: the served QEC job compiles its d=7 program once, not once
//! per job.

use quma_core::prelude::DeviceError;
use quma_isa::prelude::{Program, ProgramTemplate};
use quma_obs::Counter;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

// The content hash and the slot-spec key fragment now live in
// `quma_isa` (the journal persists them too); re-exported here so
// existing `quma_pool::cache` paths keep working.
pub use quma_isa::hash::content_hash;
pub use quma_isa::template::SlotSpec;

/// One bounded shelf of the cache: hash buckets (entries whose key text
/// collided on the 64-bit hash — virtually always exactly one — stored
/// with the full key so a collision can never alias) plus the insertion
/// order, evicted FIFO at capacity. Bounding matters in a serving
/// layer: every other pool resource is bounded (queues reject with
/// `QueueFull`, workers keep `WARM_CAP` devices), and a client looping
/// distinct sources must not grow the pool without limit.
type Bucket<T> = Vec<(Box<str>, Arc<T>)>;

#[derive(Debug)]
struct Shelf<T> {
    buckets: HashMap<u64, Bucket<T>>,
    order: std::collections::VecDeque<(u64, Box<str>)>,
    cap: usize,
}

impl<T> Shelf<T> {
    fn new(cap: usize) -> Self {
        Self {
            buckets: HashMap::new(),
            order: std::collections::VecDeque::new(),
            cap,
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn get(&mut self, key: u64, text: &str) -> Option<Arc<T>> {
        self.buckets
            .get(&key)?
            .iter()
            .find(|(k, _)| &**k == text)
            .map(|(_, v)| Arc::clone(v))
    }

    fn insert(&mut self, key: u64, text: Box<str>, value: Arc<T>) {
        while self.order.len() >= self.cap {
            let (old_key, old_text) = self.order.pop_front().expect("non-empty order");
            if let Some(bucket) = self.buckets.get_mut(&old_key) {
                bucket.retain(|(k, _)| **k != *old_text);
                if bucket.is_empty() {
                    self.buckets.remove(&old_key);
                }
            }
        }
        self.order.push_back((key, text.clone()));
        self.buckets.entry(key).or_default().push((text, value));
    }
}

/// Entries each shelf (programs, templates) keeps before evicting the
/// oldest — far more distinct programs than any real client mix, while
/// bounding a pathological stream of unique sources.
const DEFAULT_CAPACITY: usize = 1024;

/// The shared cache: source text → assembled [`Program`],
/// (source, slots) → slotted [`ProgramTemplate`], and compile key →
/// compiled [`Program`], all `Arc`-shared so a hit costs a pointer clone.
/// Bounded (FIFO eviction per shelf); evicted entries stay alive for
/// whoever still holds their `Arc`.
#[derive(Debug)]
pub struct ProgramCache {
    programs: Mutex<Shelf<Program>>,
    templates: Mutex<Shelf<ProgramTemplate>>,
    /// Compiler output, keyed on a description of the compile inputs;
    /// a shelf of its own, so a key can never alias assembly source.
    compiled: Mutex<Shelf<Program>>,
    hits: Counter,
    misses: Counter,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ProgramCache {
    /// An empty cache holding up to 1024 programs and 1024 templates.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded at `capacity` entries per shelf.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            programs: Mutex::new(Shelf::new(capacity)),
            templates: Mutex::new(Shelf::new(capacity)),
            compiled: Mutex::new(Shelf::new(capacity)),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The hit/miss counter handles, for registration in a metric
    /// registry (the handles share state with this cache).
    pub(crate) fn hit_miss_counters(&self) -> (&Counter, &Counter) {
        (&self.hits, &self.misses)
    }

    /// The entry for `key` on `shelf`, built by `build` (and counted as
    /// a miss) when absent. The bool is true on a hit; a failed build
    /// caches nothing. `build` runs with the shelf unlocked, so a slow
    /// build holds up no other lookup and a panicking one poisons
    /// nothing; when two misses race on one key, both get the entry
    /// inserted first.
    fn through<T, E>(
        &self,
        shelf: &Mutex<Shelf<T>>,
        key: &str,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let hash = content_hash(key.as_bytes());
        let cached = shelf.lock().expect("cache poisoned").get(hash, key);
        if let Some(value) = cached {
            self.hits.inc();
            return Ok((value, true));
        }
        let built = Arc::new(build()?);
        self.misses.inc();
        let mut shelf = shelf.lock().expect("cache poisoned");
        if let Some(value) = shelf.get(hash, key) {
            return Ok((value, false));
        }
        shelf.insert(hash, key.into(), Arc::clone(&built));
        Ok((built, false))
    }

    /// Assembles `source`, or returns the cached program if the same
    /// source was assembled before. The bool is true on a hit.
    pub(crate) fn assemble_keyed(&self, source: &str) -> Result<(Arc<Program>, bool), DeviceError> {
        self.through(&self.programs, source, || {
            Ok(quma_isa::asm::Assembler::new().assemble(source)?)
        })
    }

    /// Assembles `source` through the cache.
    pub fn assemble(&self, source: &str) -> Result<Arc<Program>, DeviceError> {
        self.assemble_keyed(source).map(|(program, _)| program)
    }

    /// Assembles `source` and attaches `slots` as patch slots, through
    /// the cache ((source, slots) is the key — the same source with
    /// different slots is a different template).
    pub fn assemble_template(
        &self,
        source: &str,
        slots: &[SlotSpec],
    ) -> Result<Arc<ProgramTemplate>, DeviceError> {
        let mut keyed = String::with_capacity(source.len() + slots.len() * 16);
        keyed.push_str(source);
        use std::fmt::Write as _;
        for slot in slots {
            keyed.push('\0');
            let _ = write!(keyed, "{slot}");
        }
        let build = || {
            let mut program = quma_isa::asm::Assembler::new().assemble(source)?;
            for slot in slots {
                program.add_slot(slot.name.clone(), slot.insn_index, slot.field)?;
            }
            Ok(ProgramTemplate::new(program))
        };
        self.through(&self.templates, &keyed, build)
            .map(|(template, _)| template)
    }

    /// The program `build` compiles, cached under `key`, which must name
    /// every compile input (the `Debug` form of a program builder does,
    /// e.g. `quma_experiments::qec::QecInjected::code`). `build` runs only
    /// on a miss. The bool is true on a hit.
    pub fn compile(&self, key: &str, build: impl FnOnce() -> Program) -> (Arc<Program>, bool) {
        let built = self.through(&self.compiled, key, || Ok::<_, Infallible>(build()));
        built.unwrap_or_else(|never| match never {})
    }

    /// Submissions served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to assemble or compile.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Distinct cached entries (programs + templates + compiled
    /// programs).
    pub fn len(&self) -> usize {
        self.programs.lock().expect("cache poisoned").len()
            + self.templates.lock().expect("cache poisoned").len()
            + self.compiled.lock().expect("cache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_isa::template::PatchField;

    const SRC: &str = "Wait 100\nPulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n";

    #[test]
    fn identical_sources_share_one_program() {
        let cache = ProgramCache::new();
        let a = cache.assemble(SRC).unwrap();
        let b = cache.assemble(SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_sources_do_not_alias() {
        let cache = ProgramCache::new();
        let a = cache.assemble(SRC).unwrap();
        let b = cache.assemble("Wait 10\nhalt\n").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn template_key_includes_slots() {
        let cache = ProgramCache::new();
        let slot_a = [SlotSpec::new("tau", 0, PatchField::WaitInterval)];
        let slot_b = [SlotSpec::new("window", 3, PatchField::MpgDuration)];
        let a = cache.assemble_template(SRC, &slot_a).unwrap();
        let b = cache.assemble_template(SRC, &slot_b).unwrap();
        let a2 = cache.assemble_template(SRC, &slot_a).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn compile_keys_never_alias_assembly_sources() {
        // A compile key equal to a cached source still builds its own
        // program, and each shelf then hits on its own entry.
        let cache = ProgramCache::new();
        let assembled = cache.assemble(SRC).unwrap();
        let mut builds = 0;
        let mut compile = || {
            cache.compile(SRC, || {
                builds += 1;
                quma_isa::asm::Assembler::new()
                    .assemble("Wait 10\nhalt\n")
                    .unwrap()
            })
        };
        let ((first, first_hit), (again, again_hit)) = (compile(), compile());
        assert_eq!((first_hit, again_hit), (false, true));
        assert_eq!(builds, 1, "a hit does not rebuild");
        assert!(Arc::ptr_eq(&first, &again));
        assert!(!Arc::ptr_eq(&first, &assembled));
        assert!(Arc::ptr_eq(&cache.assemble(SRC).unwrap(), &assembled));
        assert_eq!((cache.misses(), cache.hits()), (2, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_panicking_compile_leaves_the_cache_serving() {
        // The build runs outside the shelf lock, so its panic poisons
        // nothing: the same key compiles on the next call, and other
        // shelves never noticed.
        let cache = ProgramCache::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.compile("key", || panic!("bad compile inputs"))
        }));
        assert!(panicked.is_err());
        assert!(cache.is_empty());
        let (program, _) = cache.compile("key", || {
            quma_isa::asm::Assembler::new()
                .assemble("Wait 10\nhalt\n")
                .unwrap()
        });
        assert!(Arc::ptr_eq(
            &program,
            &cache.compile("key", || unreachable!()).0
        ));
        assert!(cache.assemble(SRC).is_ok());
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
    }

    #[test]
    fn assembly_errors_surface_and_cache_nothing() {
        let cache = ProgramCache::new();
        assert!(cache.assemble("not an instruction\n").is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn capacity_bounds_the_cache_with_fifo_eviction() {
        let cache = ProgramCache::with_capacity(2);
        let sources = ["Wait 1\nhalt\n", "Wait 2\nhalt\n", "Wait 3\nhalt\n"];
        for src in sources {
            cache.assemble(src).unwrap();
        }
        assert_eq!(cache.len(), 2, "the shelf never exceeds its bound");
        // The oldest entry was evicted: re-assembling it is a miss …
        assert_eq!(cache.misses(), 3);
        cache.assemble(sources[0]).unwrap();
        assert_eq!(cache.misses(), 4);
        // … while the newest survivor is still a hit.
        cache.assemble(sources[2]).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }
}
