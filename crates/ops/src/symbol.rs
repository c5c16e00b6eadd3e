//! Interned symbols.
//!
//! OPS5 and Soar manipulate symbolic constants (`block`, `blue`, `free`) and
//! generated identifiers (`g00017`). All symbols are interned into a global
//! table so that equality tests — the dominant operation of the matcher — are
//! single integer comparisons, and so that wmes and tokens stay `Copy`-cheap.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An interned symbol. Two symbols are equal iff their names are equal.
///
/// Ordering is by intern id (creation order), which is stable within a
/// process run; OPS5 semantics never depend on symbol *name* ordering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

struct Interner {
    map: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Intern `name`, returning its unique [`Symbol`].
pub fn intern(name: &str) -> Symbol {
    {
        let g = interner().read();
        if let Some(&id) = g.map.get(name) {
            return Symbol(id);
        }
    }
    let mut g = interner().write();
    if let Some(&id) = g.map.get(name) {
        return Symbol(id);
    }
    let id = g.names.len() as u32;
    let arc: Arc<str> = Arc::from(name);
    g.names.push(arc.clone());
    g.map.insert(arc, id);
    Symbol(id)
}

/// A symbol whose name is fixed in the source, interned the first time it
/// is asked for and read without the interner's lock after that.
///
/// It is interned at the moment a plain [`intern`] call in its place would
/// have interned it, so the process's interning order, and with it every
/// symbol id, does not move (memory placement hashes symbol ids).
pub struct LazySymbol {
    name: &'static str,
    sym: OnceLock<Symbol>,
}

impl LazySymbol {
    /// A symbol named `name`, not interned yet.
    pub const fn new(name: &'static str) -> LazySymbol {
        LazySymbol { name, sym: OnceLock::new() }
    }

    /// The symbol.
    pub fn get(&self) -> Symbol {
        *self.sym.get_or_init(|| intern(self.name))
    }
}

/// Return the name of an interned symbol.
pub fn sym_name(sym: Symbol) -> Arc<str> {
    interner().read().names[sym.0 as usize].clone()
}

/// Generate a fresh, never-before-interned symbol with the given prefix.
///
/// This is the process-global analogue of OPS5's `genatom`. Soar agents use
/// their own per-agent counters (see `psme-soar`) so that runs are
/// deterministic; `gensym` is a convenience for tests and ad-hoc use.
pub fn gensym(prefix: &str) -> Symbol {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("{prefix}*{n:05}");
        if interner().read().map.contains_key(name.as_str()) {
            continue;
        }
        return intern(&name);
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = intern("blue");
        let b = intern("blue");
        assert_eq!(a, b);
        assert_eq!(&*sym_name(a), "blue");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(intern("left"), intern("right"));
    }

    #[test]
    fn gensym_is_fresh() {
        let g1 = gensym("g");
        let g2 = gensym("g");
        assert_ne!(g1, g2);
        // A gensym never collides with an already-interned name.
        let pre = intern("x*99999");
        let g3 = gensym("x");
        assert_ne!(g3, pre);
    }

    #[test]
    fn symbols_are_display() {
        let s = intern("eight-puzzle");
        assert_eq!(format!("{s}"), "eight-puzzle");
        assert_eq!(format!("{s:?}"), "eight-puzzle");
    }

    #[test]
    fn intern_many_threads() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| intern(&format!("sym-{}", (i + t) % 100)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All threads must agree on the ids.
        for w in &results[1..] {
            for (a, b) in results[0].iter().zip(w.iter()) {
                assert_eq!(!sym_name(*a).is_empty(), !sym_name(*b).is_empty());
            }
        }
        assert_eq!(intern("sym-0"), intern("sym-0"));
    }
}
