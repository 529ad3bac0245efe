//! Interned symbols.
//!
//! All symbols denote **positive real quantities** (tensor dimensions, batch
//! sizes, sequence lengths). Simplification rules in [`crate::Expr`] rely on
//! positivity — e.g. `(x·y)^(1/2) = x^(1/2)·y^(1/2)` — which is sound under
//! this convention.

use std::fmt;

use parking_lot::RwLock;

/// A cheap, copyable handle to an interned symbol name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<String>,
}

static INTERNER: RwLock<Interner> = RwLock::new(Interner { names: Vec::new() });

impl Symbol {
    /// Intern `name`, returning the existing handle if already interned.
    pub fn new(name: &str) -> Symbol {
        {
            let guard = INTERNER.read();
            if let Some(idx) = guard.names.iter().position(|n| n == name) {
                return Symbol(idx as u32);
            }
        }
        let mut guard = INTERNER.write();
        // Re-check under the write lock: another thread may have interned it.
        if let Some(idx) = guard.names.iter().position(|n| n == name) {
            return Symbol(idx as u32);
        }
        let idx = guard.names.len();
        guard.names.push(name.to_owned());
        Symbol(idx as u32)
    }

    /// The symbol's name. Allocates; intended for display paths only.
    pub fn name(&self) -> String {
        INTERNER.read().names[self.0 as usize].clone()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.name())
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("hidden_dim");
        let b = Symbol::new("hidden_dim");
        assert_eq!(a, b);
        assert_eq!(a.name(), "hidden_dim");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::new("alpha_x"), Symbol::new("alpha_y"));
    }

    #[test]
    fn concurrent_interning_converges() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::new("concurrent_sym")))
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
