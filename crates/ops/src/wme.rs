//! Working-memory elements and class declarations.
//!
//! OPS5 wmes are record structures "with a fixed set of named access
//! functions, called attributes, much like Pascal records" (§2.1). A class is
//! declared with `(literalize class attr…)`; a wme of that class has one
//! field slot per declared attribute.

use crate::symbol::{intern, Symbol};
use crate::util::FxHashMap;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Index of a wme inside a working memory (dense, never reused within a run).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct WmeId(pub u32);

/// OPS5 time tag: monotonically increasing stamp assigned when a wme enters
/// working memory; recency drives LEX conflict resolution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct TimeTag(pub u64);

/// A `literalize` declaration: the ordered attribute list of a class.
#[derive(Clone, Debug)]
pub struct ClassDecl {
    /// Class name.
    pub name: Symbol,
    /// Attribute names in field order.
    pub attrs: Vec<Symbol>,
    index: FxHashMap<Symbol, u16>,
}

impl ClassDecl {
    /// Build a declaration; attribute names must be distinct.
    pub fn new(name: Symbol, attrs: Vec<Symbol>) -> Result<ClassDecl, String> {
        let mut index = FxHashMap::with_capacity_and_hasher(attrs.len(), Default::default());
        for (i, &a) in attrs.iter().enumerate() {
            if index.insert(a, i as u16).is_some() {
                return Err(format!("duplicate attribute {a} in class {name}"));
            }
        }
        Ok(ClassDecl { name, attrs, index })
    }

    /// Field index of an attribute.
    pub fn field_of(&self, attr: Symbol) -> Option<u16> {
        self.index.get(&attr).copied()
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }
}

/// Registry of all declared classes for one production system. Firing, GC
/// and level bookkeeping look a class up for every wme they touch, so both
/// this map and a declaration's attribute index hash with Fx.
#[derive(Clone, Debug, Default)]
pub struct ClassRegistry {
    classes: FxHashMap<Symbol, Arc<ClassDecl>>,
}

impl ClassRegistry {
    /// Empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Declare a class (errors on redeclaration with a different attribute
    /// list; identical redeclaration is a no-op, as in OPS5 reloads).
    pub fn declare(&mut self, decl: ClassDecl) -> Result<Arc<ClassDecl>, String> {
        if let Some(existing) = self.classes.get(&decl.name) {
            if existing.attrs == decl.attrs {
                return Ok(existing.clone());
            }
            return Err(format!("class {} redeclared with different attributes", decl.name));
        }
        let arc = Arc::new(decl);
        self.classes.insert(arc.name, arc.clone());
        Ok(arc)
    }

    /// Convenience: declare from string names.
    pub fn declare_str(&mut self, name: &str, attrs: &[&str]) -> Arc<ClassDecl> {
        let decl = ClassDecl::new(intern(name), attrs.iter().map(|a| intern(a)).collect())
            .expect("distinct attributes");
        self.declare(decl).expect("consistent redeclaration")
    }

    /// Look up a class declaration.
    pub fn get(&self, name: Symbol) -> Option<&Arc<ClassDecl>> {
        self.classes.get(&name)
    }

    /// Iterate over all declarations.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ClassDecl>> {
        self.classes.values()
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if no class is declared.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// A working-memory element: a class plus one value per declared attribute.
///
/// Wmes are immutable once created (OPS5 `modify` is remove + make). They are
/// shared by `Arc` between working memory, Rete memories and instantiations.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Wme {
    /// The class (record type) of this element.
    pub class: Symbol,
    /// Field values, indexed per the class declaration.
    pub fields: Box<[Value]>,
}

impl Wme {
    /// Create a wme with all fields `Nil`.
    pub fn empty(decl: &ClassDecl) -> Wme {
        Wme {
            class: decl.name,
            fields: vec![Value::Nil; decl.arity()].into_boxed_slice(),
        }
    }

    /// Create a wme setting the given `(field, value)` pairs.
    pub fn with_fields(decl: &ClassDecl, pairs: &[(u16, Value)]) -> Wme {
        let mut w = Wme::empty(decl);
        for &(f, v) in pairs {
            w.fields[f as usize] = v;
        }
        w
    }

    /// Value of a field (Nil when out of range, which cannot happen for
    /// wmes built against their declaration).
    pub fn field(&self, f: u16) -> Value {
        self.fields.get(f as usize).copied().unwrap_or(Value::Nil)
    }

    /// Render against the declaration, e.g. `(block ^name b1 ^color blue)`.
    pub fn display(&self, decl: &ClassDecl) -> String {
        let mut s = format!("({}", self.class);
        for (i, &attr) in decl.attrs.iter().enumerate() {
            let v = self.fields[i];
            if !v.is_nil() {
                s.push_str(&format!(" ^{attr} {v}"));
            }
        }
        s.push(')');
        s
    }
}

impl fmt::Debug for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.class)?;
        for (i, v) in self.fields.iter().enumerate() {
            if !v.is_nil() {
                write!(f, " ^{i} {v}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut reg = ClassRegistry::new();
        let d = reg.declare_str("block", &["name", "color", "on"]);
        assert_eq!(d.arity(), 3);
        assert_eq!(d.field_of(intern("color")), Some(1));
        assert_eq!(d.field_of(intern("absent")), None);
        assert!(reg.get(intern("block")).is_some());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn duplicate_attr_rejected() {
        assert!(ClassDecl::new(intern("c"), vec![intern("a"), intern("a")]).is_err());
    }

    #[test]
    fn redeclaration_rules() {
        let mut reg = ClassRegistry::new();
        reg.declare_str("hand", &["state"]);
        // identical: ok
        reg.declare_str("hand", &["state"]);
        // different: error
        let bad = ClassDecl::new(intern("hand"), vec![intern("state"), intern("x")]).unwrap();
        assert!(reg.declare(bad).is_err());
    }

    #[test]
    fn wme_fields_and_display() {
        let mut reg = ClassRegistry::new();
        let d = reg.declare_str("block", &["name", "color", "on"]);
        let w = Wme::with_fields(
            &d,
            &[(0, Value::sym("b1")), (1, Value::sym("blue"))],
        );
        assert_eq!(w.field(0), Value::sym("b1"));
        assert_eq!(w.field(2), Value::Nil);
        assert_eq!(w.display(&d), "(block ^name b1 ^color blue)");
    }

    #[test]
    fn wme_equality_is_structural() {
        let mut reg = ClassRegistry::new();
        let d = reg.declare_str("p", &["x", "y"]);
        let a = Wme::with_fields(&d, &[(0, Value::Int(1))]);
        let b = Wme::with_fields(&d, &[(0, Value::Int(1))]);
        let c = Wme::with_fields(&d, &[(0, Value::Int(2))]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
