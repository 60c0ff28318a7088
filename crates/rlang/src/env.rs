//! Lexically scoped environments (R's environment chain).

use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A shared, mutable environment frame.
pub type EnvRef = Rc<RefCell<Env>>;

/// One frame: bindings plus the enclosing frame.
#[derive(Default)]
pub struct Env {
    vars: HashMap<String, Value>,
    parent: Option<EnvRef>,
}

impl Env {
    /// Fresh global frame.
    pub fn global() -> EnvRef {
        Rc::new(RefCell::new(Env::default()))
    }

    /// A child frame for a function call.
    pub fn child(parent: &EnvRef) -> EnvRef {
        Rc::new(RefCell::new(Env { vars: HashMap::new(), parent: Some(parent.clone()) }))
    }

    /// Look a name up through the chain.
    pub fn get(env: &EnvRef, name: &str) -> Option<Value> {
        let e = env.borrow();
        if let Some(v) = e.vars.get(name) {
            return Some(v.clone());
        }
        match &e.parent {
            Some(p) => Env::get(p, name),
            None => None,
        }
    }

    /// `<-` assigns in the *current* frame (R semantics).
    pub fn set(env: &EnvRef, name: &str, value: Value) {
        env.borrow_mut().vars.insert(name.to_string(), value);
    }

    /// Drop every binding of the frame, after its borrow ends.
    pub(crate) fn clear(env: &EnvRef) {
        let vars = std::mem::take(&mut env.borrow_mut().vars);
        drop(vars);
    }

    /// Whether `frame` is `env` or encloses it.
    pub(crate) fn encloses(frame: &EnvRef, env: &EnvRef) -> bool {
        let mut cur = Some(env.clone());
        while let Some(e) = cur {
            if Rc::ptr_eq(&e, frame) {
                return true;
            }
            cur = e.borrow().parent.clone();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_walks_the_chain() {
        let g = Env::global();
        Env::set(&g, "x", Value::Num(1.0));
        let c = Env::child(&g);
        assert!(matches!(Env::get(&c, "x"), Some(Value::Num(v)) if v == 1.0));
        // Shadowing in the child does not touch the parent.
        Env::set(&c, "x", Value::Num(2.0));
        assert!(matches!(Env::get(&c, "x"), Some(Value::Num(v)) if v == 2.0));
        assert!(matches!(Env::get(&g, "x"), Some(Value::Num(v)) if v == 1.0));
    }

    #[test]
    fn missing_names_are_none() {
        let g = Env::global();
        assert!(Env::get(&g, "nope").is_none());
    }
}
