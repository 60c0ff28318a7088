//! Runtime values of the R subset.

use crate::ast::Expr;
use crate::env::{Env, EnvRef};
use crate::interp::Interp;
use flashr_core::fm::FM;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Interpreter and parser errors.
#[derive(Debug, Clone)]
pub enum RError {
    Syntax(String),
    Eval(String),
}

impl fmt::Display for RError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RError::Syntax(m) => write!(f, "syntax error: {m}"),
            RError::Eval(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for RError {}

/// A user-defined function with its captured environment.
pub struct Closure {
    pub params: Vec<(String, Option<Expr>)>,
    pub body: Expr,
    pub env: EnvRef,
}

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    Null,
    Num(f64),
    Bool(bool),
    Str(String),
    /// A small numeric vector (R vectors; kept in memory).
    Vec(Rc<Vec<f64>>),
    /// A FlashR matrix: tall and lazy, or small and dense — never an
    /// `FM::Sink`, which R sees as a [`Value::Deferred`].
    Matrix(FM),
    /// A small value R has not needed yet: a pending sink, or small
    /// arithmetic over pending sinks (see [`crate::interp`]).
    Deferred(Rc<Deferred>),
    Closure(Rc<Closure>),
    /// A builtin by name (see `builtins`).
    Builtin(&'static str),
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Num(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Vec(v) => {
                write!(f, "c(")?;
                for (i, x) in v.iter().take(8).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                if v.len() > 8 {
                    write!(f, ", …")?;
                }
                write!(f, ")")
            }
            Value::Matrix(m) => write!(f, "{m:?}"),
            Value::Deferred(d) => match &*d.state.borrow() {
                Pending::Done(v) => write!(f, "{v:?}"),
                _ => write!(f, "<deferred>"),
            },
            Value::Closure(c) => write!(f, "function({} params)", c.params.len()),
            Value::Builtin(n) => write!(f, "<builtin {n}>"),
        }
    }
}

impl Value {
    /// Scalar extraction for values that don't need the engine (numbers,
    /// logicals, length-1 vectors, 1 × 1 small matrices such as a forced
    /// `sum`).
    pub fn as_num(&self) -> Result<f64, RError> {
        match self {
            Value::Num(v) => Ok(*v),
            Value::Bool(b) => Ok(f64::from(*b)),
            Value::Vec(v) if v.len() == 1 => Ok(v[0]),
            Value::Matrix(FM::Small(d)) if (d.rows(), d.cols()) == (1, 1) => Ok(d.at(0, 0)),
            other => Err(RError::Eval(format!("expected a number, got {other:?}"))),
        }
    }

    /// The matrix inside, if any.
    pub fn as_matrix(&self) -> Result<&FM, RError> {
        match self {
            Value::Matrix(m) => Ok(m),
            other => Err(RError::Eval(format!("expected a matrix, got {other:?}"))),
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Result<&str, RError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(RError::Eval(format!("expected a string, got {other:?}"))),
        }
    }

    /// R's `is.null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this is a closure that can see `frame`'s bindings: its
    /// environment is `frame` or a frame enclosed by it.
    pub(crate) fn closes_over(&self, frame: &EnvRef) -> bool {
        matches!(self, Value::Closure(c) if Env::encloses(frame, &c.env))
    }
}

/// An `FM::Sink` R has not forced, shared by every value built from it.
pub struct PendingSink {
    pub(crate) sink: FM,
    /// Rows of the sink's tall input: the partition dimension of the
    /// pass that computes it.
    pub(crate) rows: u64,
    /// The small matrix it became, once forced.
    pub(crate) result: RefCell<Option<FM>>,
}

impl PendingSink {
    pub(crate) fn is_pending(&self) -> bool {
        self.result.borrow().is_none()
    }
}

/// A small op the interpreter runs on its operands once they are forced.
pub(crate) type SmallOp = Rc<dyn Fn(&Interp, Vec<Value>) -> Result<Value, RError>>;

/// A deferred value; it computes once and keeps the result.
pub struct Deferred {
    pub(crate) state: RefCell<Pending>,
}

pub(crate) enum Pending {
    /// `op` over `args`, some of them deferred; `sinks` are every pending
    /// sink the args read.
    Op {
        op: SmallOp,
        args: Vec<Value>,
        sinks: Vec<Rc<PendingSink>>,
    },
    Done(Value),
}

impl Deferred {
    /// The pending sinks this value still needs.
    pub(crate) fn pending_sinks(&self) -> Vec<Rc<PendingSink>> {
        match &*self.state.borrow() {
            Pending::Op { sinks, .. } => sinks.clone(),
            Pending::Done(_) => Vec::new(),
        }
        .into_iter()
        .filter(|s| s.is_pending())
        .collect()
    }
}

/// Control flow out of a block.
pub enum Flow {
    Val(Value),
    Break,
    Next,
    Return(Value),
}

impl Flow {
    /// Unwrap a plain value, treating `return` as a value escape.
    pub fn into_value(self) -> Value {
        match self {
            Flow::Val(v) | Flow::Return(v) => v,
            Flow::Break | Flow::Next => Value::Null,
        }
    }
}
