//! The evaluator: R semantics on top of the FlashR engine.
//!
//! Matrices stay lazy exactly as in FlashR (paper §3.4–3.5): building
//! expressions extends the DAG, and a *sink* (`sum`, `colSums`,
//! `crossprod`-shaped `%*%`, `groupby.row`, ...) is a
//! [`Value::Deferred`] until R needs its value. Small ops on deferred
//! values — arithmetic with numbers, vectors, small matrices or other
//! deferred values, `t`, `%*%` of small operands, `sweep`, the element
//! functions and aggregates — stay deferred. R needs a value, and forces
//! it, at
//!
//! * a condition (`if`, `while`, `&&`/`||`, `stopifnot`),
//! * `as.vector`, `cat`, `print`, `materialize`, indexing `x[...]`, and
//!   any other builtin that reads values,
//! * a small operand of a tall op (`X %*% t(w)`, `inner.prod(X, t(C),
//!   ...)`, element-wise with a tall matrix), and
//! * the value [`Interp::eval_str`] hands back.
//!
//! Forcing one value materializes every live pending sink over the same
//! partition dimension with it, in one `materialize_multi`, so the sinks
//! one loop iteration builds share one pass. A sink's bits do not depend
//! on the pass it shares (`flashr_core::exec::accum`), so a deferred
//! program gives the bits it gives with `materialize()` after every
//! statement. An error inside a deferred value — a plan the analyzer
//! rejects, a small op on mismatched operands — surfaces as an
//! [`RError`] at the force point, not where the value was built; a
//! neighbour's failure never fails the value being forced.
//!
//! One pragmatic extension beyond strict R conformability: element-wise
//! arithmetic between a `1×k` and a `k×1` small matrix aligns the shapes
//! (R programs, the paper's Figure 2 included, habitually mix row- and
//! column-vector results).

use crate::ast::{Arg, BinOp, Expr, UnOp};
use crate::builtins;
use crate::env::{Env, EnvRef};
use crate::parser::parse_program;
use crate::value::{Closure, Deferred, Flow, Pending, PendingSink, RError, SmallOp, Value};
use flashr_core::fm::FM;
use flashr_core::ops::BinaryOp;
use flashr_core::session::FlashCtx;
use flashr_linalg::Dense;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// An R interpreter bound to a FlashR execution context.
pub struct Interp {
    ctx: FlashCtx,
    global: EnvRef,
    seed: std::cell::Cell<u64>,
    /// Every sink handed to R and not yet forced; a dropped one is gone.
    pending: RefCell<Vec<Weak<PendingSink>>>,
}

impl Interp {
    /// Fresh interpreter over `ctx`.
    pub fn new(ctx: FlashCtx) -> Interp {
        Interp {
            ctx,
            global: Env::global(),
            seed: std::cell::Cell::new(0x5EED),
            pending: RefCell::new(Vec::new()),
        }
    }

    /// Deterministic seed stream for `runif.matrix` / `rnorm.matrix`.
    pub fn next_seed(&self) -> u64 {
        let s = self.seed.get();
        self.seed.set(s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407));
        s
    }

    /// The engine context (builtins use it to materialize).
    pub fn ctx(&self) -> &FlashCtx {
        &self.ctx
    }

    /// The global environment.
    pub fn global_env(&self) -> &EnvRef {
        &self.global
    }

    /// Define a variable in the global environment (host → R handoff).
    pub fn define(&self, name: &str, value: Value) {
        Env::set(&self.global, name, self.settle(value));
    }

    /// Parse and evaluate a program; returns the last expression's value,
    /// forced.
    pub fn eval_str(&mut self, src: &str) -> Result<Value, RError> {
        self.eval_program(&parse_program(src)?)
    }

    /// Evaluate a parsed program ([`parse_program`]); returns the last
    /// expression's value, forced.
    pub fn eval_program(&mut self, prog: &[Expr]) -> Result<Value, RError> {
        let mut last = Value::Null;
        for e in prog {
            match self.eval(&self.global.clone(), e)? {
                Flow::Val(v) => last = v,
                Flow::Return(v) => return self.force(&v),
                Flow::Break | Flow::Next => {
                    return Err(RError::Eval("break/next outside a loop".into()))
                }
            }
        }
        self.force(&last)
    }

    /// R's view of an engine result: an `FM::Sink` becomes a deferred
    /// value, registered so that forcing any value computes it with the
    /// other pending sinks over its rows.
    pub(crate) fn settle(&self, v: Value) -> Value {
        let Value::Matrix(sink @ FM::Sink { node }) = &v else { return v };
        let rows = node.children().first().map_or(0, |input| input.nrows);
        let sink = Rc::new(PendingSink { sink: sink.clone(), rows, result: RefCell::new(None) });
        let mut pending = self.pending.borrow_mut();
        pending.retain(|w| w.strong_count() > 0);
        pending.push(Rc::downgrade(&sink));
        let read = sink.clone();
        let op: SmallOp = Rc::new(move |_, _| {
            Ok(Value::Matrix(read.result.borrow().clone().expect("forced before it is read")))
        });
        Value::Deferred(Rc::new(Deferred {
            state: RefCell::new(Pending::Op { op, args: Vec::new(), sinks: vec![sink] }),
        }))
    }

    /// `op(args)`: now when no arg waits on a pending sink, else a
    /// deferred value that runs it on the forced args.
    pub(crate) fn defer_op(
        &self,
        args: Vec<Value>,
        op: impl Fn(&Interp, Vec<Value>) -> Result<Value, RError> + 'static,
    ) -> Result<Value, RError> {
        let mut sinks: Vec<Rc<PendingSink>> = Vec::new();
        for arg in &args {
            let Value::Deferred(d) = arg else { continue };
            for s in d.pending_sinks() {
                if !sinks.iter().any(|t| Rc::ptr_eq(t, &s)) {
                    sinks.push(s);
                }
            }
        }
        if sinks.is_empty() {
            let args = args.iter().map(|a| self.force(a)).collect::<Result<_, _>>()?;
            return op(self, args);
        }
        let op: SmallOp = Rc::new(op);
        Ok(Value::Deferred(Rc::new(Deferred {
            state: RefCell::new(Pending::Op { op, args, sinks }),
        })))
    }

    /// The value itself, with a deferred one computed (a force point; see
    /// the module docs).
    pub fn force(&self, v: &Value) -> Result<Value, RError> {
        let Value::Deferred(d) = v else { return Ok(v.clone()) };
        let (op, args) = match &*d.state.borrow() {
            Pending::Done(v) => return Ok(v.clone()),
            Pending::Op { op, args, .. } => (op.clone(), args.clone()),
        };
        self.force_sinks(&d.pending_sinks())?;
        let args = args.iter().map(|a| self.force(a)).collect::<Result<_, _>>()?;
        let value = op(self, args)?;
        *d.state.borrow_mut() = Pending::Done(value.clone());
        Ok(value)
    }

    /// Materialize `needed` together with every live pending sink over
    /// the same rows, one pass per partition dimension. When that pass
    /// fails, `needed` alone is retried, so only its own error surfaces.
    fn force_sinks(&self, needed: &[Rc<PendingSink>]) -> Result<(), RError> {
        if needed.is_empty() {
            return Ok(());
        }
        let live: Vec<Rc<PendingSink>> = {
            let mut pending = self.pending.borrow_mut();
            pending.retain(|w| w.upgrade().is_some_and(|s| s.is_pending()));
            pending.iter().filter_map(Weak::upgrade).collect()
        };
        let mut dims: Vec<u64> = needed.iter().map(|s| s.rows).collect();
        dims.sort_unstable();
        dims.dedup();
        for rows in dims {
            let group: Vec<Rc<PendingSink>> =
                live.iter().filter(|s| s.rows == rows).cloned().collect();
            if self.materialize_sinks(&group).is_err() {
                let own: Vec<Rc<PendingSink>> =
                    needed.iter().filter(|s| s.rows == rows).cloned().collect();
                self.materialize_sinks(&own)?;
            }
        }
        Ok(())
    }

    fn materialize_sinks(&self, sinks: &[Rc<PendingSink>]) -> Result<(), RError> {
        let fms: Vec<&FM> = sinks.iter().map(|s| &s.sink).collect();
        let out =
            FM::try_materialize_multi(&self.ctx, &fms).map_err(|e| RError::Eval(e.to_string()))?;
        for (s, m) in sinks.iter().zip(out) {
            *s.result.borrow_mut() = Some(m);
        }
        Ok(())
    }

    /// Evaluate `e` and force the result.
    fn eval_forced(&self, env: &EnvRef, e: &Expr) -> Result<Value, RError> {
        self.force(&self.eval_value(env, e)?)
    }

    /// R's condition coercion: scalars directly; matrices use their first
    /// element (R's legacy `if (matrix)` behavior).
    pub fn truthy(&self, v: &Value) -> Result<bool, RError> {
        match v {
            Value::Bool(b) => Ok(*b),
            Value::Num(x) => Ok(*x != 0.0),
            Value::Vec(xs) if !xs.is_empty() => Ok(xs[0] != 0.0),
            Value::Matrix(m) => Ok(m.get(&self.ctx, 0, 0) != 0.0),
            Value::Deferred(_) => self.truthy(&self.force(v)?),
            other => Err(RError::Eval(format!("cannot use {other:?} as a condition"))),
        }
    }

    pub(crate) fn eval_value(&self, env: &EnvRef, e: &Expr) -> Result<Value, RError> {
        match self.eval(env, e)? {
            Flow::Val(v) | Flow::Return(v) => Ok(v),
            Flow::Break | Flow::Next => Err(RError::Eval("break/next in expression".into())),
        }
    }

    fn eval(&self, env: &EnvRef, e: &Expr) -> Result<Flow, RError> {
        match e {
            Expr::Num(v) => Ok(Flow::Val(Value::Num(*v))),
            Expr::Str(s) => Ok(Flow::Val(Value::Str(s.clone()))),
            Expr::Bool(b) => Ok(Flow::Val(Value::Bool(*b))),
            Expr::Null => Ok(Flow::Val(Value::Null)),
            Expr::Ident(name) => match Env::get(env, name) {
                Some(v) => Ok(Flow::Val(v)),
                None => match builtins::lookup(name) {
                    Some(b) => Ok(Flow::Val(Value::Builtin(b))),
                    None => Err(RError::Eval(format!("object '{name}' not found"))),
                },
            },
            Expr::Unary(op, inner) => {
                let v = self.eval_value(env, inner)?;
                Ok(Flow::Val(self.unary(*op, v)?))
            }
            Expr::Binary(op, l, r) => {
                // Short-circuit logicals on scalars.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lv = self.eval_value(env, l)?;
                    if !matches!(lv, Value::Matrix(_)) {
                        let lb = self.truthy(&lv)?;
                        if *op == BinOp::And && !lb {
                            return Ok(Flow::Val(Value::Bool(false)));
                        }
                        if *op == BinOp::Or && lb {
                            return Ok(Flow::Val(Value::Bool(true)));
                        }
                        let rv = self.eval_value(env, r)?;
                        return Ok(Flow::Val(Value::Bool(self.truthy(&rv)?)));
                    }
                    let rv = self.eval_value(env, r)?;
                    return Ok(Flow::Val(self.binary(*op, lv, rv)?));
                }
                let lv = self.eval_value(env, l)?;
                let rv = self.eval_value(env, r)?;
                Ok(Flow::Val(self.binary(*op, lv, rv)?))
            }
            Expr::Assign(target, value) => {
                let v = self.eval_value(env, value)?;
                match target.as_ref() {
                    Expr::Ident(name) => {
                        Env::set(env, name, v.clone());
                        Ok(Flow::Val(v))
                    }
                    Expr::Index { object, args } => {
                        self.index_assign(env, object, args, v.clone())?;
                        Ok(Flow::Val(v))
                    }
                    other => Err(RError::Eval(format!("invalid assignment target {other:?}"))),
                }
            }
            Expr::Call { callee, args } => {
                let f = self.eval_value(env, callee)?;
                let mut eargs: Vec<(Option<String>, Value)> = Vec::with_capacity(args.len());
                for a in args {
                    let v = match &a.value {
                        Some(e) => self.eval_value(env, e)?,
                        None => return Err(RError::Eval("empty argument in call".into())),
                    };
                    eargs.push((a.name.clone(), v));
                }
                Ok(Flow::Val(self.call(f, eargs)?))
            }
            Expr::Index { object, args } => {
                let obj = self.eval_value(env, object)?;
                Ok(Flow::Val(self.index(env, obj, args)?))
            }
            Expr::Function { params, body } => Ok(Flow::Val(Value::Closure(Rc::new(Closure {
                params: params.clone(),
                body: (**body).clone(),
                env: env.clone(),
            })))),
            Expr::If { cond, then, alt } => {
                let c = self.eval_value(env, cond)?;
                if self.truthy(&c)? {
                    self.eval(env, then)
                } else if let Some(a) = alt {
                    self.eval(env, a)
                } else {
                    Ok(Flow::Val(Value::Null))
                }
            }
            Expr::For { var, seq, body } => {
                let s = self.eval_forced(env, seq)?;
                let items: Vec<f64> = match s {
                    Value::Vec(v) => v.as_ref().clone(),
                    Value::Num(v) => vec![v],
                    Value::Matrix(m) => m.to_vec(&self.ctx),
                    other => return Err(RError::Eval(format!("cannot iterate over {other:?}"))),
                };
                for item in items {
                    Env::set(env, var, Value::Num(item));
                    match self.eval(env, body)? {
                        Flow::Break => break,
                        Flow::Next | Flow::Val(_) => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Val(Value::Null))
            }
            Expr::While { cond, body } => {
                let mut guard = 0u64;
                loop {
                    let c = self.eval_value(env, cond)?;
                    if !self.truthy(&c)? {
                        break;
                    }
                    guard += 1;
                    if guard > 100_000_000 {
                        return Err(RError::Eval("while loop exceeded 1e8 iterations".into()));
                    }
                    match self.eval(env, body)? {
                        Flow::Break => break,
                        Flow::Next | Flow::Val(_) => {}
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Val(Value::Null))
            }
            Expr::Block(stmts) => {
                let mut last = Value::Null;
                for s in stmts {
                    match self.eval(env, s)? {
                        Flow::Val(v) => last = v,
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Val(last))
            }
            Expr::Break => Ok(Flow::Break),
            Expr::Next => Ok(Flow::Next),
            Expr::Return(v) => {
                let val = match v {
                    Some(e) => self.eval_value(env, e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(val))
            }
        }
    }

    /// Call a closure or builtin.
    pub fn call(&self, f: Value, args: Vec<(Option<String>, Value)>) -> Result<Value, RError> {
        match f {
            Value::Closure(c) => {
                let frame = Env::child(&c.env);
                // Named args first, then positional fill, then defaults.
                let mut taken = vec![false; c.params.len()];
                let mut positional: Vec<Value> = Vec::new();
                for (name, v) in args {
                    match name {
                        Some(n) => match c.params.iter().position(|(p, _)| *p == n) {
                            Some(i) => {
                                Env::set(&frame, &n, v);
                                taken[i] = true;
                            }
                            None => return Err(RError::Eval(format!("unused argument '{n}'"))),
                        },
                        None => positional.push(v),
                    }
                }
                let mut pos_iter = positional.into_iter();
                for (i, (pname, default)) in c.params.iter().enumerate() {
                    if taken[i] {
                        continue;
                    }
                    if let Some(v) = pos_iter.next() {
                        Env::set(&frame, pname, v);
                    } else if let Some(d) = default {
                        let dv = self.eval_value(&frame, d)?;
                        Env::set(&frame, pname, dv);
                    } else {
                        // R is lazy about missing args; we bind NULL.
                        Env::set(&frame, pname, Value::Null);
                    }
                }
                if pos_iter.next().is_some() {
                    return Err(RError::Eval("too many arguments".into()));
                }
                let out = self.eval(&frame, &c.body).map(Flow::into_value);
                // A closure defined in the call is bound in its frame and
                // holds the frame as its `env`: a cycle that would keep the
                // frame, and every pending sink bound there, alive. Unless
                // the value returned is such a closure, nothing can reach
                // the frame any more, so its bindings go now.
                if !out.as_ref().is_ok_and(|v| v.closes_over(&frame)) {
                    Env::clear(&frame);
                }
                out
            }
            Value::Builtin(name) => builtins::call(self, name, args),
            other => Err(RError::Eval(format!("attempt to call a non-function: {other:?}"))),
        }
    }

    fn unary(&self, op: UnOp, v: Value) -> Result<Value, RError> {
        if let Value::Deferred(_) = v {
            return self.defer_op(vec![v], move |interp, mut a| interp.unary(op, a.remove(0)));
        }
        match op {
            UnOp::Plus => Ok(v),
            UnOp::Neg => match v {
                Value::Num(x) => Ok(Value::Num(-x)),
                Value::Bool(b) => Ok(Value::Num(-f64::from(b))),
                Value::Vec(xs) => Ok(Value::Vec(Rc::new(xs.iter().map(|x| -x).collect()))),
                Value::Matrix(m) => Ok(Value::Matrix(-(&m))),
                other => Err(RError::Eval(format!("invalid argument to unary minus: {other:?}"))),
            },
            UnOp::Not => match v {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Num(x) => Ok(Value::Bool(x == 0.0)),
                Value::Null => Ok(Value::Bool(true)),
                Value::Vec(xs) => {
                    Ok(Value::Vec(Rc::new(xs.iter().map(|x| f64::from(*x == 0.0)).collect())))
                }
                Value::Matrix(m) => Ok(Value::Matrix(m.not())),
                other => Err(RError::Eval(format!("invalid argument to '!': {other:?}"))),
            },
        }
    }

    fn num_binop(op: BinOp, a: f64, b: f64) -> f64 {
        match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
            BinOp::Mod => a - (a / b).floor() * b, // R's %% sign convention
            BinOp::Lt => f64::from(a < b),
            BinOp::Gt => f64::from(a > b),
            BinOp::Le => f64::from(a <= b),
            BinOp::Ge => f64::from(a >= b),
            BinOp::Eq => f64::from(a == b),
            BinOp::Ne => f64::from(a != b),
            BinOp::And => f64::from(a != 0.0 && b != 0.0),
            BinOp::Or => f64::from(a != 0.0 || b != 0.0),
            BinOp::Range | BinOp::MatMul => unreachable!("handled before num_binop"),
        }
    }

    fn fm_binop(op: BinOp) -> BinaryOp {
        match op {
            BinOp::Add => BinaryOp::Add,
            BinOp::Sub => BinaryOp::Sub,
            BinOp::Mul => BinaryOp::Mul,
            BinOp::Div => BinaryOp::Div,
            BinOp::Pow => BinaryOp::Pow,
            BinOp::Mod => BinaryOp::Rem,
            BinOp::Lt => BinaryOp::Lt,
            BinOp::Gt => BinaryOp::Gt,
            BinOp::Le => BinaryOp::Le,
            BinOp::Ge => BinaryOp::Ge,
            BinOp::Eq => BinaryOp::Eq,
            BinOp::Ne => BinaryOp::Ne,
            BinOp::And => BinaryOp::And,
            BinOp::Or => BinaryOp::Or,
            BinOp::Range | BinOp::MatMul => unreachable!("handled before fm_binop"),
        }
    }

    /// Evaluate a binary operation with R coercion rules.
    pub fn binary(&self, op: BinOp, l: Value, r: Value) -> Result<Value, RError> {
        if matches!(l, Value::Deferred(_)) || matches!(r, Value::Deferred(_)) {
            let tall = |v: &Value| matches!(v, Value::Matrix(m) if !m.is_small());
            if op == BinOp::Range || tall(&l) || tall(&r) {
                return self.binary(op, self.force(&l)?, self.force(&r)?);
            }
            return self.defer_op(vec![l, r], move |interp, mut a| {
                let r = a.pop().expect("two operands");
                interp.binary(op, a.pop().expect("two operands"), r)
            });
        }
        if op == BinOp::Range {
            let a = l.as_num()?;
            let b = r.as_num()?;
            let mut v = Vec::new();
            if a <= b {
                let mut x = a;
                while x <= b + 1e-9 {
                    v.push(x);
                    x += 1.0;
                }
            } else {
                let mut x = a;
                while x >= b - 1e-9 {
                    v.push(x);
                    x -= 1.0;
                }
            }
            return Ok(Value::Vec(Rc::new(v)));
        }
        if op == BinOp::MatMul {
            return self.matmul(l, r);
        }
        // String equality.
        if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
            return match op {
                BinOp::Eq => Ok(Value::Bool(a == b)),
                BinOp::Ne => Ok(Value::Bool(a != b)),
                _ => Err(RError::Eval("invalid string operation".into())),
            };
        }

        match (l, r) {
            (Value::Matrix(a), rb) => self.matrix_binary(op, a, rb, false),
            (la, Value::Matrix(b)) => self.matrix_binary(op, b, la, true),
            (Value::Vec(a), Value::Vec(b)) => {
                let (long, short) = if a.len() >= b.len() { (&a, &b) } else { (&b, &a) };
                if short.is_empty() || long.len() % short.len() != 0 {
                    return Err(RError::Eval("vector recycling length mismatch".into()));
                }
                let swapped = a.len() < b.len();
                let out: Vec<f64> = long
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let y = short[i % short.len()];
                        if swapped {
                            Self::num_binop(op, y, x)
                        } else {
                            Self::num_binop(op, x, y)
                        }
                    })
                    .collect();
                Ok(Value::Vec(Rc::new(out)))
            }
            (Value::Vec(a), rb) => {
                let y = rb.as_num()?;
                Ok(Value::Vec(Rc::new(a.iter().map(|&x| Self::num_binop(op, x, y)).collect())))
            }
            (la, Value::Vec(b)) => {
                let x = la.as_num()?;
                Ok(Value::Vec(Rc::new(b.iter().map(|&y| Self::num_binop(op, x, y)).collect())))
            }
            (la, rb) => {
                let a = la.as_num()?;
                let b = rb.as_num()?;
                let out = Self::num_binop(op, a, b);
                if matches!(
                    op,
                    BinOp::Lt
                        | BinOp::Gt
                        | BinOp::Le
                        | BinOp::Ge
                        | BinOp::Eq
                        | BinOp::Ne
                        | BinOp::And
                        | BinOp::Or
                ) {
                    Ok(Value::Bool(out != 0.0))
                } else {
                    Ok(Value::Num(out))
                }
            }
        }
    }

    /// Element-wise op where one side is a matrix. `swapped` means the
    /// matrix was the right operand.
    fn matrix_binary(
        &self,
        op: BinOp,
        m: FM,
        other: Value,
        swapped: bool,
    ) -> Result<Value, RError> {
        let bop = Self::fm_binop(op);
        match other {
            Value::Num(x) => Ok(Value::Matrix(m.binary_scalar(bop, x, swapped))),
            Value::Bool(b) => Ok(Value::Matrix(m.binary_scalar(bop, f64::from(b), swapped))),
            Value::Vec(v) if v.len() == 1 => Ok(Value::Matrix(m.binary_scalar(bop, v[0], swapped))),
            Value::Vec(v) => {
                // R recycles vectors down the columns: valid when the
                // vector length equals the row count.
                let fm_v = if v.len() as u64 == m.nrow() {
                    self.vec_to_fm(&v)
                } else {
                    return Err(RError::Eval(format!(
                        "vector of length {} does not recycle against a {}x{} matrix (use sweep)",
                        v.len(),
                        m.nrow(),
                        m.ncol()
                    )));
                };
                if swapped {
                    Ok(Value::Matrix(fm_v.binary(bop, &m, false)))
                } else {
                    Ok(Value::Matrix(m.binary(bop, &fm_v, false)))
                }
            }
            Value::Matrix(o) => {
                // 1×k / k×1 alignment (see module docs).
                let (a, b) = if m.nrow() == o.ncol() && m.ncol() == o.nrow() && m.nrow() != o.nrow()
                {
                    (m, o.t())
                } else {
                    (m, o)
                };
                if swapped {
                    Ok(Value::Matrix(b.binary(bop, &a, false)))
                } else {
                    Ok(Value::Matrix(a.binary(bop, &b, false)))
                }
            }
            other => Err(RError::Eval(format!("invalid matrix operand {other:?}"))),
        }
    }

    /// `%*%` with R-style vector promotion.
    fn matmul(&self, l: Value, r: Value) -> Result<Value, RError> {
        let to_fm = |v: Value, want_rows: Option<u64>| -> Result<FM, RError> {
            match v {
                Value::Matrix(m) => Ok(m),
                Value::Num(x) => Ok(FM::from_dense(Dense::from_vec(1, 1, vec![x]))),
                Value::Vec(xs) => {
                    // Promote to whatever conforms: row if the LHS wants
                    // columns matching len, else column.
                    let n = xs.len();
                    let as_col = Dense::from_vec(n, 1, xs.as_ref().clone());
                    match want_rows {
                        Some(rows) if rows as usize == n => Ok(FM::from_dense(as_col)),
                        _ => Ok(FM::from_dense(as_col)),
                    }
                }
                other => Err(RError::Eval(format!("non-numeric %*% operand {other:?}"))),
            }
        };
        let lf = to_fm(l, None)?;
        let rf = to_fm(r, Some(lf.ncol()))?;
        Ok(self.settle(Value::Matrix(lf.matmul(&rf))))
    }

    /// A small f64 vector as an n×1 FlashR column.
    pub fn vec_to_fm(&self, v: &[f64]) -> FM {
        FM::from_vec(&self.ctx, v)
    }

    /// Indexing `x[...]`.
    fn index(&self, _env: &EnvRef, obj: Value, args: &[Arg]) -> Result<Value, RError> {
        match self.force(&obj)? {
            Value::Vec(v) => {
                if args.len() != 1 {
                    return Err(RError::Eval("vectors take one index".into()));
                }
                let idx = match &args[0].value {
                    Some(e) => e,
                    None => return Err(RError::Eval("missing vector index".into())),
                };
                // args already evaluated? No — index exprs arrive raw.
                let iv = self.eval_forced(_env, idx)?;
                match iv {
                    Value::Num(i) => {
                        let i = i as usize;
                        if i < 1 || i > v.len() {
                            return Err(RError::Eval(format!("index {i} out of bounds")));
                        }
                        Ok(Value::Num(v[i - 1]))
                    }
                    Value::Vec(idxs) => {
                        let mut out = Vec::with_capacity(idxs.len());
                        for &i in idxs.iter() {
                            let i = i as usize;
                            if i < 1 || i > v.len() {
                                return Err(RError::Eval(format!("index {i} out of bounds")));
                            }
                            out.push(v[i - 1]);
                        }
                        Ok(Value::Vec(Rc::new(out)))
                    }
                    other => Err(RError::Eval(format!("invalid index {other:?}"))),
                }
            }
            Value::Matrix(m) => {
                if args.len() != 2 {
                    return Err(RError::Eval("matrices take two indices".into()));
                }
                let row = match &args[0].value {
                    Some(e) => Some(self.eval_forced(_env, e)?),
                    None => None,
                };
                let col = match &args[1].value {
                    Some(e) => Some(self.eval_forced(_env, e)?),
                    None => None,
                };
                match (row, col) {
                    (Some(r), Some(c)) => {
                        let (ri, ci) = (r.as_num()? as u64, c.as_num()? as u64);
                        if ri < 1 || ri > m.nrow() || ci < 1 || ci > m.ncol() {
                            return Err(RError::Eval("matrix index out of bounds".into()));
                        }
                        Ok(Value::Num(m.get(&self.ctx, ri - 1, ci - 1)))
                    }
                    (None, Some(c)) => {
                        let cols: Vec<usize> = match c {
                            Value::Num(j) => vec![j as usize - 1],
                            Value::Vec(js) => js.iter().map(|&j| j as usize - 1).collect(),
                            other => {
                                return Err(RError::Eval(format!("invalid column index {other:?}")))
                            }
                        };
                        for &j in &cols {
                            if j >= m.ncol() as usize {
                                return Err(RError::Eval("column index out of bounds".into()));
                            }
                        }
                        Ok(Value::Matrix(m.cols(&cols)))
                    }
                    (Some(r), None) => {
                        let ri = r.as_num()? as u64;
                        if ri < 1 || ri > m.nrow() {
                            return Err(RError::Eval("row index out of bounds".into()));
                        }
                        let row: Vec<f64> =
                            (0..m.ncol()).map(|j| m.get(&self.ctx, ri - 1, j)).collect();
                        Ok(Value::Vec(Rc::new(row)))
                    }
                    (None, None) => Ok(Value::Matrix(m)),
                }
            }
            other => Err(RError::Eval(format!("object {other:?} is not subsettable"))),
        }
    }

    /// `x[i] <- v` / `x[i, j] <- v` for vectors and small matrices.
    fn index_assign(
        &self,
        env: &EnvRef,
        object: &Expr,
        args: &[Arg],
        value: Value,
    ) -> Result<(), RError> {
        let name = match object {
            Expr::Ident(n) => n.clone(),
            other => return Err(RError::Eval(format!("cannot index-assign into {other:?}"))),
        };
        let current = Env::get(env, &name)
            .ok_or_else(|| RError::Eval(format!("object '{name}' not found")))?;
        let (current, value) = (self.force(&current)?, self.force(&value)?);
        match current {
            Value::Vec(v) => {
                if args.len() != 1 {
                    return Err(RError::Eval("vectors take one index".into()));
                }
                let idx = self
                    .eval_forced(
                        env,
                        args[0]
                            .value
                            .as_ref()
                            .ok_or_else(|| RError::Eval("missing index".into()))?,
                    )?
                    .as_num()? as usize;
                if idx < 1 || idx > v.len() {
                    return Err(RError::Eval("index out of bounds".into()));
                }
                let mut nv = v.as_ref().clone();
                nv[idx - 1] = value.as_num()?;
                Env::set(env, &name, Value::Vec(Rc::new(nv)));
                Ok(())
            }
            Value::Matrix(m) => {
                if let FM::Small(d) = &m {
                    if args.len() != 2 {
                        return Err(RError::Eval("matrices take two indices".into()));
                    }
                    let ri = self
                        .eval_forced(
                            env,
                            args[0]
                                .value
                                .as_ref()
                                .ok_or_else(|| RError::Eval("missing row index".into()))?,
                        )?
                        .as_num()? as usize;
                    let ci = self
                        .eval_forced(
                            env,
                            args[1]
                                .value
                                .as_ref()
                                .ok_or_else(|| RError::Eval("missing column index".into()))?,
                        )?
                        .as_num()? as usize;
                    if ri < 1 || ri > d.rows() || ci < 1 || ci > d.cols() {
                        return Err(RError::Eval("matrix index out of bounds".into()));
                    }
                    let mut nd = d.clone();
                    nd.set(ri - 1, ci - 1, value.as_num()?);
                    Env::set(env, &name, Value::Matrix(FM::from_dense(nd)));
                    Ok(())
                } else {
                    Err(RError::Eval(
                        "element assignment into large matrices is not supported".into(),
                    ))
                }
            }
            other => Err(RError::Eval(format!("cannot index-assign into {other:?}"))),
        }
    }
}
