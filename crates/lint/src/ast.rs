//! The spanned AST the recursive-descent parser produces.
//!
//! This is deliberately a *subset* AST: it models the Rust the workspace
//! actually writes (items, fns, impls, the expression grammar, closures,
//! match) with enough fidelity for dataflow rules, and collapses what the
//! rules never inspect (types, patterns, generics) into flat text. Every
//! node carries the 1-indexed source line it starts on, so findings can
//! point at real code. Unparseable constructs degrade to
//! [`Expr::Unknown`] rather than failing the file.

/// Item visibility, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// Plain `pub` — part of the crate's public API.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in ...)` — not public API.
    Scoped,
    /// No visibility modifier.
    Private,
}

/// One `#[...]` attribute, flattened to text (`cfg(test)`, `test`,
/// `derive(Debug, Clone)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// The attribute content between the brackets, tokens joined by one
    /// space.
    pub text: String,
    /// Source line.
    pub line: u32,
}

impl Attr {
    /// True if this attribute marks test-only code (`test`, `cfg(test)`).
    pub fn is_test_marker(&self) -> bool {
        self.text == "test"
            || self.text.starts_with("cfg ( test")
            || self.text.starts_with("cfg(test")
    }
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// The bound name (for `mut x: T` this is `x`; for destructuring
    /// patterns, the first bound identifier).
    pub name: String,
    /// The declared type, tokens joined by one space (empty for `self`).
    pub ty: String,
    /// True for any `self` receiver form.
    pub is_self: bool,
    /// Source line.
    pub line: u32,
}

/// A function definition (free fn, impl method, or trait method).
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// Attributes on the fn.
    pub attrs: Vec<Attr>,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type text (absent for `()`).
    pub ret: Option<String>,
    /// The body (absent for trait-method declarations).
    pub body: Option<Block>,
    /// Source line of the `fn` keyword.
    pub line: u32,
}

/// What an item is.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    /// A function definition.
    Fn(FnDef),
    /// An `impl` block: `impl Ty { .. }` or `impl Tr for Ty { .. }`.
    Impl {
        /// The self type's final path-segment name (`PathSet`, `Bench`).
        ty: String,
        /// The implemented trait's final segment name, if any.
        trait_name: Option<String>,
        /// Contained items (fns, consts).
        items: Vec<Item>,
    },
    /// A module. `items` is `None` for out-of-line `mod foo;`.
    Mod {
        /// Module name.
        name: String,
        /// Inline body, if present.
        items: Option<Vec<Item>>,
    },
    /// A trait definition with its contained items.
    Trait {
        /// Trait name.
        name: String,
        /// Contained items (method signatures and defaults).
        items: Vec<Item>,
    },
    /// A struct declaration with its named fields (empty for tuple and
    /// unit structs).
    Struct {
        /// Struct name.
        name: String,
        /// Named fields as `(name, type text)` pairs — the type source
        /// for `self.field` accesses in the dataflow pass.
        fields: Vec<(String, String)>,
    },
    /// An enum declaration (variants are not modeled).
    Enum {
        /// Enum name.
        name: String,
    },
    /// A `const` or `static`, with its initializer when parseable.
    Const {
        /// Item name.
        name: String,
        /// Initializer expression.
        init: Option<Expr>,
    },
    /// Anything else (`use`, `type`, `macro_rules!`, `extern`), skipped.
    Other,
}

/// One top-level or nested item.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// The item payload.
    pub kind: ItemKind,
    /// Visibility.
    pub vis: Vis,
    /// Attributes.
    pub attrs: Vec<Attr>,
    /// Source line.
    pub line: u32,
}

impl Item {
    /// True if any attribute marks the item test-only.
    pub fn is_test_marked(&self) -> bool {
        self.attrs.iter().any(Attr::is_test_marker)
    }
}

/// A `{ ... }` block: statements plus an optional tail expression whose
/// value the block evaluates to.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// The trailing expression without a `;`, if any.
    pub tail: Option<Box<Expr>>,
    /// Source line of the `{`.
    pub line: u32,
}

/// One statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let <pat>[: ty] = init [else { .. }];`
    Let {
        /// Identifiers bound by the pattern.
        binds: Vec<String>,
        /// The pattern text.
        pat: String,
        /// Declared type text, if annotated.
        ty: Option<String>,
        /// Initializer.
        init: Option<Expr>,
        /// The `else` diverging block of a let-else.
        else_block: Option<Block>,
        /// Source line.
        line: u32,
    },
    /// An expression statement (`expr;` or a block-like expr).
    Expr(Expr),
    /// A nested item (fn, use, const, ...).
    Item(Box<Item>),
}

/// Binary operators the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==` / `!=`
    Eq,
    /// `<` / `>` / `<=` / `>=`
    Cmp,
    /// `&&` / `||`
    Logic,
    /// `&` / `|` / `^` / `<<` / `>>`
    Bit,
}

impl BinOp {
    /// True for `+` and `-`, the unit-sensitive operations.
    pub fn is_add_sub(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub)
    }
}

/// One match arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// The pattern text.
    pub pat: String,
    /// Identifiers the pattern binds.
    pub binds: Vec<String>,
    /// The arm body.
    pub body: Expr,
    /// Source line of the pattern.
    pub line: u32,
}

/// An expression. Every variant carries its starting line.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A path: `x`, `Vec::new`, `rfly_dsp::units::Hertz`.
    Path {
        /// The `::`-separated segments (turbofish args dropped).
        segs: Vec<String>,
        /// Source line.
        line: u32,
    },
    /// A literal (number, string, char, bool is a Path).
    Lit {
        /// The literal text as written.
        text: String,
        /// Source line.
        line: u32,
    },
    /// A tuple `(a, b)` or the unit value `()`.
    Tuple {
        /// Elements.
        elems: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// An array `[a, b]` or repeat `[x; n]`.
    Array {
        /// Elements (for repeats: value then count).
        elems: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A call `callee(args)`.
    Call {
        /// The callee expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A method call `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A field access `recv.name` / `tuple.0`.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name (possibly a tuple index).
        field: String,
        /// Source line.
        line: u32,
    },
    /// An index `recv[idx]` — a panic-capable operation.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A binary operation.
    Binary {
        /// Operator class.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A unary operation (`-`, `!`, `*`, `&`, `&mut`).
    Unary {
        /// The operator as written.
        op: char,
        /// Operand.
        operand: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// An assignment `lhs = rhs` or compound `lhs += rhs`.
    Assign {
        /// The compound operator, if any.
        op: Option<BinOp>,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A cast `expr as Ty`.
    Cast {
        /// The value being cast.
        expr: Box<Expr>,
        /// Target type text.
        ty: String,
        /// Source line.
        line: u32,
    },
    /// A range `a..b` / `a..=b` / `..`.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// A closure `|params| body` / `move |params| body`.
    Closure {
        /// Parameter names bound by the closure.
        params: Vec<String>,
        /// The closure body.
        body: Box<Expr>,
        /// True for `move` closures.
        is_move: bool,
        /// Source line.
        line: u32,
    },
    /// An `if` / `if let` with optional `else`.
    If {
        /// The condition (the scrutinee for `if let`).
        cond: Box<Expr>,
        /// Identifiers bound by an `if let` pattern.
        cond_binds: Vec<String>,
        /// The then-block.
        then: Block,
        /// The else branch (a Block expr or another If).
        else_: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// A `match`.
    Match {
        /// The scrutinee.
        scrut: Box<Expr>,
        /// The arms in order.
        arms: Vec<Arm>,
        /// Source line.
        line: u32,
    },
    /// A `while` / `while let` loop.
    While {
        /// The condition (scrutinee for `while let`).
        cond: Box<Expr>,
        /// Identifiers bound by a `while let` pattern.
        cond_binds: Vec<String>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// A bare `loop`.
    Loop {
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// A `for` loop.
    For {
        /// Identifiers the loop pattern binds.
        binds: Vec<String>,
        /// The pattern text.
        pat: String,
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// A block expression.
    BlockExpr {
        /// The block.
        block: Block,
        /// Source line.
        line: u32,
    },
    /// `return [expr]`.
    Return {
        /// The returned value, if any.
        value: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// `break [expr]` / `continue`.
    Jump {
        /// The break value, if any.
        value: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// The `?` operator.
    Try {
        /// The fallible expression.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// A macro invocation `name!(args)` with best-effort parsed args.
    MacroCall {
        /// Arguments that parsed as expressions (best effort; empty when
        /// the body isn't expression-shaped).
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// A struct literal `Path { field: expr, ..rest }`.
    StructLit {
        /// The struct path's final segment.
        name: String,
        /// Field initializers.
        fields: Vec<(String, Expr)>,
        /// The `..rest` base, if any.
        rest: Option<Box<Expr>>,
        /// Source line.
        line: u32,
    },
    /// Something the parser could not model; contained tokens skipped.
    Unknown {
        /// Source line.
        line: u32,
    },
}

impl Expr {
    /// The line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Range { line, .. }
            | Expr::Closure { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::While { line, .. }
            | Expr::Loop { line, .. }
            | Expr::For { line, .. }
            | Expr::BlockExpr { line, .. }
            | Expr::Return { line, .. }
            | Expr::Jump { line, .. }
            | Expr::Try { line, .. }
            | Expr::MacroCall { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Unknown { line } => *line,
        }
    }

    /// True if this expression (or any descendant) is an [`Expr::Unknown`]
    /// parse hole — used by round-trip tests to require full parses.
    pub fn has_unknown(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Unknown { .. }) {
                found = true;
            }
        });
        found
    }

    /// Depth-first pre-order walk over this expression and every nested
    /// expression, including those inside blocks, arms, and closures.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => {}
            Expr::Tuple { elems, .. } | Expr::Array { elems, .. } => {
                for e in elems {
                    e.walk(f);
                }
            }
            Expr::Call { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Index { recv, index, .. } => {
                recv.walk(f);
                index.walk(f);
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary { operand, .. } => operand.walk(f),
            Expr::Cast { expr, .. } | Expr::Try { expr, .. } => expr.walk(f),
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    e.walk(f);
                }
                if let Some(e) = hi {
                    e.walk(f);
                }
            }
            Expr::Closure { body, .. } => body.walk(f),
            Expr::If {
                cond, then, else_, ..
            } => {
                cond.walk(f);
                then.walk_exprs(f);
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Expr::Match { scrut, arms, .. } => {
                scrut.walk(f);
                for arm in arms {
                    arm.body.walk(f);
                }
            }
            Expr::While { cond, body, .. } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            Expr::Loop { body, .. } => body.walk_exprs(f),
            Expr::For { iter, body, .. } => {
                iter.walk(f);
                body.walk_exprs(f);
            }
            Expr::BlockExpr { block, .. } => block.walk_exprs(f),
            Expr::Return { value, .. } | Expr::Jump { value, .. } => {
                if let Some(e) = value {
                    e.walk(f);
                }
            }
            Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::StructLit { fields, rest, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
                if let Some(e) = rest {
                    e.walk(f);
                }
            }
        }
    }
}

impl Block {
    /// Walks every expression in the block, in order.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                    if let Some(b) = else_block {
                        b.walk_exprs(f);
                    }
                }
                Stmt::Expr(e) => e.walk(f),
                Stmt::Item(item) => {
                    if let ItemKind::Fn(fd) = &item.kind {
                        if let Some(b) = &fd.body {
                            b.walk_exprs(f);
                        }
                    }
                }
            }
        }
        if let Some(t) = &self.tail {
            t.walk(f);
        }
    }

    /// True if any contained expression is a parse hole.
    pub fn has_unknown(&self) -> bool {
        let mut found = false;
        self.walk_exprs(&mut |e| {
            if matches!(e, Expr::Unknown { .. }) {
                found = true;
            }
        });
        found
    }
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ast {
    /// The top-level items in order.
    pub items: Vec<Item>,
}

impl Ast {
    /// Visits every function in the file (free fns, impl methods, trait
    /// defaults, nested mods) with its enclosing module path (inline
    /// `mod` names only), the impl self-type if any, and whether any
    /// enclosing item or the fn itself is test-marked.
    pub fn visit_fns(&self, f: &mut impl FnMut(&[String], Option<&str>, bool, &FnDef)) {
        fn rec(
            items: &[Item],
            mods: &mut Vec<String>,
            impl_ty: Option<&str>,
            in_test: bool,
            f: &mut impl FnMut(&[String], Option<&str>, bool, &FnDef),
        ) {
            for item in items {
                let test = in_test || item.is_test_marked();
                match &item.kind {
                    ItemKind::Fn(fd) => {
                        let test = test || fd.attrs.iter().any(Attr::is_test_marker);
                        f(mods, impl_ty, test, fd);
                    }
                    ItemKind::Impl { ty, items, .. } => {
                        rec(items, mods, Some(ty), test, f);
                    }
                    ItemKind::Trait { name, items } => {
                        rec(items, mods, Some(name), test, f);
                    }
                    ItemKind::Mod {
                        name,
                        items: Some(items),
                    } => {
                        mods.push(name.clone());
                        rec(items, mods, impl_ty, test, f);
                        mods.pop();
                    }
                    _ => {}
                }
            }
        }
        rec(&self.items, &mut Vec::new(), None, false, f);
    }
}
