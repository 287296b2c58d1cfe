//! A recursive-descent parser for the Rust subset the workspace writes.
//!
//! Stage 1 of the v2 analyzer (DESIGN.md §13): turns the lexer's token
//! stream into the spanned AST in [`crate::ast`]. The grammar covers
//! items, functions, impls, the full expression grammar (Pratt
//! precedence), closures, and `match`; types and patterns are kept as
//! flat text because no rule inspects their internals. The parser never
//! fails a file: anything outside the subset degrades to
//! [`Expr::Unknown`] with balanced-token recovery, so a syntactically
//! exotic file yields *fewer* facts, not a crashed lint run.
//!
//! The lexer emits single-character punctuation; multi-character
//! operators (`::`, `=>`, `>>`, `..=`) are re-glued here using token
//! adjacency (`Tok::pos`), which is exact rather than heuristic.

use crate::ast::{Arm, Ast, Attr, BinOp, Block, Expr, FnDef, Item, ItemKind, Param, Stmt, Vis};
use crate::lexer::{lex, Tok, TokKind};

/// Parses one source file into an AST. Never fails.
pub fn parse_file(src: &str) -> Ast {
    let lexed = lex(src);
    let mut p = Parser {
        toks: &lexed.tokens,
        i: 0,
    };
    Ast {
        items: p.parse_items(true),
    }
}

/// Identifiers that can never begin a path expression.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "match", "while", "loop", "for", "return", "break", "continue", "let", "move", "else",
    "in", "as", "where", "fn", "pub", "use", "impl", "struct", "enum", "trait", "mod", "const",
    "static", "type", "unsafe", "async", "ref", "mut", "dyn",
];

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
}

impl<'a> Parser<'a> {
    // ---- cursor helpers -------------------------------------------------

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.i)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Tok> {
        self.toks.get(self.i + n)
    }

    fn line(&self) -> u32 {
        self.peek()
            .map(|t| t.line)
            .unwrap_or_else(|| self.toks.last().map(|t| t.line).unwrap_or(1))
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// True if token `i + n` is punctuation `c` and *adjacent* to token
    /// `i + n - 1` (no whitespace between them).
    fn glued_punct_at(&self, n: usize, c: char) -> bool {
        let (Some(prev), Some(t)) = (self.peek_at(n - 1), self.peek_at(n)) else {
            return false;
        };
        t.is_punct(c) && prev.pos + prev.text.chars().count() == t.pos
    }

    /// The longest glued operator starting at the cursor, if it is one of
    /// `ops` (listed longest-first by the caller). Returns the matched
    /// text; the cursor is not moved.
    fn glued_op(&self, ops: &[&'static str]) -> Option<&'static str> {
        let first = self.peek()?;
        if first.kind != TokKind::Punct {
            return None;
        }
        'op: for &op in ops {
            let mut chars = op.chars();
            if chars.next() != first.text.chars().next() {
                continue;
            }
            for (n, c) in chars.enumerate() {
                if !self.glued_punct_at(n + 1, c) {
                    continue 'op;
                }
            }
            return Some(op);
        }
        None
    }

    fn eat_glued(&mut self, op: &'static str) -> bool {
        if self.glued_op(&[op]) == Some(op) {
            self.i += op.len();
            true
        } else {
            false
        }
    }

    /// Skips a balanced `(..)`, `[..]`, `{..}` or `<..>` group, cursor on
    /// the opener. Always advances at least one token.
    fn skip_balanced(&mut self) {
        let Some(open) = self.peek().map(|t| t.text.clone()) else {
            return;
        };
        let close = match open.as_str() {
            "(" => ')',
            "[" => ']',
            "{" => '}',
            "<" => '>',
            _ => {
                self.i += 1;
                return;
            }
        };
        let open_c = open.chars().next().unwrap_or('(');
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct(open_c) {
                depth += 1;
            } else if t.is_punct(close) {
                // `->` inside generic args must not close an angle group.
                if !(close == '>' && self.prev_is_adjacent_minus()) {
                    depth -= 1;
                }
            }
            self.i += 1;
            if depth == 0 {
                return;
            }
        }
    }

    fn prev_is_adjacent_minus(&self) -> bool {
        if self.i == 0 {
            return false;
        }
        let (prev, cur) = (&self.toks[self.i - 1], &self.toks[self.i]);
        prev.is_punct('-') && prev.pos + 1 == cur.pos
    }

    /// Skips tokens (balancing delimiters) until one of `stops` appears
    /// at depth 0, or EOF. Stop tokens are single chars; `stops_glued`
    /// match whole glued operators. Returns the consumed tokens.
    fn take_until(&mut self, stops: &[char], stops_glued: &[&'static str]) -> Vec<&'a Tok> {
        let mut out = Vec::new();
        let mut paren = 0i32;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            let at_depth0 = paren == 0 && angle <= 0;
            if at_depth0 {
                if let Some(op) = self.glued_op(stops_glued) {
                    // Don't stop on `=` when it is really `==`/`=>` etc.
                    if op.len() > 1 || !self.is_part_of_longer_op() {
                        return out;
                    }
                }
                if stops.iter().any(|&c| t.is_punct(c))
                    && !self.is_part_of_longer_op()
                    && !stops_glued.iter().any(|g| g.len() > 1)
                {
                    return out;
                }
                if stops.iter().any(|&c| t.is_punct(c)) && stops_glued.is_empty() {
                    return out;
                }
            }
            match t.text.as_str() {
                "(" | "[" | "{" => paren += 1,
                ")" | "]" | "}" => {
                    if paren == 0 {
                        return out;
                    }
                    paren -= 1;
                }
                "<" => angle += 1,
                ">" if !self.prev_is_adjacent_minus() => angle -= 1,
                _ => {}
            }
            out.push(t);
            self.i += 1;
        }
        out
    }

    /// Consumes tokens (balancing delimiters) until the keyword `kw`
    /// appears at depth 0, `{`, or EOF. Used for `for <pat> in`.
    fn take_until_kw(&mut self, kw: &str) -> Vec<&'a Tok> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if depth == 0 && (t.is_ident(kw) || t.is_punct('{')) {
                return out;
            }
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        return out;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            out.push(t);
            self.i += 1;
        }
        out
    }

    /// True if the punct at the cursor begins a longer glued operator
    /// (so `=` inside `==`, `=>`, `<=`, ... is not a bare `=`).
    fn is_part_of_longer_op(&self) -> bool {
        self.glued_op(&[
            "==", "=>", "<=", ">=", "!=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
            "..", "->",
        ])
        .is_some()
    }

    // ---- items ----------------------------------------------------------

    /// Parses items until EOF (`top == true`) or a closing `}`.
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.peek().is_none() {
                return items;
            }
            if self.at_punct('}') {
                if top {
                    self.i += 1; // stray close brace; skip and continue
                    continue;
                }
                return items;
            }
            let before = self.i;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.i == before {
                self.i += 1; // progress guarantee
            }
        }
    }

    fn parse_item(&mut self) -> Option<Item> {
        let mut attrs = Vec::new();
        // Inner attrs (`#![..]`) and outer attrs (`#[..]`).
        while self.at_punct('#') {
            let line = self.line();
            self.i += 1;
            let inner = self.eat_punct('!');
            if self.at_punct('[') {
                let start = self.i;
                self.skip_balanced();
                if !inner {
                    let text = join_toks(&self.toks[start + 1..self.i.saturating_sub(1)]);
                    attrs.push(Attr { text, line });
                }
            }
        }
        let line = self.line();
        let vis = self.parse_vis();

        // Fn modifiers.
        let mut look = self.i;
        while self
            .toks
            .get(look)
            .is_some_and(|t| t.is_ident("const") || t.is_ident("unsafe") || t.is_ident("async"))
        {
            look += 1;
        }
        if self.toks.get(look).is_some_and(|t| t.is_ident("extern")) {
            look += 1;
            if self
                .toks
                .get(look)
                .is_some_and(|t| t.kind == TokKind::Literal)
            {
                look += 1;
            }
        }
        if self.toks.get(look).is_some_and(|t| t.is_ident("fn")) {
            self.i = look + 1;
            let f = self.parse_fn(vis, attrs.clone(), line);
            return Some(Item {
                kind: ItemKind::Fn(f),
                vis,
                attrs,
                line,
            });
        }

        if self.eat_ident("impl") {
            return Some(self.parse_impl(vis, attrs, line));
        }
        if self.eat_ident("mod") {
            let name = self.ident_or("_");
            let kind = if self.at_punct('{') {
                self.i += 1;
                let items = self.parse_items(false);
                self.eat_punct('}');
                ItemKind::Mod {
                    name,
                    items: Some(items),
                }
            } else {
                self.eat_punct(';');
                ItemKind::Mod { name, items: None }
            };
            return Some(Item {
                kind,
                vis,
                attrs,
                line,
            });
        }
        if self.eat_ident("trait") {
            let name = self.ident_or("_");
            // generics / supertrait bounds / where clause up to the body
            self.take_until(&['{', ';'], &[]);
            let items = if self.at_punct('{') {
                self.i += 1;
                let items = self.parse_items(false);
                self.eat_punct('}');
                items
            } else {
                self.eat_punct(';');
                Vec::new()
            };
            return Some(Item {
                kind: ItemKind::Trait { name, items },
                vis,
                attrs,
                line,
            });
        }
        if self.eat_ident("struct") {
            let name = self.ident_or("_");
            if self.at_punct('<') {
                self.skip_balanced();
            }
            // where clause / tuple body before the named-field braces.
            let mut fields = Vec::new();
            while let Some(t) = self.peek() {
                if t.is_punct(';') {
                    self.i += 1;
                    break;
                }
                if t.is_punct('(') {
                    self.skip_balanced();
                    continue;
                }
                if t.is_punct('{') {
                    fields = self.struct_fields();
                    break;
                }
                if t.is_punct('}') {
                    break;
                }
                self.i += 1;
            }
            return Some(Item {
                kind: ItemKind::Struct { name, fields },
                vis,
                attrs,
                line,
            });
        }
        if self.eat_ident("enum") || self.eat_ident("union") {
            let name = self.ident_or("_");
            self.skip_item_rest();
            return Some(Item {
                kind: ItemKind::Enum { name },
                vis,
                attrs,
                line,
            });
        }
        if self.at_ident("const") || self.at_ident("static") {
            self.i += 1;
            self.eat_ident("mut");
            let name = self.ident_or("_");
            // `: Type`
            if self.eat_punct(':') {
                self.take_until(&[';'], &["="]);
            }
            let init = if self.eat_glued("=") {
                Some(self.expr(0, false))
            } else {
                None
            };
            self.eat_punct(';');
            return Some(Item {
                kind: ItemKind::Const { name, init },
                vis,
                attrs,
                line,
            });
        }
        if self.at_ident("use") || self.at_ident("type") || self.at_ident("extern") {
            self.i += 1;
            self.skip_item_rest();
            return Some(Item {
                kind: ItemKind::Other,
                vis,
                attrs,
                line,
            });
        }
        if self.at_ident("macro_rules") {
            self.i += 1; // macro_rules
            self.eat_punct('!');
            self.bump(); // name
            self.skip_balanced();
            self.eat_punct(';');
            return Some(Item {
                kind: ItemKind::Other,
                vis,
                attrs,
                line,
            });
        }
        // Unknown construct: skip one token (caller guarantees progress).
        None
    }

    /// Parses a `{ vis name: Type, ... }` struct body into field pairs.
    fn struct_fields(&mut self) -> Vec<(String, String)> {
        let mut fields = Vec::new();
        self.eat_punct('{');
        loop {
            if self.peek().is_none() || self.eat_punct('}') {
                return fields;
            }
            while self.at_punct('#') {
                self.i += 1;
                if self.at_punct('[') {
                    self.skip_balanced();
                }
            }
            self.parse_vis();
            let Some(t) = self.peek() else { return fields };
            if t.kind != TokKind::Ident {
                self.take_until(&['}'], &[]);
                self.eat_punct('}');
                return fields;
            }
            let name = t.text.clone();
            self.i += 1;
            if self.eat_punct(':') {
                let ty = join_toks_refs(&self.take_until(&[','], &[]));
                fields.push((name, ty));
            }
            self.eat_punct(',');
        }
    }

    fn parse_vis(&mut self) -> Vis {
        if !self.eat_ident("pub") {
            return Vis::Private;
        }
        if self.at_punct('(') {
            self.skip_balanced();
            Vis::Scoped
        } else {
            Vis::Pub
        }
    }

    fn ident_or(&mut self, fallback: &str) -> String {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let s = t.text.clone();
                self.i += 1;
                s
            }
            _ => fallback.to_string(),
        }
    }

    /// Skips the remainder of an item we don't model: up to and including
    /// a `;`, or a balanced `{..}` body (whichever comes first).
    fn skip_item_rest(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.i += 1;
                return;
            }
            if t.is_punct('{') {
                self.skip_balanced();
                // tuple struct `struct X(..);` has the `;` after parens
                self.eat_punct(';');
                return;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                self.skip_balanced();
                continue;
            }
            if t.is_punct('}') {
                return; // don't eat the enclosing block's close
            }
            self.i += 1;
        }
    }

    fn parse_impl(&mut self, vis: Vis, attrs: Vec<Attr>, line: u32) -> Item {
        if self.at_punct('<') {
            self.skip_balanced();
        }
        let first = self.take_until(&['{'], &[]);
        // `impl Trait for Type` vs `impl Type`; `for` splits the two.
        let mut trait_name = None;
        let mut ty_toks: &[&Tok] = &first;
        if let Some(pos) = first.iter().position(|t| t.is_ident("for")) {
            trait_name = Some(last_type_name(&first[..pos]));
            ty_toks = &first[pos + 1..];
        }
        // Trim a trailing where clause.
        let ty_end = ty_toks
            .iter()
            .position(|t| t.is_ident("where"))
            .unwrap_or(ty_toks.len());
        let ty = last_type_name(&ty_toks[..ty_end]);
        let items = if self.at_punct('{') {
            self.i += 1;
            let items = self.parse_items(false);
            self.eat_punct('}');
            items
        } else {
            Vec::new()
        };
        Item {
            kind: ItemKind::Impl {
                ty,
                trait_name,
                items,
            },
            vis,
            attrs,
            line,
        }
    }

    fn parse_fn(&mut self, vis: Vis, attrs: Vec<Attr>, line: u32) -> FnDef {
        let name = self.ident_or("_");
        if self.at_punct('<') {
            self.skip_balanced();
        }
        let mut params = Vec::new();
        if self.at_punct('(') {
            self.i += 1;
            while let Some(t) = self.peek() {
                if t.is_punct(')') {
                    self.i += 1;
                    break;
                }
                if let Some(p) = self.parse_param() {
                    params.push(p);
                }
                if !self.eat_punct(',') && self.at_punct(')') {
                    self.i += 1;
                    break;
                } else if !self.at_punct(')') && self.peek().is_none() {
                    break;
                }
            }
        }
        let ret = if self.eat_glued("->") {
            let toks = self.take_until(&['{', ';'], &[]);
            // Trim a trailing where-clause from the return type text.
            let end = toks
                .iter()
                .position(|t| t.is_ident("where"))
                .unwrap_or(toks.len());
            Some(join_toks_refs(&toks[..end]))
        } else {
            if self
                .peek()
                .is_some_and(|t| !t.is_punct('{') && !t.is_punct(';'))
            {
                self.take_until(&['{', ';'], &[]);
            }
            None
        };
        let body = if self.at_punct('{') {
            Some(self.block())
        } else {
            self.eat_punct(';');
            None
        };
        FnDef {
            name,
            vis,
            attrs,
            params,
            ret,
            body,
            line,
        }
    }

    fn parse_param(&mut self) -> Option<Param> {
        let line = self.line();
        // Skip per-param attributes.
        while self.at_punct('#') {
            self.i += 1;
            if self.at_punct('[') {
                self.skip_balanced();
            }
        }
        // Self receivers: `self`, `&self`, `&mut self`, `&'a mut self`, `mut self`.
        let snapshot = self.i;
        let mut j = self.i;
        while self
            .toks
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut"))
        {
            j += 1;
        }
        if self.toks.get(j).is_some_and(|t| t.is_ident("self")) {
            self.i = j + 1;
            // `self: Type` annotation (rare) — consume it.
            if self.eat_punct(':') {
                self.take_until(&[',', ')'], &[]);
            }
            return Some(Param {
                name: "self".to_string(),
                ty: String::new(),
                is_self: true,
                line,
            });
        }
        self.i = snapshot;
        // `pattern: Type`
        let pat_toks = self.take_until(&[',', ')'], &[":"]);
        let binds = pattern_binds(&pat_toks);
        let name = binds
            .first()
            .cloned()
            .or_else(|| {
                pat_toks
                    .iter()
                    .find(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
            })
            .unwrap_or_else(|| "_".to_string());
        let ty = if self.eat_punct(':') {
            join_toks_refs(&self.take_until(&[',', ')'], &[]))
        } else {
            String::new()
        };
        if pat_toks.is_empty() && ty.is_empty() {
            return None;
        }
        Some(Param {
            name,
            ty,
            is_self: false,
            line,
        })
    }

    // ---- blocks & statements --------------------------------------------

    fn block(&mut self) -> Block {
        let line = self.line();
        let mut b = Block {
            stmts: Vec::new(),
            tail: None,
            line,
        };
        if !self.eat_punct('{') {
            return b;
        }
        loop {
            if self.peek().is_none() {
                return b;
            }
            if self.eat_punct('}') {
                return b;
            }
            if self.eat_punct(';') {
                continue;
            }
            let before = self.i;
            if self.at_stmt_item() {
                if let Some(item) = self.parse_item() {
                    b.stmts.push(Stmt::Item(Box::new(item)));
                }
                if self.i == before {
                    self.i += 1;
                }
                continue;
            }
            if self.at_ident("let") {
                self.i += 1;
                let s = self.parse_let();
                b.stmts.push(s);
                continue;
            }
            let e = self.expr(0, false);
            if self.i == before {
                self.i += 1; // progress guarantee
                continue;
            }
            if self.eat_punct(';') {
                b.stmts.push(Stmt::Expr(e));
            } else if self.at_punct('}') {
                self.i += 1;
                b.tail = Some(Box::new(e));
                return b;
            } else {
                b.stmts.push(Stmt::Expr(e));
            }
        }
    }

    /// True if the cursor starts a nested item rather than an expression
    /// statement.
    fn at_stmt_item(&self) -> bool {
        let Some(t) = self.peek() else { return false };
        if t.kind != TokKind::Ident && !t.is_punct('#') {
            return false;
        }
        if t.is_punct('#') {
            // `#[..]` on a statement: treat as an item-ish prefix so the
            // attribute is parsed and attached (cfg(test) on nested fns).
            return self.peek_at(1).is_some_and(|n| n.is_punct('['));
        }
        match t.text.as_str() {
            "fn" | "pub" | "use" | "struct" | "enum" | "impl" | "mod" | "trait" | "static"
            | "macro_rules" | "union" => true,
            "const" => {
                // `const fn`/`const NAME: T` are items; `const { .. }` is not.
                !self.peek_at(1).is_some_and(|n| n.is_punct('{'))
            }
            "unsafe" | "async" => self.peek_at(1).is_some_and(|n| n.is_ident("fn")),
            "type" => self.peek_at(1).is_some_and(|n| n.kind == TokKind::Ident),
            _ => false,
        }
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        let pat_toks = self.take_until(&[';'], &["=", ":"]);
        let binds = pattern_binds(&pat_toks);
        let pat = join_toks_refs(&pat_toks);
        let ty = if self.eat_punct(':') {
            Some(join_toks_refs(&self.take_until(&[';'], &["="])))
        } else {
            None
        };
        let init = if self.eat_glued("=") {
            Some(self.expr(0, false))
        } else {
            None
        };
        let else_block = if self.eat_ident("else") {
            Some(self.block())
        } else {
            None
        };
        self.eat_punct(';');
        Stmt::Let {
            binds,
            pat,
            ty,
            init,
            else_block,
            line,
        }
    }

    // ---- expressions -----------------------------------------------------

    /// Pratt expression parser. `no_struct` forbids `Path { .. }` struct
    /// literals (condition/scrutinee positions).
    fn expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.prefix(no_struct);
        loop {
            // Postfix operators bind tightest.
            lhs = self.postfix(lhs);

            // Assignment (right-assoc, lowest).
            if min_bp <= 1 {
                if let Some(op) =
                    self.glued_op(&["<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="])
                {
                    let line = self.line();
                    self.i += op.len();
                    let rhs = self.expr(1, no_struct);
                    lhs = Expr::Assign {
                        op: Some(compound_op(op)),
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                    continue;
                }
                if self.at_punct('=') && !self.is_part_of_longer_op() {
                    let line = self.line();
                    self.i += 1;
                    let rhs = self.expr(1, no_struct);
                    lhs = Expr::Assign {
                        op: None,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        line,
                    };
                    continue;
                }
            }

            // Ranges.
            if min_bp <= 4 {
                if let Some(op) = self.glued_op(&["..=", ".."]) {
                    let line = self.line();
                    self.i += op.len();
                    let hi = if self.starts_expr() {
                        Some(Box::new(self.expr(5, no_struct)))
                    } else {
                        None
                    };
                    lhs = Expr::Range {
                        lo: Some(Box::new(lhs)),
                        hi,
                        line,
                    };
                    continue;
                }
            }

            // `as` casts.
            if self.at_ident("as") {
                let line = self.line();
                self.i += 1;
                let ty = self.parse_cast_type();
                lhs = Expr::Cast {
                    expr: Box::new(lhs),
                    ty,
                    line,
                };
                continue;
            }

            let Some((op_text, op, lbp, rbp)) = self.peek_binop() else {
                return lhs;
            };
            if lbp < min_bp {
                return lhs;
            }
            let line = self.line();
            self.i += op_text.len();
            let rhs = self.expr(rbp, no_struct);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    /// The binary operator at the cursor, with binding powers.
    fn peek_binop(&self) -> Option<(&'static str, BinOp, u8, u8)> {
        // Longest-first so `<<` wins over `<`, `==` over `=`.
        let op = self.glued_op(&[
            "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+", "-", "*", "/", "%", "^", "&", "|",
            "<", ">",
        ])?;
        // Reject operators that are prefixes of assignment forms.
        if self
            .glued_op(&[
                "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "=>", "->",
            ])
            .is_some()
        {
            return None;
        }
        Some(match op {
            "||" => (op, BinOp::Logic, 7, 8),
            "&&" => (op, BinOp::Logic, 9, 10),
            "==" | "!=" => (op, BinOp::Eq, 11, 12),
            "<" | ">" | "<=" | ">=" => (op, BinOp::Cmp, 11, 12),
            "|" => (op, BinOp::Bit, 13, 14),
            "^" => (op, BinOp::Bit, 15, 16),
            "&" => (op, BinOp::Bit, 17, 18),
            "<<" | ">>" => (op, BinOp::Bit, 19, 20),
            "+" => (op, BinOp::Add, 21, 22),
            "-" => (op, BinOp::Sub, 21, 22),
            "*" => (op, BinOp::Mul, 23, 24),
            "/" => (op, BinOp::Div, 23, 24),
            "%" => (op, BinOp::Rem, 23, 24),
            _ => return None,
        })
    }

    /// True if the cursor could start an expression (used for optional
    /// range bounds and `return` values).
    fn starts_expr(&self) -> bool {
        let Some(t) = self.peek() else { return false };
        match t.kind {
            TokKind::Number | TokKind::Literal => true,
            TokKind::Lifetime => false,
            TokKind::Ident => !matches!(t.text.as_str(), "else" | "in" | "as" | "where"),
            TokKind::Punct => matches!(
                t.text.as_str(),
                "(" | "[" | "{" | "-" | "!" | "*" | "&" | "|"
            ),
        }
    }

    fn parse_cast_type(&mut self) -> String {
        // Path-shaped type: idents, `::`, balanced `<..>`, `(..)`.
        let mut parts: Vec<String> = Vec::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident => {
                    parts.push(t.text.clone());
                    self.i += 1;
                    if self.eat_glued("::") {
                        parts.push("::".to_string());
                        continue;
                    }
                    if self.at_punct('<') {
                        let start = self.i;
                        self.skip_balanced();
                        parts.push(join_toks(&self.toks[start..self.i]));
                    }
                    break;
                }
                Some(t) if t.is_punct('*') || t.is_punct('&') => {
                    parts.push(t.text.clone());
                    self.i += 1;
                }
                _ => break,
            }
        }
        parts.join(" ").replace(" :: ", "::")
    }

    fn prefix(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else {
            return Expr::Unknown { line };
        };

        // Loop labels: `'a: loop { .. }`.
        if t.kind == TokKind::Lifetime {
            if self.peek_at(1).is_some_and(|n| n.is_punct(':')) {
                self.i += 2;
                return self.prefix(no_struct);
            }
            self.i += 1;
            return Expr::Unknown { line };
        }

        match t.kind {
            TokKind::Number | TokKind::Literal => {
                let text = t.text.clone();
                self.i += 1;
                return Expr::Lit { text, line };
            }
            _ => {}
        }

        // Unary operators.
        if t.is_punct('-') || t.is_punct('!') || t.is_punct('*') {
            let op = t.text.chars().next().unwrap_or('-');
            self.i += 1;
            let operand = self.expr(25, no_struct);
            return Expr::Unary {
                op,
                operand: Box::new(operand),
                line,
            };
        }
        if t.is_punct('&') {
            self.i += 1;
            self.eat_ident("mut");
            let operand = self.expr(25, no_struct);
            return Expr::Unary {
                op: '&',
                operand: Box::new(operand),
                line,
            };
        }

        // Prefix ranges `..hi` / `..=hi` / bare `..`.
        if let Some(op) = self.glued_op(&["..=", ".."]) {
            self.i += op.len();
            let hi = if self.starts_expr() {
                Some(Box::new(self.expr(5, no_struct)))
            } else {
                None
            };
            return Expr::Range { lo: None, hi, line };
        }

        // Grouping / tuples.
        if t.is_punct('(') {
            self.i += 1;
            let mut elems = Vec::new();
            let mut trailing_comma = false;
            while !self.at_punct(')') && self.peek().is_some() {
                elems.push(self.expr(0, false));
                trailing_comma = self.eat_punct(',');
                if !trailing_comma && !self.at_punct(')') {
                    // Can't make sense of the rest: recover to the close.
                    self.take_until(&[')'], &[]);
                    break;
                }
            }
            self.eat_punct(')');
            if elems.len() == 1 && !trailing_comma {
                return elems.remove(0);
            }
            return Expr::Tuple { elems, line };
        }

        // Arrays.
        if t.is_punct('[') {
            self.i += 1;
            let mut elems = Vec::new();
            while !self.at_punct(']') && self.peek().is_some() {
                elems.push(self.expr(0, false));
                if !self.eat_punct(',') && !self.eat_punct(';') && !self.at_punct(']') {
                    self.take_until(&[']'], &[]);
                    break;
                }
            }
            self.eat_punct(']');
            return Expr::Array { elems, line };
        }

        // Blocks.
        if t.is_punct('{') {
            let block = self.block();
            return Expr::BlockExpr { block, line };
        }

        // Closures.
        if t.is_punct('|') || t.is_ident("move") {
            return self.closure(line);
        }

        // Keyword expressions.
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "if" => return self.if_expr(line),
                "match" => return self.match_expr(line),
                "while" => {
                    self.i += 1;
                    let (cond, cond_binds) = self.condition();
                    let body = self.block();
                    return Expr::While {
                        cond: Box::new(cond),
                        cond_binds,
                        body,
                        line,
                    };
                }
                "loop" => {
                    self.i += 1;
                    let body = self.block();
                    return Expr::Loop { body, line };
                }
                "for" => {
                    self.i += 1;
                    let pat_toks = self.take_until_kw("in");
                    self.eat_ident("in");
                    let binds = pattern_binds(&pat_toks);
                    let pat = join_toks_refs(&pat_toks);
                    let iter = self.expr(0, true);
                    let body = self.block();
                    return Expr::For {
                        binds,
                        pat,
                        iter: Box::new(iter),
                        body,
                        line,
                    };
                }
                "return" => {
                    self.i += 1;
                    let value = if self.starts_expr() {
                        Some(Box::new(self.expr(0, no_struct)))
                    } else {
                        None
                    };
                    return Expr::Return { value, line };
                }
                "break" => {
                    self.i += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.i += 1;
                    }
                    let value = if self.starts_expr() {
                        Some(Box::new(self.expr(0, no_struct)))
                    } else {
                        None
                    };
                    return Expr::Jump { value, line };
                }
                "continue" => {
                    self.i += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.i += 1;
                    }
                    return Expr::Jump { value: None, line };
                }
                "unsafe" if self.peek_at(1).is_some_and(|n| n.is_punct('{')) => {
                    self.i += 1;
                    let block = self.block();
                    return Expr::BlockExpr { block, line };
                }
                _ => {}
            }
            if !EXPR_KEYWORDS.contains(&t.text.as_str()) {
                return self.path_expr(no_struct, line);
            }
        }

        // Unrecognized: consume (balanced if a delimiter) and move on.
        if matches!(t.text.as_str(), "(" | "[" | "{" | "<") {
            self.skip_balanced();
        } else {
            self.i += 1;
        }
        Expr::Unknown { line }
    }

    fn closure(&mut self, line: u32) -> Expr {
        let is_move = self.eat_ident("move");
        let mut params = Vec::new();
        if self.eat_glued("||") {
            // empty parameter list
        } else if self.eat_punct('|') {
            while let Some(t) = self.peek() {
                if t.is_punct('|') {
                    self.i += 1;
                    break;
                }
                let pat_toks = self.take_until(&[',', '|'], &[":"]);
                params.extend(pattern_binds(&pat_toks));
                if self.eat_punct(':') {
                    self.take_until(&[',', '|'], &[]);
                }
                self.eat_punct(',');
            }
        }
        if self.eat_glued("->") {
            self.take_until(&['{'], &[]);
        }
        let body = self.expr(0, false);
        Expr::Closure {
            params,
            body: Box::new(body),
            is_move,
            line,
        }
    }

    /// `if`/`while` condition, handling `let <pat> = <scrutinee>`.
    fn condition(&mut self) -> (Expr, Vec<String>) {
        if self.eat_ident("let") {
            // Struct patterns contain `{`, so scan to the `=` with braces
            // balanced rather than stopping at the first brace.
            let pat_toks = self.take_until(&[], &["="]);
            let binds = pattern_binds(&pat_toks);
            self.eat_glued("=");
            let scrut = self.expr(0, true);
            (scrut, binds)
        } else {
            (self.expr(0, true), Vec::new())
        }
    }

    fn if_expr(&mut self, line: u32) -> Expr {
        self.eat_ident("if");
        let (cond, cond_binds) = self.condition();
        let then = self.block();
        let else_ = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr(self.line())))
            } else {
                let l = self.line();
                let block = self.block();
                Some(Box::new(Expr::BlockExpr { block, line: l }))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            cond_binds,
            then,
            else_,
            line,
        }
    }

    fn match_expr(&mut self, line: u32) -> Expr {
        self.eat_ident("match");
        let scrut = self.expr(0, true);
        let mut arms = Vec::new();
        if self.eat_punct('{') {
            loop {
                if self.peek().is_none() || self.eat_punct('}') {
                    break;
                }
                // Arm attributes.
                while self.at_punct('#') {
                    self.i += 1;
                    if self.at_punct('[') {
                        self.skip_balanced();
                    }
                }
                let arm_line = self.line();
                let pat_toks = self.take_until(&['}'], &["=>"]);
                if !self.eat_glued("=>") {
                    // Malformed arm; bail out of the match body.
                    self.take_until(&['}'], &[]);
                    self.eat_punct('}');
                    break;
                }
                let binds = pattern_binds(&pat_toks);
                let pat = join_toks_refs(&pat_toks);
                let body = self.expr(0, false);
                self.eat_punct(',');
                arms.push(Arm {
                    pat,
                    binds,
                    body,
                    line: arm_line,
                });
            }
        }
        Expr::Match {
            scrut: Box::new(scrut),
            arms,
            line,
        }
    }

    fn path_expr(&mut self, no_struct: bool, line: u32) -> Expr {
        let mut segs = vec![self.ident_or("_")];
        loop {
            if self.glued_op(&["::"]).is_some() {
                // `::<turbofish>` or `::segment`
                if self.peek_at(2).is_some_and(|t| t.is_punct('<')) {
                    self.i += 2;
                    self.skip_balanced();
                    continue;
                }
                if self.peek_at(2).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.i += 2;
                    segs.push(self.ident_or("_"));
                    continue;
                }
            }
            break;
        }

        // Macro invocation.
        if self.at_punct('!')
            && self
                .peek_at(1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
        {
            self.i += 1;
            let args = self.macro_args();
            return Expr::MacroCall { args, line };
        }

        // Struct literal.
        if !no_struct && self.at_punct('{') && struct_path_like(&segs) {
            return self.struct_lit(segs, line);
        }

        Expr::Path { segs, line }
    }

    /// Best-effort parse of macro arguments as a comma-separated
    /// expression list. Falls back to skipping the whole group.
    fn macro_args(&mut self) -> Vec<Expr> {
        let open = self.i;
        let close = self.matching_close(open);
        let Some(close) = close else {
            self.skip_balanced();
            return Vec::new();
        };
        self.i += 1; // enter the group
        let mut args = Vec::new();
        let mut ok = true;
        while self.i < close {
            args.push(self.expr(0, false));
            if self.i >= close {
                break;
            }
            if !self.eat_punct(',') && !self.eat_punct(';') {
                ok = false;
                break;
            }
        }
        if !ok || self.i > close {
            self.i = open;
            self.skip_balanced();
            return Vec::new();
        }
        self.i = close + 1;
        args
    }

    /// Index of the token closing the balanced group opened at `open`.
    fn matching_close(&self, open: usize) -> Option<usize> {
        let (oc, cc) = match self.toks.get(open)?.text.as_str() {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i32;
        for (j, t) in self.toks.iter().enumerate().skip(open) {
            if t.is_punct(oc) {
                depth += 1;
            } else if t.is_punct(cc) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    fn struct_lit(&mut self, segs: Vec<String>, line: u32) -> Expr {
        self.eat_punct('{');
        let name = segs.last().cloned().unwrap_or_default();
        let mut fields = Vec::new();
        let mut rest = None;
        loop {
            if self.peek().is_none() || self.eat_punct('}') {
                break;
            }
            if self.eat_glued("..") {
                // `Pat { .. }` in pattern-position macro args has no rest
                // expression; a plain `..` before `}` is not a hole.
                if !self.at_punct('}') {
                    rest = Some(Box::new(self.expr(0, false)));
                }
                self.eat_punct(',');
                continue;
            }
            let fname = match self.peek() {
                Some(t) if t.kind == TokKind::Ident || t.kind == TokKind::Number => {
                    let s = t.text.clone();
                    self.i += 1;
                    s
                }
                _ => {
                    // Unparseable field; recover to the close brace.
                    self.take_until(&['}'], &[]);
                    self.eat_punct('}');
                    break;
                }
            };
            if self.at_punct(':') && !self.is_part_of_longer_op() {
                self.i += 1;
                let value = self.expr(0, false);
                fields.push((fname, value));
            } else {
                // Shorthand `Point { x, y }`.
                let fline = self.line();
                fields.push((
                    fname.clone(),
                    Expr::Path {
                        segs: vec![fname],
                        line: fline,
                    },
                ));
            }
            self.eat_punct(',');
        }
        Expr::StructLit {
            name,
            fields,
            rest,
            line,
        }
    }

    fn postfix(&mut self, mut lhs: Expr) -> Expr {
        loop {
            let line = self.line();
            // `?`
            if self.at_punct('?') {
                self.i += 1;
                lhs = Expr::Try {
                    expr: Box::new(lhs),
                    line,
                };
                continue;
            }
            // Call.
            if self.at_punct('(') {
                self.i += 1;
                let mut args = Vec::new();
                while !self.at_punct(')') && self.peek().is_some() {
                    args.push(self.expr(0, false));
                    if !self.eat_punct(',') && !self.at_punct(')') {
                        self.take_until(&[')'], &[]);
                        break;
                    }
                }
                self.eat_punct(')');
                lhs = Expr::Call {
                    callee: Box::new(lhs),
                    args,
                    line,
                };
                continue;
            }
            // Index.
            if self.at_punct('[') {
                self.i += 1;
                let index = self.expr(0, false);
                self.take_until(&[']'], &[]);
                self.eat_punct(']');
                lhs = Expr::Index {
                    recv: Box::new(lhs),
                    index: Box::new(index),
                    line,
                };
                continue;
            }
            // Field / method / tuple index.
            if self.at_punct('.') && !self.is_part_of_longer_op() {
                self.i += 1;
                match self.peek() {
                    Some(t) if t.kind == TokKind::Ident => {
                        let name = t.text.clone();
                        self.i += 1;
                        // Turbofish on the method.
                        if self.glued_op(&["::"]).is_some()
                            && self.peek_at(2).is_some_and(|t| t.is_punct('<'))
                        {
                            self.i += 2;
                            self.skip_balanced();
                        }
                        if self.at_punct('(') {
                            self.i += 1;
                            let mut args = Vec::new();
                            while !self.at_punct(')') && self.peek().is_some() {
                                args.push(self.expr(0, false));
                                if !self.eat_punct(',') && !self.at_punct(')') {
                                    self.take_until(&[')'], &[]);
                                    break;
                                }
                            }
                            self.eat_punct(')');
                            lhs = Expr::MethodCall {
                                recv: Box::new(lhs),
                                method: name,
                                args,
                                line,
                            };
                        } else {
                            lhs = Expr::Field {
                                recv: Box::new(lhs),
                                field: name,
                                line,
                            };
                        }
                        continue;
                    }
                    Some(t) if t.kind == TokKind::Number => {
                        // Tuple index; `x.0.1` lexes the number as "0.1".
                        let text = t.text.clone();
                        self.i += 1;
                        for part in text.split('.') {
                            lhs = Expr::Field {
                                recv: Box::new(lhs),
                                field: part.to_string(),
                                line,
                            };
                        }
                        continue;
                    }
                    _ => {
                        lhs = Expr::Unknown { line };
                        continue;
                    }
                }
            }
            return lhs;
        }
    }
}

/// True when a path before `{` plausibly names a struct (`Point`,
/// `Self`, `module::Config`) rather than a local variable, so `x {` in
/// permissive positions isn't eaten as a struct literal.
fn struct_path_like(segs: &[String]) -> bool {
    segs.last()
        .and_then(|s| s.chars().next())
        .is_some_and(|c| c.is_uppercase())
        || segs.last().is_some_and(|s| s == "Self")
        || segs.len() > 1
}

fn compound_op(op: &str) -> BinOp {
    match op.chars().next() {
        Some('+') => BinOp::Add,
        Some('-') => BinOp::Sub,
        Some('*') => BinOp::Mul,
        Some('/') => BinOp::Div,
        Some('%') => BinOp::Rem,
        _ => BinOp::Bit,
    }
}

/// Joins tokens into readable text with single spaces, tightening `::`.
fn join_toks(toks: &[Tok]) -> String {
    toks.iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
        .replace(" :: ", "::")
        .replace(" < ", "<")
        .replace(" > ", ">")
        .replace(" >", ">")
        .replace("& ", "&")
}

fn join_toks_refs(toks: &[&Tok]) -> String {
    toks.iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
        .replace(" :: ", "::")
        .replace(" < ", "<")
        .replace(" > ", ">")
        .replace(" >", ">")
        .replace("& ", "&")
}

/// The self-type name an `impl` header resolves to: the last identifier
/// at angle-depth 0 (so `impl fmt::Display for PathSet<T>` → `PathSet`).
fn last_type_name(toks: &[&Tok]) -> String {
    let mut depth = 0i32;
    let mut name = String::new();
    for t in toks {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ => {
                if depth == 0 && t.kind == TokKind::Ident && t.text != "dyn" && t.text != "where" {
                    name = t.text.clone();
                }
            }
        }
    }
    name
}

/// Identifiers a pattern binds: lowercase-start idents that are not path
/// segments, struct-pattern field labels, or pattern keywords.
fn pattern_binds(toks: &[&Tok]) -> Vec<String> {
    let mut binds = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let first = t.text.chars().next().unwrap_or('_');
        if !(first.is_lowercase() || first == '_') || t.text == "_" {
            continue;
        }
        if matches!(t.text.as_str(), "mut" | "ref" | "box" | "true" | "false") {
            continue;
        }
        // Path segment? (`mod::Variant` / `Variant::..`)
        let next_colon2 = toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(k + 2).is_some_and(|n| n.is_punct(':'));
        let prev_colon2 = k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':');
        if next_colon2 || prev_colon2 {
            continue;
        }
        // Struct-pattern field label `Point { x: px }` — `x` is a label,
        // not a binding (a single colon follows).
        let next_single_colon = toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(k + 2).is_some_and(|n| n.is_punct(':'));
        if next_single_colon {
            continue;
        }
        if !binds.contains(&t.text) {
            binds.push(t.text.clone());
        }
    }
    binds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a single expression.
    fn parse_expr_str(src: &str) -> Expr {
        let lexed = lex(src);
        let mut p = Parser {
            toks: &lexed.tokens,
            i: 0,
        };
        p.expr(0, false)
    }

    #[test]
    fn parses_a_simple_fn() {
        let ast = parse_file("pub fn f(x_hz: f64, y: Hertz) -> f64 { x_hz + y.as_hz() }\n");
        assert_eq!(ast.items.len(), 1);
        let ItemKind::Fn(f) = &ast.items[0].kind else {
            panic!("expected fn, got {:?}", ast.items[0].kind);
        };
        assert_eq!(f.name, "f");
        assert_eq!(f.vis, Vis::Pub);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "x_hz");
        assert_eq!(f.params[1].ty, "Hertz");
        assert_eq!(f.ret.as_deref(), Some("f64"));
        let body = f.body.as_ref().expect("has body");
        assert!(body.tail.is_some());
        assert!(!body.has_unknown());
    }

    #[test]
    fn precedence_and_gluing() {
        let e = parse_expr_str("a + b * c == d << 1");
        // ((a + (b*c)) == (d << 1))
        let Expr::Binary { op, lhs, rhs, .. } = e else {
            panic!("expected binary");
        };
        assert_eq!(op, BinOp::Eq);
        assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Bit, .. }));
    }

    #[test]
    fn method_chain_with_closure() {
        let e = parse_expr_str("v.iter().map(|x| x + 1).collect::<Vec<_>>()");
        let Expr::MethodCall { method, .. } = &e else {
            panic!("expected method call");
        };
        assert_eq!(method, "collect");
        assert!(!e.has_unknown());
    }

    #[test]
    fn struct_literal_and_no_struct_condition() {
        let e = parse_expr_str("Point { x: 1.0, y: spot.y }");
        assert!(matches!(e, Expr::StructLit { .. }));
        let f = parse_file("fn f() { if x { g(); } }");
        let ItemKind::Fn(fd) = &f.items[0].kind else {
            panic!()
        };
        assert!(!fd.body.as_ref().unwrap().has_unknown());
    }

    #[test]
    fn if_let_and_match_bind() {
        let e = parse_expr_str("match r { Ok(v) => v, Err(e) => fallback(e) }");
        let Expr::Match { arms, .. } = &e else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].binds, vec!["v".to_string()]);
        assert_eq!(arms[1].binds, vec!["e".to_string()]);
    }

    #[test]
    fn impl_blocks_and_methods() {
        let src = "impl fmt::Display for PathSet { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"x\") } }";
        let ast = parse_file(src);
        let ItemKind::Impl {
            ty,
            trait_name,
            items,
        } = &ast.items[0].kind
        else {
            panic!("expected impl, got {:?}", ast.items[0].kind);
        };
        assert_eq!(ty, "PathSet");
        assert_eq!(trait_name.as_deref(), Some("Display"));
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn struct_fields_are_captured() {
        let src =
            "pub struct Store {\n    pub by_epc: HashMap<Epc, Vec<Obs>>,\n    count: usize,\n}\n";
        let ast = parse_file(src);
        let ItemKind::Struct { name, fields } = &ast.items[0].kind else {
            panic!("expected struct, got {:?}", ast.items[0].kind);
        };
        assert_eq!(name, "Store");
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, "by_epc");
        assert!(fields[0].1.contains("HashMap"), "ty = {}", fields[0].1);
        assert_eq!(fields[1], ("count".to_string(), "usize".to_string()));
    }

    #[test]
    fn spans_point_at_source_lines() {
        let src = "fn a() {}\n\nfn b() {\n    x.unwrap();\n}\n";
        let ast = parse_file(src);
        assert_eq!(ast.items[0].line, 1);
        assert_eq!(ast.items[1].line, 3);
        let ItemKind::Fn(fd) = &ast.items[1].kind else {
            panic!()
        };
        let body = fd.body.as_ref().unwrap();
        let Stmt::Expr(e) = &body.stmts[0] else {
            panic!()
        };
        assert_eq!(e.line(), 4);
    }
}
