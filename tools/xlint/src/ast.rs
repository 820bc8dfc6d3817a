//! A lightweight Rust AST, parsed from the token stream.
//!
//! This is not a full Rust grammar — it is the structural skeleton the
//! semantic passes need, recovered by a recursive-descent walk over the
//! lexer's tokens:
//!
//! * **items** — `use` declarations (with every binding's canonical path,
//!   so `use std::time::Instant as T` is alias-proof), `fn` bodies,
//!   `const`/`static` initializers, `mod`/`impl`/`trait` containers, and a
//!   verbatim bucket for everything else (struct fields still get scanned);
//! * **control structure** — `if`/`while` conditions, `for`/`loop` heads,
//!   `match` scrutinees and arms, and nested blocks, each holding its body
//!   as a sub-tree so passes can reason about *lexical containment* (the
//!   rank-divergence rule is "collective call inside a rank-dependent
//!   branch", which token streams cannot express);
//! * **leaves** — flat expression token runs between structural nodes.
//!
//! Structure is only recognized at paren/bracket depth 0: inside an
//! argument list, `{}` blocks and `if` expressions stay part of the flat
//! leaf run, which keeps call-argument extraction (tag positions, index
//! expressions) intact.
//!
//! `#[cfg(test)]` subtrees are parsed but flagged, so rules that exempt
//! test code skip them while the SAFETY pass still sees every token.

use crate::lexer::{Tok, TokKind};
use std::collections::HashMap;

/// One binding introduced by a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBinding {
    /// Canonical path segments, e.g. `["std", "time", "Instant"]`.
    pub path: Vec<String>,
    /// The name the binding is visible under (the alias after `as`, or the
    /// last path segment).
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// A parsed item.
#[derive(Debug)]
pub struct Item {
    /// True when any attribute on the item is `#[cfg(test)]`.
    pub cfg_test: bool,
    pub kind: ItemKind,
}

#[derive(Debug)]
pub enum ItemKind {
    Use(Vec<UseBinding>),
    Fn {
        name: String,
        /// Signature tokens (between `fn` and the body/`;`), so type
        /// positions (`t: Instant`) are scanned like expression leaves.
        sig: Vec<Tok>,
        /// `None` for bodyless trait-method declarations.
        body: Option<Block>,
        line: u32,
        col: u32,
    },
    /// `const` or `static` with its initializer tokens.
    Const {
        name: String,
        value: Vec<Tok>,
        line: u32,
        col: u32,
    },
    /// Inline `mod name { ... }`.
    Mod {
        items: Vec<Item>,
    },
    /// `impl`/`trait`/`extern` block: header tokens plus inner items.
    Container {
        header: Vec<Tok>,
        items: Vec<Item>,
    },
    /// Anything else (struct/enum/type/macro invocations...), kept as a
    /// flat token run so identifier-level rules still see it.
    Verbatim(Vec<Tok>),
}

/// A `{ ... }` body: a sequence of structural nodes.
#[derive(Debug, Default)]
pub struct Block {
    pub nodes: Vec<Node>,
}

#[derive(Debug)]
pub enum Node {
    /// Flat run of expression tokens with no recognized structure.
    Leaf(Vec<Tok>),
    /// `if`/`while` (incl. `if let`/`while let`): condition tokens, body,
    /// and the else-chain (an `else if` nests as a Branch inside `els`).
    Branch {
        cond: Vec<Tok>,
        body: Block,
        els: Option<Block>,
    },
    /// `for pat in head { .. }` (head = `pat in expr`) or `loop { .. }`
    /// (empty head). A rank-dependent head means rank-dependent trip
    /// counts, which the divergence rule treats like a branch.
    Loop { head: Vec<Tok>, body: Block },
    /// `match scrutinee { arms }`.
    Match { scrut: Vec<Tok>, arms: Vec<Arm> },
    /// A plain `{ .. }` / `unsafe { .. }` block (or a struct literal,
    /// which is indistinguishable without type information and harmless
    /// to over-group).
    Block(Block),
    /// A nested item (local `use`, nested `fn`, local `const`).
    Item(Box<Item>),
}

/// One match arm: pattern tokens (including any `if` guard) and the body.
#[derive(Debug)]
pub struct Arm {
    pub pat: Vec<Tok>,
    pub body: Block,
}

/// A parsed file.
#[derive(Debug, Default)]
pub struct Ast {
    pub items: Vec<Item>,
}

impl Ast {
    /// Every `use` binding in non-`cfg(test)` code, as name → binding.
    /// Later bindings of the same name win, matching shadowing order.
    pub fn aliases(&self) -> HashMap<String, UseBinding> {
        let mut map = HashMap::new();
        collect_aliases(&self.items, &mut map);
        map
    }
}

/// Every item of `items` and of the modules, `impl`s and traits among them,
/// depth first; `#[cfg(test)]` subtrees only with `tests`.
pub fn flat_items(items: &[Item], tests: bool) -> Vec<&Item> {
    let mut out = Vec::new();
    for item in items.iter().filter(|item| tests || !item.cfg_test) {
        out.push(item);
        if let ItemKind::Mod { items } | ItemKind::Container { items, .. } = &item.kind {
            out.extend(flat_items(items, tests));
        }
    }
    out
}

fn collect_aliases(items: &[Item], map: &mut HashMap<String, UseBinding>) {
    for item in flat_items(items, false) {
        match &item.kind {
            ItemKind::Use(bindings) => {
                for b in bindings {
                    map.insert(b.name.clone(), b.clone());
                }
            }
            ItemKind::Fn {
                body: Some(block), ..
            } => collect_aliases_in_block(block, map),
            _ => {}
        }
    }
}

fn collect_aliases_in_block(block: &Block, map: &mut HashMap<String, UseBinding>) {
    for node in &block.nodes {
        match node {
            Node::Item(item) => {
                if let ItemKind::Use(bindings) = &item.kind {
                    for b in bindings {
                        map.insert(b.name.clone(), b.clone());
                    }
                }
            }
            Node::Branch { body, els, .. } => {
                collect_aliases_in_block(body, map);
                if let Some(e) = els {
                    collect_aliases_in_block(e, map);
                }
            }
            Node::Loop { body, .. } => collect_aliases_in_block(body, map),
            Node::Match { arms, .. } => {
                for a in arms {
                    collect_aliases_in_block(&a.body, map);
                }
            }
            Node::Block(b) => collect_aliases_in_block(b, map),
            Node::Leaf(_) => {}
        }
    }
}

/// Parse a whole file's token stream.
pub fn parse(toks: &[Tok]) -> Ast {
    let mut p = Parser { toks, i: 0 };
    Ast {
        items: p.items(None),
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
}

/// Keywords that start items we model explicitly.
const ITEM_KEYWORDS: [&str; 6] = ["use", "fn", "const", "static", "mod", "unsafe"];

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.i)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.i + off)
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
        self.peek().and_then(Tok::ident) == Some(s)
    }

    // ---- items ------------------------------------------------------------

    /// Parse items until `end_brace` (Some: stop at the matching `}` and
    /// consume it) or end of input (None).
    fn items(&mut self, end_brace: Option<()>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if end_brace.is_some() && self.at_punct('}') {
                self.bump();
                break;
            }
            if self.peek().is_none() {
                break;
            }
            items.push(self.item());
        }
        items
    }

    fn item(&mut self) -> Item {
        let cfg_test = self.attrs();
        // Visibility: `pub` / `pub(crate)` / `pub(in path)`.
        if self.at_ident("pub") {
            self.bump();
            if self.at_punct('(') {
                self.skip_balanced('(', ')');
            }
        }
        // Leading qualifiers before `fn`: unsafe/async/extern "C"/const.
        let mut probe = 0usize;
        while let Some(t) = self.peek_at(probe) {
            match t.ident() {
                Some("unsafe" | "async" | "extern") => {
                    probe += 1;
                    // `extern "C"`.
                    if self.peek_at(probe).is_some_and(|t| t.kind == TokKind::Str) {
                        probe += 1;
                    }
                }
                Some("const") if self.peek_at(probe + 1).and_then(Tok::ident) == Some("fn") => {
                    probe += 1;
                }
                _ => break,
            }
        }
        let kw = self.peek_at(probe).and_then(Tok::ident).unwrap_or("");

        let kind = match kw {
            "use" => {
                self.i += probe;
                self.use_item()
            }
            "fn" => {
                self.i += probe;
                self.fn_item()
            }
            "const" | "static" => {
                self.i += probe;
                self.const_item()
            }
            "mod" => {
                self.i += probe;
                self.mod_item()
            }
            "impl" | "trait" => {
                self.i += probe;
                self.container_item()
            }
            "extern" if probe == 0 => {
                // `extern crate foo;` or `extern "C" { ... }`.
                self.verbatim_item()
            }
            _ => self.verbatim_item(),
        };
        Item { cfg_test, kind }
    }

    /// Consume leading attributes; report whether any is `#[cfg(test)]`.
    fn attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.at_punct('#') {
            let start = self.i;
            self.bump();
            if self.at_punct('!') {
                self.bump();
            }
            if self.at_punct('[') {
                self.skip_balanced('[', ']');
            }
            let attr = &self.toks[start..self.i];
            if attr
                .windows(2)
                .any(|w| w[0].ident() == Some("cfg") && w[1].is_punct('('))
                && attr.iter().any(|t| t.ident() == Some("test"))
            {
                cfg_test = true;
            }
        }
        cfg_test
    }

    /// Skip a balanced `open..close` group (cursor on `open`).
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }

    /// `use` tree → flattened bindings. Cursor on `use`.
    fn use_item(&mut self) -> ItemKind {
        self.bump(); // `use`
        let mut bindings = Vec::new();
        self.use_tree(&mut Vec::new(), &mut bindings);
        if self.at_punct(';') {
            self.bump();
        }
        ItemKind::Use(bindings)
    }

    fn use_tree(&mut self, prefix: &mut Vec<String>, out: &mut Vec<UseBinding>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.peek() {
                Some(t) if t.is_punct('{') => {
                    self.bump();
                    loop {
                        if self.at_punct('}') {
                            self.bump();
                            break;
                        }
                        if self.peek().is_none() {
                            break;
                        }
                        self.use_tree(prefix, out);
                        if self.at_punct(',') {
                            self.bump();
                        }
                    }
                    break;
                }
                Some(t) if t.is_punct('*') => {
                    self.bump(); // glob: introduces no named binding
                    break;
                }
                // A leading `::` (`use ::comm::pages`) adds no segment.
                Some(t) if t.is_punct(':') => {
                    self.bump();
                }
                Some(t) => {
                    let Some(seg) = t.ident() else { break };
                    let (line, col) = (t.line, t.col);
                    let seg = seg.to_string();
                    self.bump();
                    // `::` continues the path; `as` renames; else terminal.
                    if self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':')) {
                        prefix.push(seg);
                        self.bump();
                        self.bump();
                        continue;
                    }
                    let mut path: Vec<String> = prefix.clone();
                    path.push(seg.clone());
                    let name = if self.at_ident("as") {
                        self.bump();
                        let alias = self.peek().and_then(Tok::ident).unwrap_or(&seg).to_string();
                        self.bump();
                        alias
                    } else {
                        seg
                    };
                    out.push(UseBinding {
                        path,
                        name,
                        line,
                        col,
                    });
                    break;
                }
                None => break,
            }
        }
        prefix.truncate(depth_at_entry);
    }

    /// `fn name(sig) -> ret { body }`. Cursor on `fn`.
    fn fn_item(&mut self) -> ItemKind {
        let fn_tok = self.bump().expect("cursor on `fn`");
        let (line, col) = (fn_tok.line, fn_tok.col);
        let name = self
            .peek()
            .and_then(Tok::ident)
            .unwrap_or("<anon>")
            .to_string();
        self.bump();
        // Signature: everything to the body `{` or a terminating `;`, at
        // bracket depth 0 (parens/brackets/angles in the signature nest).
        let sig_start = self.i;
        let mut depth = 0i32;
        let mut body = None;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokKind::Punct('(' | '[') => depth += 1,
                TokKind::Punct(')' | ']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            self.bump();
        }
        let sig = self.toks[sig_start..self.i].to_vec();
        if self.at_punct('{') {
            body = Some(self.block());
        } else if self.at_punct(';') {
            self.bump();
        }
        ItemKind::Fn {
            name,
            sig,
            body,
            line,
            col,
        }
    }

    /// `const NAME: Ty = value;` / `static NAME: Ty = value;`.
    fn const_item(&mut self) -> ItemKind {
        self.bump(); // const/static
        if self.at_ident("mut") {
            self.bump();
        }
        let (name, line, col) = match self.peek() {
            Some(t) => (t.ident().unwrap_or("<anon>").to_string(), t.line, t.col),
            None => ("<anon>".to_string(), 0, 0),
        };
        self.bump();
        // Skip to `=` at depth 0 (the type may contain brackets/fn ptrs).
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                TokKind::Punct('=') if depth == 0 => break,
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            self.bump();
        }
        let mut value = Vec::new();
        if self.at_punct('=') {
            self.bump();
            let start = self.i;
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match &t.kind {
                    TokKind::Punct('(' | '[' | '{') => depth += 1,
                    TokKind::Punct(')' | ']' | '}') => depth -= 1,
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                self.bump();
            }
            value = self.toks[start..self.i].to_vec();
        }
        if self.at_punct(';') {
            self.bump();
        }
        ItemKind::Const {
            name,
            value,
            line,
            col,
        }
    }

    /// `mod name { items }` or `mod name;`.
    fn mod_item(&mut self) -> ItemKind {
        self.bump(); // mod
        self.bump(); // name
        if self.at_punct('{') {
            self.bump();
            ItemKind::Mod {
                items: self.items(Some(())),
            }
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            ItemKind::Mod { items: Vec::new() }
        }
    }

    /// `impl ... { items }` / `trait ... { items }`.
    fn container_item(&mut self) -> ItemKind {
        let start = self.i;
        self.bump(); // impl/trait
                     // Header runs to the `{` at angle-free depth 0; generic parameters
                     // never contain braces in this workspace's code.
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokKind::Punct('(' | '[') => depth += 1,
                TokKind::Punct(')' | ']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            self.bump();
        }
        let header = self.toks[start..self.i].to_vec();
        if self.at_punct('{') {
            self.bump();
            ItemKind::Container {
                header,
                items: self.items(Some(())),
            }
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            ItemKind::Verbatim(header)
        }
    }

    /// Anything else: consume to a top-level `;` or through one balanced
    /// `{...}` group, keeping the tokens for identifier-level scans.
    fn verbatim_item(&mut self) -> ItemKind {
        let start = self.i;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokKind::Punct('(' | '[') => depth += 1,
                TokKind::Punct(')' | ']') => depth -= 1,
                TokKind::Punct('{') => {
                    self.skip_balanced('{', '}');
                    if depth == 0 {
                        // struct Foo { .. } ends here; `= [..] {..}` cannot
                        // occur at item level outside expressions.
                        break;
                    }
                    continue;
                }
                TokKind::Punct(';') if depth == 0 => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            self.bump();
        }
        ItemKind::Verbatim(self.toks[start..self.i].to_vec())
    }

    // ---- blocks -----------------------------------------------------------

    /// Parse a `{ ... }` body; cursor on the opening `{`.
    fn block(&mut self) -> Block {
        self.bump(); // `{`
        let mut block = Block::default();
        let mut leaf: Vec<Tok> = Vec::new();
        // Paren/bracket depth: structure is only recognized at depth 0 so
        // call arguments stay intact in one leaf.
        let mut depth = 0i32;

        macro_rules! flush {
            () => {
                if !leaf.is_empty() {
                    block.nodes.push(Node::Leaf(std::mem::take(&mut leaf)));
                }
            };
        }

        while let Some(t) = self.peek() {
            if depth > 0 {
                match &t.kind {
                    TokKind::Punct('(' | '[') => depth += 1,
                    TokKind::Punct(')' | ']') => depth -= 1,
                    // A `{...}` inside an argument list stays flat, but must
                    // be consumed balanced so its `}` is not mistaken for
                    // the end of this block.
                    TokKind::Punct('{') => {
                        let start = self.i;
                        self.skip_balanced('{', '}');
                        leaf.extend_from_slice(&self.toks[start..self.i]);
                        continue;
                    }
                    _ => {}
                }
                leaf.push(t.clone());
                self.bump();
                continue;
            }
            match &t.kind {
                TokKind::Punct('}') => {
                    self.bump();
                    break;
                }
                TokKind::Punct('(' | '[') => {
                    depth += 1;
                    leaf.push(t.clone());
                    self.bump();
                }
                TokKind::Punct('{') => {
                    flush!();
                    block.nodes.push(Node::Block(self.block()));
                }
                TokKind::Ident(kw) if kw == "if" || kw == "while" => {
                    flush!();
                    block.nodes.push(self.branch());
                }
                TokKind::Ident(kw) if kw == "for" || kw == "loop" => {
                    flush!();
                    self.bump();
                    let head = if kw == "for" {
                        self.head_until_brace()
                    } else {
                        Vec::new()
                    };
                    let body = if self.at_punct('{') {
                        self.block()
                    } else {
                        Block::default()
                    };
                    block.nodes.push(Node::Loop { head, body });
                }
                TokKind::Ident(kw) if kw == "match" => {
                    flush!();
                    self.bump();
                    let scrut = self.head_until_brace();
                    let arms = if self.at_punct('{') {
                        self.match_arms()
                    } else {
                        Vec::new()
                    };
                    block.nodes.push(Node::Match { scrut, arms });
                }
                TokKind::Ident(kw)
                    if kw == "unsafe" && self.peek_at(1).is_some_and(|t| t.is_punct('{')) =>
                {
                    flush!();
                    self.bump();
                    block.nodes.push(Node::Block(self.block()));
                }
                // Item keywords only open an item in statement position:
                // `*const u8` in a type and `fn(u8) -> u8` pointer types
                // must stay part of the surrounding leaf.
                TokKind::Ident(kw)
                    if (ITEM_KEYWORDS.contains(&kw.as_str()) || kw == "pub")
                        && leaf.last().is_none_or(|t| t.is_punct(';')) =>
                {
                    // Local item (`use`, nested `fn`, local `const`, ...).
                    // `unsafe` was handled above when followed by `{`; here
                    // it can only start `unsafe fn`.
                    flush!();
                    block.nodes.push(Node::Item(Box::new(self.item())));
                }
                _ => {
                    leaf.push(t.clone());
                    self.bump();
                }
            }
        }
        flush!();
        block
    }

    /// Parse an `if`/`while` (cursor on the keyword).
    fn branch(&mut self) -> Node {
        self.bump(); // if/while
        if self.at_ident("let") {
            self.bump();
        }
        let cond = self.head_until_brace();
        let body = if self.at_punct('{') {
            self.block()
        } else {
            Block::default()
        };
        let els = if self.at_ident("else") {
            self.bump();
            if self.at_ident("if") {
                let mut b = Block::default();
                b.nodes.push(self.branch());
                Some(b)
            } else if self.at_punct('{') {
                Some(self.block())
            } else {
                None
            }
        } else {
            None
        };
        Node::Branch { cond, body, els }
    }

    /// Tokens up to the `{` that opens the dependent block, at depth 0.
    /// (Rust forbids struct literals in condition/scrutinee position, so
    /// the first depth-0 `{` is the block.)
    fn head_until_brace(&mut self) -> Vec<Tok> {
        let start = self.i;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokKind::Punct('(' | '[') => depth += 1,
                TokKind::Punct(')' | ']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                // Inside parens a block expression may appear (closures,
                // `if` expressions as arguments): consume it balanced.
                TokKind::Punct('{') => {
                    self.skip_balanced('{', '}');
                    continue;
                }
                TokKind::Punct(';') if depth == 0 => break, // malformed; bail
                _ => {}
            }
            self.bump();
        }
        self.toks[start..self.i].to_vec()
    }

    /// Parse match arms; cursor on the `{` that opens the arm list.
    fn match_arms(&mut self) -> Vec<Arm> {
        self.bump(); // `{`
        let mut arms = Vec::new();
        loop {
            if self.at_punct('}') {
                self.bump();
                break;
            }
            if self.peek().is_none() {
                break;
            }
            // Pattern (+ optional guard): up to `=>` at depth 0.
            let pat_start = self.i;
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match &t.kind {
                    TokKind::Punct('(' | '[' | '{') => depth += 1,
                    TokKind::Punct(')' | ']' | '}') => {
                        if depth == 0 {
                            break; // the match's closing `}` (trailing comma)
                        }
                        depth -= 1;
                    }
                    TokKind::Punct('=')
                        if depth == 0 && self.peek_at(1).is_some_and(|t| t.is_punct('>')) =>
                    {
                        break;
                    }
                    _ => {}
                }
                self.bump();
            }
            let pat = self.toks[pat_start..self.i].to_vec();
            if self.at_punct('=') {
                self.bump();
                self.bump(); // `>`
            }
            // Arm body: a block, or expression tokens to `,`/`}` at depth 0.
            let mut body = Block::default();
            if self.at_punct('{') {
                body = self.block();
            } else {
                let mut leaf = Vec::new();
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    match &t.kind {
                        TokKind::Punct('(' | '[') => depth += 1,
                        TokKind::Punct(')' | ']') => depth -= 1,
                        TokKind::Punct('{') => {
                            let start = self.i;
                            self.skip_balanced('{', '}');
                            leaf.extend_from_slice(&self.toks[start..self.i]);
                            continue;
                        }
                        TokKind::Punct(',') if depth == 0 => {
                            self.bump();
                            break;
                        }
                        TokKind::Punct('}') if depth == 0 => break,
                        _ => {}
                    }
                    leaf.push(t.clone());
                    self.bump();
                }
                if !leaf.is_empty() {
                    body.nodes.push(Node::Leaf(leaf));
                }
            }
            arms.push(Arm { pat, body });
            if self.at_punct(',') {
                self.bump();
            }
        }
        arms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).toks)
    }

    #[test]
    fn use_aliases_are_canonicalized() {
        let ast = parse_src(
            "use std::time::Instant as T;\nuse std::time::{Duration, SystemTime as S};\n\
             use foo::bar::*;\nuse ::std::thread::sleep as nap;",
        );
        let aliases = ast.aliases();
        assert_eq!(aliases["T"].path.join("::"), "std::time::Instant");
        assert_eq!(aliases["S"].path.join("::"), "std::time::SystemTime");
        assert_eq!(aliases["Duration"].path.join("::"), "std::time::Duration");
        assert_eq!(
            aliases["nap"].path.join("::"),
            "std::thread::sleep",
            "leading `::`"
        );
        assert!(!aliases.contains_key("bar"), "glob introduces no binding");
    }

    #[test]
    fn nested_use_groups_flatten() {
        let ast = parse_src("use a::{b::{c as X, d}, e};");
        let aliases = ast.aliases();
        assert_eq!(aliases["X"].path.join("::"), "a::b::c");
        assert_eq!(aliases["d"].path.join("::"), "a::b::d");
        assert_eq!(aliases["e"].path.join("::"), "a::e");
    }

    #[test]
    fn cfg_test_items_are_flagged_not_dropped() {
        let ast = parse_src("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }\nfn tail() {}");
        assert_eq!(ast.items.len(), 3);
        assert!(!ast.items[0].cfg_test);
        assert!(ast.items[1].cfg_test);
        assert!(!ast.items[2].cfg_test);
    }

    #[test]
    fn cfg_test_with_extra_attrs_still_flagged() {
        let ast = parse_src("#[cfg(test)]\n#[allow(dead_code)]\nfn helper() {}\nfn keep() {}");
        assert!(ast.items[0].cfg_test);
        assert!(!ast.items[1].cfg_test);
    }

    #[test]
    fn branch_condition_and_body_are_separated() {
        let ast = parse_src("fn f(r: usize) { if r == 0 { g(); } else { h(); } }");
        let ItemKind::Fn { body: Some(b), .. } = &ast.items[0].kind else {
            panic!("fn item");
        };
        let Node::Branch { cond, body, els } = &b.nodes[0] else {
            panic!("branch node, got {:?}", b.nodes[0]);
        };
        let cond_ids: Vec<_> = cond.iter().filter_map(Tok::ident).collect();
        assert_eq!(cond_ids, vec!["r"]);
        assert_eq!(body.nodes.len(), 1);
        assert!(els.is_some());
    }

    #[test]
    fn blocks_inside_call_args_stay_flat() {
        // The `{}` and `if` inside the argument list must not fragment the
        // call's tokens across nodes.
        let ast = parse_src("fn f() { g(if c { 1 } else { 2 }, h()); }");
        let ItemKind::Fn { body: Some(b), .. } = &ast.items[0].kind else {
            panic!("fn item");
        };
        assert_eq!(b.nodes.len(), 1, "{:?}", b.nodes);
        let Node::Leaf(toks) = &b.nodes[0] else {
            panic!("single leaf");
        };
        assert!(toks.iter().any(|t| t.ident() == Some("h")));
    }

    #[test]
    fn match_arms_split_patterns_and_bodies() {
        let ast =
            parse_src("fn f(r: usize) { match r { 0 => a(), n if n > 2 => { b() } _ => c(), } }");
        let ItemKind::Fn { body: Some(b), .. } = &ast.items[0].kind else {
            panic!("fn item");
        };
        let Node::Match { scrut, arms } = &b.nodes[0] else {
            panic!("match node, got {:?}", b.nodes[0]);
        };
        assert_eq!(scrut.iter().filter_map(Tok::ident).count(), 1);
        assert_eq!(arms.len(), 3);
        assert!(arms[1].pat.iter().any(|t| t.ident() == Some("if")));
    }

    #[test]
    fn impl_blocks_expose_methods() {
        let ast = parse_src("impl Foo { fn m(&self) { body(); } }\nstruct Bar;");
        let ItemKind::Container { items, .. } = &ast.items[0].kind else {
            panic!("container, got {:?}", ast.items[0].kind);
        };
        assert!(matches!(&items[0].kind, ItemKind::Fn { name, .. } if name == "m"));
    }

    #[test]
    fn const_values_are_captured() {
        let ast = parse_src("const TAG: u64 = 1 << 48;\nstatic N: usize = 4;");
        let ItemKind::Const { name, value, .. } = &ast.items[0].kind else {
            panic!("const");
        };
        assert_eq!(name, "TAG");
        // `1 << 48`: Int, Punct('<'), Punct('<'), Int.
        assert_eq!(value.len(), 4);
    }

    #[test]
    fn nested_fn_and_local_use_are_items() {
        let ast = parse_src("fn outer() { use std::time::Instant as C; fn inner() {} let x = 1; }");
        let ItemKind::Fn { body: Some(b), .. } = &ast.items[0].kind else {
            panic!("fn item");
        };
        let n_items = b
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Item(_)))
            .count();
        assert_eq!(n_items, 2);
        assert_eq!(ast.aliases()["C"].path.join("::"), "std::time::Instant");
    }

    #[test]
    fn struct_literal_braces_do_not_derail_parsing() {
        let ast = parse_src("fn f() { let p = Point { x: 1, y: 2 }; after(); }");
        let ItemKind::Fn { body: Some(b), .. } = &ast.items[0].kind else {
            panic!("fn item");
        };
        // The literal's braces become a nested Block; `after()` must
        // still be reachable in a following leaf.
        let found = b.nodes.iter().any(
            |n| matches!(n, Node::Leaf(toks) if toks.iter().any(|t| t.ident() == Some("after"))),
        );
        assert!(found, "{:?}", b.nodes);
    }

    #[test]
    fn loop_heads_are_captured() {
        let ast = parse_src("fn f(p: usize) { for k in 0..p { step(k); } loop { break; } }");
        let ItemKind::Fn { body: Some(b), .. } = &ast.items[0].kind else {
            panic!("fn item");
        };
        let Node::Loop { head, .. } = &b.nodes[0] else {
            panic!("for node");
        };
        assert!(head.iter().any(|t| t.ident() == Some("p")));
        assert!(matches!(&b.nodes[1], Node::Loop { head, .. } if head.is_empty()));
    }
}
