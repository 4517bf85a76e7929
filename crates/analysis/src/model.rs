//! A lightweight dataflow model recovered from the token stream.
//!
//! The PR 8 checks were per-line: each looked at a window of tokens and
//! never needed to know *which function* it was in or *which locks were
//! held*. The concurrency and panic invariants do: "no blocking call on
//! the reactor thread" is a property of functions, "queue is never held
//! while the journal is taken" is a property of guard liveness, and
//! "no panic on a request path" is a property of the call graph. This
//! module recovers exactly that much structure — and deliberately no
//! more — from the existing lexer:
//!
//! * **Function and impl spans.** Every `fn` item with a body, its
//!   1-based line, and the `impl` type it lives in. Closures belong to
//!   their enclosing function (which is the attribution the checks
//!   want: the executor worker closure *is* `Executor::new`'s code).
//! * **Brace-scoped guard liveness.** Two shapes hold a lock guard;
//!   both need a no-argument `.lock()`/`.try_lock()`/`.read()`/
//!   `.write()` call at the top of the expression, not inside a call's
//!   arguments or a block:
//!   - a `let` whose initializer ends in that call, possibly through
//!     `.unwrap()`/`.expect(…)`/`.map_err(…)`/`?` or a let-else tail
//!     (`let Ok(q) = m.lock() else { … };`). The guard is live from the
//!     statement's `;` until `drop(name)` or its enclosing block
//!     closes. A chain that continues (`let n = m.lock().unwrap().len();`)
//!     is a statement-scoped temporary, not a guard;
//!   - the scrutinee of an `if let`, `while let` or `match`, however
//!     the chain continues (`if let Some(w) = j.lock()?.as_mut() {`).
//!     Edition 2021 drops scrutinee temporaries only at the end of the
//!     whole statement, so the guard is live from the block's `{` until
//!     that block closes, and for `if let` through every `else` block
//!     too.
//!
//!   Guards bound through an alias (`let (lock, cvar) = &*self.inner;`)
//!   resolve to the aliased field, so the lock's *name* survives the
//!   destructuring idiom the workspace uses for `Mutex`+`Condvar`
//!   pairs.
//! * **An event stream.** Lock acquisitions (with the set of locks held
//!   at that point), calls (name-based, no type inference), durable-I/O
//!   calls, and panic-capable sites (`unwrap`, `expect`, `panic!`,
//!   `unreachable!`, slice indexing), each attributed to its function.
//!
//! `#[cfg(test)]` items are excluded entirely: every model-based check
//! binds the production binary, and tests routinely hold locks or
//! unwrap to stage scenarios.
//!
//! Name-based call resolution is deliberately *lite*: a call `x.f(…)`
//! resolves to every function named `f` in the scanned file set. That
//! over-approximates (good for an auditor) except where a std method
//! name shadows a workspace function (`insert`, `take`, `new`, …) —
//! those are listed in [`STD_SHADOWED`] and never followed, otherwise
//! `q.states.insert(…)` under the queue mutex would "call"
//! `DatasetStore::insert` and invent a queue → store edge.

use crate::lexer::{Tok, TokKind};
use crate::SourceFile;

/// No-argument methods that acquire a `Mutex`/`RwLock` guard. The
/// no-argument shape distinguishes them from `io::Read::read(&mut buf)`
/// and `io::Write::write(&buf)`.
pub const LOCK_METHODS: [&str; 4] = ["lock", "try_lock", "read", "write"];

/// Durable-write entry points: a call to any of these is disk I/O with
/// an fsync in its contract (std's `sync_*`, and the journal's and the
/// store's own fsyncing writers).
pub const IO_METHODS: [&str; 7] =
    ["sync_all", "sync_data", "fsync", "persist", "append", "append_finish", "rewrite"];

/// Method names that are both std-library vocabulary and workspace
/// function names. Name-based call resolution never follows these:
/// nearly every call site is the std method, and following them would
/// wire `HashMap::insert` to `DatasetStore::insert` (and similar) —
/// inventing call edges that poison both the lock graph and the
/// panic-path reachable set. Their *direct* effects are still seen:
/// lock acquisitions inside them fire their own events.
pub const STD_SHADOWED: [&str; 22] = [
    "append", "clear", "clone", "count", "default", "drop", "get", "get_mut", "insert", "is_empty",
    "iter", "len", "lock", "new", "next", "pop", "push", "read", "recv", "send", "take", "write",
];

/// Rust keywords, used to tell `if (…)` from a call and `&mut [u8]`
/// from an index expression.
const KEYWORDS: [&str; 35] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "where",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
        || s == "self"
        || s == "Self"
        || s == "unsafe"
        || s == "use"
        || s == "while"
        || s == "yield"
}

/// One function item with a body.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// Type name of the enclosing `impl` block, if any (`impl Foo` and
    /// `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// Line of the function's name token.
    pub line: u32,
}

/// What happened at one point in a function body.
#[derive(Debug)]
pub enum EventKind {
    /// A no-argument lock-method call; `lock` is the resolved lock name
    /// (receiver field through aliases, or the impl type for
    /// `self.lock()`-style helpers).
    Acquire { lock: String },
    /// A call, by bare callee name (last path segment).
    Call { callee: String },
    /// A durable-write call ([`IO_METHODS`]).
    Io { method: String },
    /// A panic-capable site; `what` is a display label like
    /// `` `unwrap()` ``.
    Panic { what: String },
}

/// One event, attributed to the innermost enclosing function (if any)
/// with the lock names live at that point.
#[derive(Debug)]
pub struct Event {
    pub kind: EventKind,
    pub line: u32,
    /// Index into [`FileModel::fns`]; `None` for top-level code.
    pub fn_idx: Option<usize>,
    /// The lock guards live at this event, by lock name then line.
    pub held: Vec<Held>,
}

/// A live lock guard, as [`Event::held`] reports it.
#[derive(Debug, Clone)]
pub struct Held {
    /// Resolved lock name.
    pub lock: String,
    /// The `let` binding (`drop(name)` kills it); `None` for a
    /// scrutinee temporary.
    pub binding: Option<String>,
    /// Line of the binding, or of the scrutinee's lock call.
    pub line: u32,
}

/// The recovered model of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub fns: Vec<FnInfo>,
    pub events: Vec<Event>,
}

impl FileModel {
    /// Events belonging to function `fn_idx`, in source order.
    pub fn fn_events(&self, fn_idx: usize) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.fn_idx == Some(fn_idx))
    }
}

/// A tracked guard: live strictly between two code-token indices — from
/// the `let`'s `;` or the scrutinee block's `{` (never during its own
/// initializer) to the `}` that ends its scope.
struct Guard {
    held: Held,
    from: usize,
    until: usize,
}

/// A `let`-introduced alias of a field: `let (lock, cvar) = &*self.inner;`
/// records `lock -> inner` and `cvar -> inner`.
struct Alias {
    name: String,
    target: String,
    depth: i32,
}

/// Builds the model for one file. Test items are excluded.
pub fn build(sf: &SourceFile) -> FileModel {
    let mask = crate::cfg_test_mask(&sf.toks);
    let code: Vec<&Tok> = sf
        .toks
        .iter()
        .zip(mask.iter())
        .filter(|(t, &m)| !t.is_comment() && !m)
        .map(|(t, _)| t)
        .collect();

    let mut model = FileModel::default();
    // `{`-index → name of the impl block that opens there.
    let mut pending_impls: std::collections::BTreeMap<usize, String> = Default::default();
    // `{`-index → fn index whose body opens there.
    let mut pending_fns: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut aliases: Vec<Alias> = Vec::new();
    let mut depth: i32 = 0;

    let resolve_alias = |aliases: &[Alias], name: &str| -> String {
        let mut cur = name.to_string();
        for _ in 0..8 {
            match aliases.iter().rev().find(|a| a.name == cur) {
                Some(a) if a.target != cur => cur = a.target.clone(),
                _ => break,
            }
        }
        cur
    };

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];

        if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending_impls.remove(&i) {
                impl_stack.push((name, depth));
            }
            if let Some(fi) = pending_fns.remove(&i) {
                fn_stack.push((fi, depth));
            }
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            while impl_stack.last().is_some_and(|&(_, d)| d >= depth) {
                impl_stack.pop();
            }
            while fn_stack.last().is_some_and(|&(_, d)| d >= depth) {
                fn_stack.pop();
            }
            depth -= 1;
            guards.retain(|g| g.until > i);
            aliases.retain(|a| a.depth <= depth);
            i += 1;
            continue;
        }

        // ---- item structure ------------------------------------------
        if t.is_ident("impl") && at_item_position(&code, i) {
            if let Some((name, open)) = parse_impl_header(&code, i) {
                pending_impls.insert(open, name);
            }
        }
        if t.is_ident("fn") && code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let name_tok = code[i + 1];
            if let Some(open) = find_block_open(&code, i + 2) {
                let fi = model.fns.len();
                model.fns.push(FnInfo {
                    name: name_tok.text.clone(),
                    impl_type: impl_stack.last().map(|(n, _)| n.clone()),
                    line: name_tok.line,
                });
                pending_fns.insert(open, fi);
            }
        }

        // ---- guard death ---------------------------------------------
        if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = code.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                guards.retain(|g| g.held.binding.as_deref() != Some(name.text.as_str()));
            }
        }

        // ---- guards: `let` bindings (and aliases), scrutinees --------
        if t.is_ident("let") {
            if let Some(alias) = parse_alias(&code, i, depth, &|n| resolve_alias(&aliases, n)) {
                aliases.extend(alias);
            }
        }
        let lock_of = |dot: usize| {
            let impl_type = impl_stack.last().map(|(n, _)| n.as_str());
            lock_name(&code, dot, &|n| resolve_alias(&aliases, n), impl_type)
        };
        guards.extend(if t.is_ident("let") {
            parse_guard_let(&code, i, &lock_of)
        } else {
            parse_scrutinee_guard(&code, i, &lock_of)
        });

        let fn_idx = fn_stack.last().map(|&(fi, _)| fi);
        let held = |guards: &[Guard], upto: usize| -> Vec<Held> {
            let mut h: Vec<Held> =
                guards.iter().filter(|g| g.from < upto).map(|g| g.held.clone()).collect();
            h.sort_by(|a, b| (&a.lock, a.line).cmp(&(&b.lock, b.line)));
            h
        };

        // ---- lock acquisition (any no-argument lock-method call) -----
        if is_lock_call(&code, i) {
            model.events.push(Event {
                kind: EventKind::Acquire { lock: lock_of(i) },
                line: code[i + 1].line,
                fn_idx,
                held: held(&guards, i),
            });
        }

        // ---- durable I/O ---------------------------------------------
        if t.is_punct('.')
            && code.get(i + 1).is_some_and(|n| IO_METHODS.iter().any(|m| n.is_ident(m)))
            && code.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            // `OpenOptions::append(true)` is flag configuration.
            let is_flag = code[i + 1].is_ident("append")
                && code.get(i + 3).is_some_and(|n| n.is_ident("true"));
            if !is_flag {
                model.events.push(Event {
                    kind: EventKind::Io { method: code[i + 1].text.clone() },
                    line: code[i + 1].line,
                    fn_idx,
                    held: held(&guards, i),
                });
            }
        }

        // ---- calls ---------------------------------------------------
        if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > 0 && code[i - 1].is_ident("fn"))
            && !LOCK_METHODS.contains(&t.text.as_str())
        {
            model.events.push(Event {
                kind: EventKind::Call { callee: t.text.clone() },
                line: t.line,
                fn_idx,
                held: held(&guards, i),
            });
        }

        // ---- panic-capable sites -------------------------------------
        if t.is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_ident("unwrap"))
            && code.get(i + 2).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            model.events.push(Event {
                kind: EventKind::Panic { what: "`unwrap()`".to_string() },
                line: code[i + 1].line,
                fn_idx,
                held: held(&guards, i),
            });
        }
        // `.expect("…")` with a string literal — the `Result`/`Option`
        // method. (The JSON parser has its own `expect(b'"')` which is
        // ordinary error handling, hence the literal requirement.)
        if t.is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_ident("expect"))
            && code.get(i + 2).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.kind == TokKind::Str)
        {
            model.events.push(Event {
                kind: EventKind::Panic { what: "`expect()`".to_string() },
                line: code[i + 1].line,
                fn_idx,
                held: held(&guards, i),
            });
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            model.events.push(Event {
                kind: EventKind::Panic { what: format!("`{}!`", t.text) },
                line: t.line,
                fn_idx,
                held: held(&guards, i),
            });
        }
        // Indexing: `expr[…]` can panic on an out-of-bounds index or a
        // non-boundary range. The previous token must be a value — an
        // identifier, `)` or `]` — which excludes array types
        // (`[u8; 2]`), attributes (`#[…]`) and macros (`vec![…]`).
        if t.is_punct('[') && i > 0 {
            let p = code[i - 1];
            let is_value = (p.kind == TokKind::Ident && !is_keyword(&p.text))
                || p.is_punct(')')
                || p.is_punct(']');
            if is_value {
                model.events.push(Event {
                    kind: EventKind::Panic { what: "slice/array index".to_string() },
                    line: t.line,
                    fn_idx,
                    held: held(&guards, i),
                });
            }
        }

        i += 1;
    }
    model
}

/// Is the `impl` at `i` an item (vs. `-> impl Trait` / `x: impl Trait`)?
fn at_item_position(code: &[&Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let p = code[i - 1];
    p.is_punct('}') || p.is_punct(';') || p.is_punct('{') || p.is_punct(']') || p.is_ident("unsafe")
}

/// Parses an `impl` header starting at the `impl` token; returns the
/// implemented type's last path segment and the index of the opening
/// `{`. `impl Trait for Type` records `Type`.
fn parse_impl_header(code: &[&Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    let mut name: Option<String> = None;
    let mut angle = 0i32;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && angle > 0 && !(j > 0 && code[j - 1].is_punct('-')) {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') {
                return name.map(|n| (n, j));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.is_ident("for") {
                name = None; // the type follows; the trait path is discarded
            } else if t.kind == TokKind::Ident && !t.is_ident("where") && !is_keyword(&t.text) {
                name = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Finds the `{` that opens the block after a fn signature, a
/// condition or a scrutinee starting at `j`: the first `{` outside
/// parentheses and brackets. Returns `None` at a `;` first (bodyless
/// `fn f();` in extern blocks and traits).
fn find_block_open(code: &[&Tok], mut j: usize) -> Option<usize> {
    let mut nest = 0i32;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nest -= 1;
        } else if nest == 0 {
            if t.is_punct('{') {
                return Some(j);
            }
            if t.is_punct(';') {
                return None;
            }
        }
        j += 1;
    }
    None
}

/// The index of the `)`/`]`/`}` that closes the group open at `j`
/// (for `j` just past a `{`, that brace's partner), or the end of the
/// code.
fn close_of(code: &[&Tok], j: usize) -> usize {
    let mut nest = 0i32;
    for (k, c) in code.iter().enumerate().skip(j) {
        if c.is_punct('(') || c.is_punct('[') || c.is_punct('{') {
            nest += 1;
        } else if c.is_punct(')') || c.is_punct(']') || c.is_punct('}') {
            if nest == 0 {
                return k;
            }
            nest -= 1;
        }
    }
    code.len()
}

/// Is there a no-argument lock-method call at the `.` at `k`?
fn is_lock_call(code: &[&Tok], k: usize) -> bool {
    code[k].is_punct('.')
        && code.get(k + 1).is_some_and(|n| LOCK_METHODS.iter().any(|l| n.is_ident(l)))
        && code.get(k + 2).is_some_and(|n| n.is_punct('('))
        && code.get(k + 3).is_some_and(|n| n.is_punct(')'))
}

/// The resolved name of the lock taken by the lock call at `dot`: the
/// receiver field (through aliases), or the impl type for
/// `self.lock()`-style helpers.
fn lock_name(
    code: &[&Tok],
    dot: usize,
    resolve: &dyn Fn(&str) -> String,
    impl_type: Option<&str>,
) -> String {
    match receiver_name(code, dot, resolve) {
        Some(n) if n == "self" => impl_type.unwrap_or("self").to_string(),
        Some(n) => n,
        None => "<expr>".to_string(),
    }
}

/// Walks back from the `.` of a method call, collecting the dotted
/// identifier chain; returns the lock's resolved name — the last field
/// segment (`self.journal.lock()` → `journal`), through aliases, or
/// `self` itself for `self.lock()`-style helper calls (the caller maps
/// that to the impl type).
fn receiver_name(code: &[&Tok], dot: usize, resolve: &dyn Fn(&str) -> String) -> Option<String> {
    let mut j = dot;
    let mut last_ident: Option<&Tok> = None;
    let mut first_ident: Option<&Tok> = None;
    // Accept `ident (. ident | :: ident)*` right-to-left.
    while j > 0 {
        let p = code[j - 1];
        if p.kind == TokKind::Ident {
            if last_ident.is_none() {
                last_ident = Some(p);
            }
            first_ident = Some(p);
            j -= 1;
        } else if p.is_punct('.') || p.is_punct(':') {
            // `.` or `::` continues the chain only if an ident follows
            // it on the left.
            let ident_left = j >= 2 && code[j - 2].kind == TokKind::Ident;
            let second_colon = j >= 3 && p.is_punct(':') && code[j - 2].is_punct(':');
            if ident_left || second_colon {
                j -= 1;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    let last = last_ident?;
    if last.is_ident("self") && first_ident.map(|f| f.text.as_str()) == Some("self") {
        return Some("self".to_string());
    }
    Some(resolve(&last.text))
}

/// Recognizes the alias-introducing `let` shapes:
/// `let [mut] A = &[mut][*] CHAIN;`, `let (A, B) = &*CHAIN;`,
/// `let [mut] A = Arc::clone(&CHAIN);`.
fn parse_alias(
    code: &[&Tok],
    i: usize,
    depth: i32,
    resolve: &dyn Fn(&str) -> String,
) -> Option<Vec<Alias>> {
    let mut j = i + 1;
    if code.get(j).is_some_and(|n| n.is_ident("mut")) {
        j += 1;
    }
    // Collect the bound names: one ident, or a tuple of idents.
    let mut names = Vec::new();
    if code.get(j).is_some_and(|n| n.is_punct('(')) {
        j += 1;
        while let Some(t) = code.get(j) {
            if t.kind == TokKind::Ident {
                names.push(t.text.clone());
                j += 1;
            } else if t.is_punct(',') {
                j += 1;
            } else if t.is_punct(')') {
                j += 1;
                break;
            } else {
                return None;
            }
        }
    } else if code.get(j).is_some_and(|n| n.kind == TokKind::Ident && !is_keyword(&n.text)) {
        names.push(code[j].text.clone());
        j += 1;
    } else {
        return None;
    }
    if !code.get(j).is_some_and(|n| n.is_punct('=')) {
        return None;
    }
    j += 1;
    // `Arc::clone(&CHAIN)` unwraps to `&CHAIN`.
    if code.get(j).is_some_and(|n| n.is_ident("Arc"))
        && code.get(j + 1).is_some_and(|n| n.is_punct(':'))
        && code.get(j + 2).is_some_and(|n| n.is_punct(':'))
        && code.get(j + 3).is_some_and(|n| n.is_ident("clone"))
        && code.get(j + 4).is_some_and(|n| n.is_punct('('))
    {
        j += 5;
    }
    if !code.get(j).is_some_and(|n| n.is_punct('&')) {
        return None;
    }
    j += 1;
    while code.get(j).is_some_and(|n| n.is_punct('*') || n.is_ident("mut")) {
        j += 1;
    }
    // CHAIN: ident ((. | ::) ident)* — take the last segment.
    let mut target: Option<String> = None;
    while let Some(t) = code.get(j) {
        if t.kind == TokKind::Ident {
            target = Some(t.text.clone());
            j += 1;
        } else if t.is_punct('.') || t.is_punct(':') {
            j += 1;
        } else {
            break;
        }
    }
    // The initializer must end here (`;` or `)`): anything further is a
    // method call and the binding is not a plain alias.
    if !code.get(j).is_some_and(|n| n.is_punct(';') || n.is_punct(')')) {
        return None;
    }
    let target = target?;
    let target = if target == "self" { return None } else { resolve(&target) };
    Some(names.into_iter().map(|name| Alias { name, target: target.clone(), depth }).collect())
}

/// Recognizes a guard-binding `let`: `let [mut] NAME = …[.lock()]…;` or
/// `let Ok([mut] NAME) = …[.lock()] else { … };` where the lock call is
/// at the top of the initializer expression and the chain ends there
/// (allowing `.unwrap()`, `.expect(…)`, `.ok()`, `.map_err(…)`,
/// `.unwrap_or_else(…)`, `?`, and a let-else tail). A chain that
/// continues (`rx.lock().expect(…).recv()`) is a statement-scoped
/// temporary, not a live guard.
fn parse_guard_let(code: &[&Tok], i: usize, lock_name: &dyn Fn(usize) -> String) -> Option<Guard> {
    let mut j = i + 1;
    // Optional `Ok( … )` pattern wrapper for fallible lock helpers.
    let wrapped = code.get(j).is_some_and(|n| n.is_ident("Ok"))
        && code.get(j + 1).is_some_and(|n| n.is_punct('('));
    if wrapped {
        j += 2;
    }
    if code.get(j).is_some_and(|n| n.is_ident("mut")) {
        j += 1;
    }
    let name_tok = code.get(j).filter(|n| n.kind == TokKind::Ident && !is_keyword(&n.text))?;
    if wrapped {
        if !code.get(j + 1).is_some_and(|n| n.is_punct(')')) {
            return None;
        }
        j += 1;
    }
    if !code.get(j + 1).is_some_and(|n| n.is_punct('=') || n.is_punct(':')) {
        return None;
    }
    // Scan the initializer to its `;`, tracking nesting; find a
    // top-of-expression no-argument lock call.
    let mut k = j + 1;
    let mut nest = 0i32;
    let mut brace_nest = 0i32;
    let mut saw_eq = false;
    let mut lock_at: Option<usize> = None;
    let mut end = code.len();
    while k < code.len() {
        let c = code[k];
        if c.is_punct('(') || c.is_punct('[') || c.is_punct('{') {
            nest += 1;
            if c.is_punct('{') {
                brace_nest += 1;
            }
        } else if c.is_punct(')') || c.is_punct(']') || c.is_punct('}') {
            nest -= 1;
            if c.is_punct('}') {
                brace_nest -= 1;
            }
            if nest < 0 {
                end = k;
                break;
            }
        } else if c.is_punct(';') && nest == 0 {
            end = k;
            break;
        } else if c.is_punct('=') && nest == 0 {
            saw_eq = true;
        } else if saw_eq && brace_nest == 0 && is_lock_call(code, k) {
            lock_at = Some(k);
        }
        k += 1;
    }
    let lock_at = lock_at?;
    // Chain-end check: after `.lock()`, only error-absorbing adapters
    // and `?` may follow before the statement ends; `else` begins a
    // let-else tail, which also ends the chain.
    const CHAIN_TAIL: [&str; 5] = ["unwrap", "expect", "ok", "map_err", "unwrap_or_else"];
    let mut m = lock_at + 4;
    while m < end {
        let c = code[m];
        if c.is_punct('?') {
            m += 1;
        } else if c.is_ident("else") {
            break;
        } else if c.is_punct('.')
            && code.get(m + 1).is_some_and(|n| CHAIN_TAIL.iter().any(|t| n.is_ident(t)))
            && code.get(m + 2).is_some_and(|n| n.is_punct('('))
        {
            m = close_of(code, m + 3) + 1; // past the argument list
        } else {
            return None; // the chain continues: a temporary, not a guard
        }
    }
    let held = Held {
        lock: lock_name(lock_at),
        binding: Some(name_tok.text.clone()),
        line: name_tok.line,
    };
    Some(Guard { held, from: end, until: close_of(code, end + 1) })
}

/// Recognizes a guard held by the scrutinee of the `if let`, `while
/// let` or `match` at `i`: a lock call at the top of the scrutinee
/// (outside parentheses and brackets), whatever follows it in the
/// chain. The guard lives through the statement's block and, for `if
/// let`, through every `else` block after it.
fn parse_scrutinee_guard(
    code: &[&Tok],
    i: usize,
    lock_name: &dyn Fn(usize) -> String,
) -> Option<Guard> {
    let t = code[i];
    let if_let = t.is_ident("if") && code.get(i + 1).is_some_and(|n| n.is_ident("let"));
    let while_let = t.is_ident("while") && code.get(i + 1).is_some_and(|n| n.is_ident("let"));
    if !(if_let || while_let || t.is_ident("match")) {
        return None;
    }
    let open = find_block_open(code, i + 1)?;
    let mut nest = 0i32;
    let mut lock_at = None;
    for k in i + 1..open {
        if code[k].is_punct('(') || code[k].is_punct('[') {
            nest += 1;
        } else if code[k].is_punct(')') || code[k].is_punct(']') {
            nest -= 1;
        } else if nest == 0 && lock_at.is_none() && is_lock_call(code, k) {
            lock_at = Some(k);
        }
    }
    let lock_at = lock_at?;
    let mut until = close_of(code, open + 1);
    while if_let && code.get(until + 1).is_some_and(|n| n.is_ident("else")) {
        until = close_of(code, find_block_open(code, until + 2)? + 1);
    }
    let held = Held { lock: lock_name(lock_at), binding: None, line: code[lock_at + 1].line };
    Some(Guard { held, from: open, until })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn model(src: &str) -> FileModel {
        build(&SourceFile::from_source("t.rs", src))
    }

    fn locks(held: &[Held]) -> Vec<&str> {
        held.iter().map(|h| h.lock.as_str()).collect()
    }

    /// The lock names held at each durable-write event, in order.
    fn held_at_io(src: &str) -> Vec<Vec<String>> {
        model(src)
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Io { .. }))
            .map(|e| e.held.iter().map(|h| h.lock.clone()).collect())
            .collect()
    }

    #[test]
    fn recovers_fns_and_impl_types() {
        let m = model(
            "impl Default for Store { fn default() -> Self { Self::new() } }\n\
             impl Store { fn lock(&self) {} }\n\
             fn free() {}\n\
             extern \"C\" { fn poll(n: i32) -> i32; }",
        );
        let names: Vec<(&str, Option<&str>)> =
            m.fns.iter().map(|f| (f.name.as_str(), f.impl_type.as_deref())).collect();
        assert_eq!(
            names,
            vec![("default", Some("Store")), ("lock", Some("Store")), ("free", None)],
            "bodyless extern fns are skipped"
        );
    }

    #[test]
    fn closure_events_belong_to_the_enclosing_fn() {
        let m = model(
            "impl Executor { fn new(&self) { std::thread::spawn(move || loop {\n\
               let g = rx.lock().unwrap();\n\
             }); } }",
        );
        let acq = m
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .expect("acquire seen");
        assert_eq!(acq.fn_idx, Some(0));
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("Executor"));
    }

    #[test]
    fn guard_liveness_and_aliases() {
        let m = model(
            "fn f(&self) {\n\
               let (lock, cvar) = &*self.inner;\n\
               let journal = self.journal.lock().unwrap();\n\
               let q = lock.lock().unwrap();\n\
               drop(q);\n\
               self.store.pin(h);\n\
             }",
        );
        let acquires: Vec<(&str, Vec<&str>)> = m
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { lock } => Some((lock.as_str(), locks(&e.held))),
                _ => None,
            })
            .collect();
        assert_eq!(acquires.len(), 2);
        assert_eq!(acquires[0].0, "journal");
        assert!(acquires[0].1.is_empty());
        assert_eq!(acquires[1].0, "inner", "alias resolves through the tuple destructuring");
        assert_eq!(acquires[1].1, ["journal"]);
        let pin = m
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { callee } if callee == "pin"))
            .expect("call seen");
        assert_eq!(locks(&pin.held), ["journal"], "q was dropped; journal is still live");
    }

    #[test]
    fn fallible_lock_shapes_still_bind_guards() {
        let m = model(
            "fn f(&self) {\n\
               let j = self.journal.lock().map_err(|_| internal())?;\n\
               let Ok(q) = self.inner.lock() else { return Ok(()) };\n\
               self.file.sync_all().map_err(io_err)?;\n\
             }",
        );
        let io = m.events.iter().find(|e| matches!(e.kind, EventKind::Io { .. })).unwrap();
        assert_eq!(locks(&io.held), ["inner", "journal"], "{:?}", io.held);
        let bindings: Vec<(Option<&str>, u32)> =
            io.held.iter().map(|h| (h.binding.as_deref(), h.line)).collect();
        assert_eq!(bindings, [(Some("q"), 3), (Some("j"), 2)]);
    }

    #[test]
    fn scrutinee_guards_live_through_their_blocks() {
        let held = held_at_io(
            "fn f(&self) {\n\
               if let Some(w) = self.journal.lock().unwrap().as_mut() { w.sync_all(); }\n\
               else if x { self.a.sync_all(); } else { self.b.sync_all(); }\n\
               self.c.sync_all();\n\
               while let Ok(t) = rx.lock() { t.sync_all(); }\n\
               match self.inner.lock() { Ok(q) => q.persist(), Err(_) => {} }\n\
               if self.inner.lock().unwrap().dirty { self.d.sync_all(); }\n\
             }",
        );
        assert_eq!(
            held,
            [
                vec!["journal"],
                vec!["journal"],
                vec!["journal"],
                vec![],
                vec!["rx"],
                vec!["inner"],
                vec![],
            ],
            "an `if` condition drops its temporaries before the block"
        );
        let m =
            model("fn f(&self) {\n  match self.inner.lock() {\n Ok(q) => q.persist(), _ => {} } }");
        let io = m.events.iter().find(|e| matches!(e.kind, EventKind::Io { .. })).unwrap();
        assert_eq!((io.held[0].binding.as_deref(), io.held[0].line), (None, 2));
    }

    #[test]
    fn consumed_temporary_is_not_a_guard() {
        let m = model(
            "fn f(&self) {\n\
               let task = match rx.lock().expect(\"poisoned\").recv() { Ok(t) => t, Err(_) => return };\n\
               let n = m.lock().unwrap().len();\n\
               self.file.sync_all().unwrap();\n\
             }",
        );
        let io = m.events.iter().find(|e| matches!(e.kind, EventKind::Io { .. })).unwrap();
        assert!(io.held.is_empty(), "{:?}", io.held);
    }

    #[test]
    fn self_lock_helper_resolves_to_the_impl_type() {
        let m = model("impl Store { fn count(&self) -> usize { let s = self.lock(); s.n } }");
        let acq = m
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Acquire { lock } => Some(lock.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(acq, "Store");
    }

    #[test]
    fn panic_sites_are_classified() {
        let m = model(
            "fn f(v: &[u8], m: &M) {\n\
               let a = v[0];\n\
               let b = m.get(k).unwrap();\n\
               let c = r.expect(\"boom\");\n\
               self.expect(b'\"');\n\
               let t: [u8; 2] = [0, 1];\n\
               if bad { panic!(\"no\") }\n\
             }",
        );
        let labels: Vec<&str> = m
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Panic { what } => Some(what.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec!["slice/array index", "`unwrap()`", "`expect()`", "`panic!`"]);
    }

    #[test]
    fn cfg_test_items_are_invisible() {
        let m = model("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn live() {}");
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "live");
        assert!(m.events.iter().all(|e| !matches!(e.kind, EventKind::Panic { .. })));
    }
}
