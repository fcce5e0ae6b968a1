//! Pretty-printer for SIR.
//!
//! Renders AST back to canonical source. The invariant (checked by the
//! property tests in `tests/prop.rs`) is a fixed point through the
//! parser: `parse(print(ast))` equals `ast` up to spans and statement
//! ids. Corpus tooling uses it to render patched modules and the oracle
//! uses it in diagnostics.
//!
//! The canonical text is produced by the `write_*` writers, generic over
//! any [`fmt::Write`] sink. The `print_*` functions collect it into a
//! `String`; fingerprints and cache keys stream it straight into a
//! [`lisa_util::Fnv1a`] hasher instead, so hashing a program never
//! materialises its text.

use std::fmt::{self, Write};

use crate::ast::*;

/// Render a whole module.
pub fn print_module(m: &Module) -> String {
    render(|out| write_module(m, out))
}

/// Render a struct declaration.
pub fn print_struct(s: &StructDecl) -> String {
    render(|out| write_struct(s, out))
}

/// Render a function declaration.
pub fn print_fn(f: &FnDecl) -> String {
    render(|out| write_fn(f, out))
}

/// Render an expression with minimal parentheses.
pub fn print_expr(e: &Expr) -> String {
    render(|out| write_expr(e, out))
}

fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    write(&mut out).expect("writing to a String cannot fail");
    out
}

fn write_module<W: Write>(m: &Module, out: &mut W) -> fmt::Result {
    for s in &m.structs {
        write_struct(s, out)?;
        out.write_char('\n')?;
    }
    for g in &m.globals {
        writeln!(out, "global {}: {};", g.name, g.ty)?;
    }
    if !m.globals.is_empty() {
        out.write_char('\n')?;
    }
    for (i, f) in m.functions.iter().enumerate() {
        if i > 0 {
            out.write_char('\n')?;
        }
        write_fn(f, out)?;
    }
    Ok(())
}

/// Write `items` separated by `", "`.
fn comma_sep<W: Write, T>(
    items: &[T],
    out: &mut W,
    mut each: impl FnMut(&T, &mut W) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        each(item, out)?;
    }
    Ok(())
}

/// Write a struct declaration (the text of [`print_struct`]).
pub(crate) fn write_struct<W: Write>(s: &StructDecl, out: &mut W) -> fmt::Result {
    write!(out, "struct {} {{ ", s.name)?;
    comma_sep(&s.fields, out, |(n, t), out| write!(out, "{n}: {t}"))?;
    out.write_str(" }\n")
}

/// Write a function declaration (the text of [`print_fn`]).
pub fn write_fn<W: Write>(f: &FnDecl, out: &mut W) -> fmt::Result {
    write!(out, "fn {}(", f.name)?;
    comma_sep(&f.params, out, |(n, t), out| write!(out, "{n}: {t}"))?;
    out.write_char(')')?;
    if f.ret != Type::Unit {
        write!(out, " -> {}", f.ret)?;
    }
    out.write_str(" {\n")?;
    for s in &f.body {
        write_stmt(s, 1, out)?;
    }
    out.write_str("}\n")
}

fn indent<W: Write>(depth: usize, out: &mut W) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("    ")?;
    }
    Ok(())
}

fn write_block<W: Write>(body: &[Stmt], depth: usize, out: &mut W) -> fmt::Result {
    out.write_str("{\n")?;
    for s in body {
        write_stmt(s, depth + 1, out)?;
    }
    indent(depth, out)?;
    out.write_char('}')
}

fn write_stmt<W: Write>(s: &Stmt, depth: usize, out: &mut W) -> fmt::Result {
    indent(depth, out)?;
    match &s.kind {
        StmtKind::Let { name, ty, init } => {
            match ty {
                Some(t) => write!(out, "let {name}: {t} = ")?,
                None => write!(out, "let {name} = ")?,
            }
            write_expr(init, out)?;
            out.write_str(";\n")
        }
        StmtKind::Assign { target, value } => {
            match target {
                LValue::Var(v) => out.write_str(v)?,
                LValue::Field(obj, field) => {
                    write_expr(obj, out)?;
                    write!(out, ".{field}")?;
                }
            }
            out.write_str(" = ")?;
            write_expr(value, out)?;
            out.write_str(";\n")
        }
        StmtKind::If { cond, then_body, else_body } => {
            out.write_str("if (")?;
            write_expr(cond, out)?;
            out.write_str(") ")?;
            write_block(then_body, depth, out)?;
            if !else_body.is_empty() {
                out.write_str(" else ")?;
                // `else if` chains render flat.
                if else_body.len() == 1 {
                    if let StmtKind::If { .. } = &else_body[0].kind {
                        return write_stmt(&else_body[0], 0, out);
                    }
                }
                write_block(else_body, depth, out)?;
            }
            out.write_char('\n')
        }
        StmtKind::While { cond, body } => {
            out.write_str("while (")?;
            write_expr(cond, out)?;
            out.write_str(") ")?;
            write_block(body, depth, out)?;
            out.write_char('\n')
        }
        StmtKind::For { var, iter, body } => {
            write!(out, "for {var} in ")?;
            write_expr(iter, out)?;
            out.write_char(' ')?;
            write_block(body, depth, out)?;
            out.write_char('\n')
        }
        StmtKind::Return(None) => out.write_str("return;\n"),
        StmtKind::Return(Some(e)) => {
            out.write_str("return ")?;
            write_expr(e, out)?;
            out.write_str(";\n")
        }
        StmtKind::Assert { cond, message } => {
            out.write_str("assert(")?;
            write_expr(cond, out)?;
            match message {
                Some(m) => writeln!(out, ", {m:?});"),
                None => out.write_str(");\n"),
            }
        }
        StmtKind::Sync { lock, body } => {
            write!(out, "sync ({lock}) ")?;
            write_block(body, depth, out)?;
            out.write_char('\n')
        }
        StmtKind::Throw(m) => writeln!(out, "throw {m:?};"),
        StmtKind::Expr(e) => {
            write_expr(e, out)?;
            out.write_str(";\n")
        }
    }
}

fn prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Binary(BinOp::Or, _, _) => 1,
        ExprKind::Binary(BinOp::And, _, _) => 2,
        ExprKind::Binary(
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            _,
            _,
        ) => 3,
        ExprKind::Binary(BinOp::Add | BinOp::Sub, _, _) => 4,
        ExprKind::Binary(BinOp::Mul | BinOp::Div | BinOp::Rem, _, _) => 5,
        ExprKind::Unary(_, _) => 6,
        _ => 7,
    }
}

/// Write an expression with minimal parentheses.
fn write_expr<W: Write>(e: &Expr, out: &mut W) -> fmt::Result {
    fn child<W: Write>(e: &Expr, parent: u8, right_assoc_guard: bool, out: &mut W) -> fmt::Result {
        let p = prec(e);
        if p < parent || (right_assoc_guard && p == parent) {
            out.write_char('(')?;
            write_expr(e, out)?;
            out.write_char(')')
        } else {
            write_expr(e, out)
        }
    }
    match &e.kind {
        ExprKind::Int(v) => write!(out, "{v}"),
        ExprKind::Bool(b) => write!(out, "{b}"),
        ExprKind::Str(s) => write!(out, "{s:?}"),
        ExprKind::Null => out.write_str("null"),
        ExprKind::Var(v) => out.write_str(v),
        ExprKind::Field(obj, field) => {
            child(obj, 7, false, out)?;
            write!(out, ".{field}")
        }
        ExprKind::MethodCall(recv, name, args) => {
            child(recv, 7, false, out)?;
            write!(out, ".{name}(")?;
            comma_sep(args, out, write_expr)?;
            out.write_char(')')
        }
        ExprKind::Call(name, args) => {
            write!(out, "{name}(")?;
            comma_sep(args, out, write_expr)?;
            out.write_char(')')
        }
        ExprKind::New(name, fields) => {
            if fields.is_empty() {
                write!(out, "new {name} {{ }}")
            } else {
                write!(out, "new {name} {{ ")?;
                comma_sep(fields, out, |(n, v), out| {
                    write!(out, "{n}: ")?;
                    write_expr(v, out)
                })?;
                out.write_str(" }")
            }
        }
        ExprKind::Unary(op, inner) => {
            out.write_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            })?;
            child(inner, 6, false, out)
        }
        ExprKind::Binary(op, l, r) => {
            let p = prec(e);
            // Comparisons are non-associative in the grammar; arithmetic
            // and logical chains parse left-associative, so the right
            // child needs parens at equal precedence.
            child(l, p, false, out)?;
            write!(out, " {op} ")?;
            child(r, p, true, out)
        }
        ExprKind::Index(list, idx) => {
            child(list, 7, false, out)?;
            out.write_char('[')?;
            write_expr(idx, out)?;
            out.write_char(']')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    /// Strip spans/ids so printed-and-reparsed modules compare equal.
    fn normalize(m: &Module) -> String {
        format!("{:?}", (&m.structs.iter().map(|s| (&s.name, &s.fields)).collect::<Vec<_>>(),
                          &m.globals.iter().map(|g| (&g.name, &g.ty)).collect::<Vec<_>>(),
                          &m.functions.iter().map(print_fn).collect::<Vec<_>>()))
    }

    fn roundtrip(src: &str) {
        let m1 = parse_module("t", src).expect("parse original");
        let printed = print_module(&m1);
        let m2 = parse_module("t", &printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(normalize(&m1), normalize(&m2), "--- printed ---\n{printed}");
    }

    #[test]
    fn roundtrips_the_session_module() {
        roundtrip(
            "struct Session { id: int, closing: bool, ttl: int }\n\
             global sessions: map<int, Session>;\n\
             fn touch(sid: int) -> bool {\n\
                 let s: Session = sessions.get(sid);\n\
                 if (s == null || s.closing) { return false; }\n\
                 s.ttl = 30;\n\
                 return true;\n\
             }",
        );
    }

    #[test]
    fn roundtrips_control_flow() {
        roundtrip(
            "fn f(n: int) -> int {\n\
                 let t = 0;\n\
                 while (n > 0) { if (n % 2 == 0) { t = t + n; } else if (n > 10) { t = t - 1; } else { t = 0; } n = n - 1; }\n\
                 for x in mk() { t = t + x; }\n\
                 sync (l) { blocking_io(\"x\"); }\n\
                 assert(t >= 0, \"non-negative\");\n\
                 if (t == 0) { throw \"zero\"; }\n\
                 return t;\n\
             }\n\
             global tmp: list<int>;\n\
             fn mk() -> list<int> { return tmp; }",
        );
    }

    #[test]
    fn precedence_needs_no_spurious_parens() {
        let m = parse_module("t", "fn f(a: int, b: int, c: int) -> int { return a + b * c; }")
            .expect("parse");
        let printed = print_fn(&m.functions[0]);
        assert!(printed.contains("return a + b * c;"), "{printed}");
    }

    #[test]
    fn parens_preserved_where_needed() {
        roundtrip("fn f(a: int, b: int, c: int) -> int { return (a + b) * c; }");
        roundtrip("fn g(a: bool, b: bool, c: bool) -> bool { return (a || b) && c; }");
        roundtrip("fn h(a: int, b: int, c: int) -> int { return a - (b - c); }");
        roundtrip("fn i(a: bool) -> bool { return !(a && true); }");
    }

    #[test]
    fn roundtrips_new_and_collections() {
        roundtrip(
            "struct P { x: int, tags: list<str> }\n\
             global ps: map<int, P>;\n\
             fn f() -> int {\n\
                 let p = new P { x: 1 };\n\
                 ps.put(1, p);\n\
                 p.tags.push(\"a\");\n\
                 return p.tags.len() + ps.size();\n\
             }",
        );
    }

    #[test]
    fn string_escapes_survive() {
        roundtrip("fn f() { log(\"a\\nb\\\"c\\\"\"); }");
    }

    #[test]
    fn whole_corpus_roundtrips() {
        for case in lisa_corpus_smoke() {
            roundtrip(&case);
        }
    }

    /// A few corpus-shaped sources (the full corpus roundtrip lives in
    /// the corpus crate's tests to avoid a dependency cycle).
    fn lisa_corpus_smoke() -> Vec<String> {
        vec![
            "struct Snapshot { id: int, expires_at: int }\n\
             global snapshots: map<int, Snapshot>;\n\
             fn serve(snap: Snapshot, req_time: int) {}\n\
             fn restore(id: int, req_time: int) {\n\
                 let snap: Snapshot = snapshots.get(id);\n\
                 if (snap == null || snap.expires_at < req_time) { log(\"rejected\"); return; }\n\
                 serve(snap, req_time);\n\
             }"
            .to_string(),
        ]
    }
}
