//! The FAIL language: lexer, AST, parser, compiler and code generator.
//!
//! ## Grammar (ASCII rendition of the paper's syntax)
//!
//! ```text
//! scenario   := (param | daemon | instance | group)*
//! param      := "param" IDENT "=" expr ";"
//! daemon     := "daemon" IDENT "{" decl* node+ "}"
//! decl       := "int" IDENT "=" expr ";"
//!             | "probe" IDENT ";"        // host-updated application state
//! node       := "node" INT ":" item*
//! item       := "always" "int" IDENT "=" expr ";"
//!             | "timer" IDENT "=" expr ";"
//!             | transition
//! transition := guard ("&&" expr)* "->" action ("," action)* ";"
//! guard      := "?" IDENT | "onload" | "onexit" | "onerror"
//!             | "before" "(" IDENT ")"
//!             | "onchange" "(" IDENT ")"                // a declared probe
//!             | IDENT                                   // a declared timer
//! action     := "!" IDENT "(" dest ")" | "goto" INT
//!             | "halt" | "stop" | "continue"
//!             | IDENT "=" expr
//! dest       := IDENT | IDENT "[" expr "]" | "FAIL_SENDER"
//! expr       := arithmetic/comparison over ints, vars, params,
//!               "FAIL_RANDOM" "(" expr "," expr ")"
//! instance   := "instance" IDENT "=" IDENT ";"           // deployment sugar
//! group      := "group" IDENT "[" INT "]" "=" IDENT ";"  // deployment sugar
//! ```
//!
//! Differences from the paper's listings (which were typeset, not machine
//! syntax): `time g timer = X` is written `timer g_timer = X;`, free
//! meta-variables (`X`, `N`) must be declared with `param`, and the
//! node-to-machine association (done by FCI configuration files) is either
//! the `instance` / `group` sugar or the programmatic
//! [`crate::Deployment`] API.
//!
//! One extension beyond the paper's shipped tool: `probe` declarations and
//! `onchange(...)` guards implement its Sec. 6 *planned* feature — reading
//! internal variables of the strained application — which enables the
//! delay-after-checkpoint measurement the authors proposed (see
//! `failmpi-experiments::figures::delay`).

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod pretty;
