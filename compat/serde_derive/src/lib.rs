//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against
//! the stand-in `serde` crate's traits, emitting exactly one method per
//! trait: the streaming binary codec's `ser_bin`/`de_bin` (see
//! `serde::bin`). With no access to `syn`/`quote`, the item is parsed
//! directly from the raw `proc_macro::TokenStream` and the impl is
//! emitted as formatted source text. Supported shapes are exactly what
//! this workspace uses: unit / tuple / named structs and enums whose
//! variants are unit, tuple, or struct-like — all without generics. The
//! format is positional, so every field is always written.
//!
//! One attribute is recognized: `#[serde(max_len = EXPR)]` on a named
//! `Vec<T>` field, `EXPR` a `usize`. The encoding is unchanged; the
//! decoder rejects a length prefix above `EXPR` before reserving
//! anything, then decodes through `T::de_bin_elems`, so the codec's
//! reservation cap still applies below the bound:
//!
//! ```
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Ids {
//!     #[serde(max_len = 4)]
//!     ids: Vec<u64>,
//! }
//! ```
//!
//! Any other `#[serde(...)]` — another key, or `max_len` anywhere but a
//! named field — is a compile error, never silently ignored:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Ids {
//!     #[serde(rename = "other")]
//!     ids: Vec<u64>,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Ids(#[serde(max_len = 4)] Vec<u64>);
//! ```
//!
//! Wire shape (schema-driven, no names — see `serde::bin`):
//! - unit struct       → one `0x00` byte (never zero bytes: sequence
//!   decoding bounds element counts by the remaining input, which
//!   requires every element to cost at least one byte)
//! - struct (other)    → fields streamed in declaration order
//! - enum variant      → varint of the variant's declaration index,
//!   then its fields in order

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A named field, with the bound its `#[serde(max_len = EXPR)]`
/// declares (the `EXPR` source text).
struct Field {
    name: String,
    max_len: Option<String>,
}

/// The fields of a struct or an enum variant.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    kind: Kind,
}

/// Derives `serde::Serialize` for the annotated item.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize` for the annotated item.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Input) -> String) -> TokenStream {
    match parse_input(input) {
        Ok(item) => gen(&item)
            .parse()
            .unwrap_or_else(|e| error(&format!("serde_derive emitted invalid code: {e}"))),
        Err(msg) => error(&msg),
    }
}

fn error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    // Outer attributes and visibility before the item keyword.
    attrs(&tokens, &mut i, false)?;
    skip_vis(&tokens, &mut i);

    let item_kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found {other:?}")),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde stand-in derive does not support generics (on `{name}`)"
            ));
        }
    }

    let kind = match (item_kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Kind::Struct(Fields::Unit),
        ("struct", Some(TokenTree::Group(g))) if has_fields(g) => Kind::Struct(parse_fields(g)?),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Kind::Enum(parse_variants(g.stream())?)
        }
        (other, body) => return Err(format!("cannot derive for `{other}` with body {body:?}")),
    };

    Ok(Input { name, kind })
}

/// Skips the attributes at `tokens[*i..]`, returning the bound of a
/// `#[serde(max_len = EXPR)]` among them. Any other `serde` attribute
/// is an error, and so is `max_len` twice or off a named field.
fn attrs(tokens: &[TokenTree], i: &mut usize, named_field: bool) -> Result<Option<String>, String> {
    let mut max_len = None;
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(attr))) =
        (tokens.get(*i), tokens.get(*i + 1))
    {
        if p.as_char() != '#' {
            break;
        }
        *i += 2;
        let attr: Vec<TokenTree> = attr.stream().into_iter().collect();
        if !matches!(attr.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue; // doc comments, lints, other derives' attributes
        }
        match max_len_expr(&attr) {
            Some(expr) if named_field && max_len.is_none() => max_len = Some(expr),
            _ => {
                let attr: TokenStream = attr.into_iter().collect();
                return Err(format!(
                    "unsupported `#[{attr}]`: the one attribute is `#[serde(max_len = EXPR)]`, \
                     once on a named field"
                ));
            }
        }
    }
    Ok(max_len)
}

/// The `EXPR` of a `serde(max_len = EXPR)` attribute body.
fn max_len_expr(attr: &[TokenTree]) -> Option<String> {
    let [_, TokenTree::Group(args)] = attr else {
        return None;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    match args.as_slice() {
        [TokenTree::Ident(key), TokenTree::Punct(eq), expr @ ..]
            if key.to_string() == "max_len"
                && eq.as_char() == '='
                && !expr.is_empty()
                && !expr.iter().any(|t| is_punct(t, ',')) =>
        {
            Some(expr.iter().cloned().collect::<TokenStream>().to_string())
        }
        _ => None,
    }
}

fn is_punct(tok: &TokenTree, c: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == c)
}

/// Skips a visibility (`pub`, `pub(crate)`, …) at `tokens[*i]`.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Skips a field's type and the comma after it, tracking `<`/`>` depth
/// so generic arguments don't end the field.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        *i += 1;
        if is_punct(tok, '<') {
            angle_depth += 1;
        } else if is_punct(tok, '>') {
            angle_depth -= 1;
        } else if is_punct(tok, ',') && angle_depth == 0 {
            break;
        }
    }
}

/// Whether `body` is a `(…)` or `{…}` field list.
fn has_fields(body: &proc_macro::Group) -> bool {
    matches!(body.delimiter(), Delimiter::Parenthesis | Delimiter::Brace)
}

/// The fields of a `(…)` or `{…}` body.
fn parse_fields(body: &proc_macro::Group) -> Result<Fields, String> {
    let tokens: Vec<TokenTree> = body.stream().into_iter().collect();
    let named = body.delimiter() == Delimiter::Brace;
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let max_len = attrs(&tokens, &mut i, named)?;
        skip_vis(&tokens, &mut i);
        let mut name = String::new();
        if named {
            name = match tokens.get(i) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => return Err(format!("expected field name, found {other:?}")),
            };
            if !tokens.get(i + 1).is_some_and(|t| is_punct(t, ':')) {
                return Err(format!("expected `:` after `{name}`"));
            }
            i += 2;
        }
        skip_type(&tokens, &mut i);
        fields.push(Field { name, max_len });
    }
    Ok(if named {
        Fields::Named(fields)
    } else {
        Fields::Tuple(fields.len())
    })
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        attrs(&tokens, &mut i, false)?;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break, // trailing comma
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if has_fields(g) => {
                i += 1;
                parse_fields(g)?
            }
            _ => Fields::Unit,
        };
        // Skip a possible discriminant, up to the separating comma.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if is_punct(tok, ',') {
                break;
            }
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

impl Fields {
    fn len(&self) -> usize {
        match self {
            Fields::Unit => 0,
            Fields::Tuple(n) => *n,
            Fields::Named(fields) => fields.len(),
        }
    }

    /// Field `i`'s name, or its index in a tuple.
    fn member(&self, i: usize) -> String {
        match self {
            Fields::Named(fields) => fields[i].name.clone(),
            _ => i.to_string(),
        }
    }

    /// The pattern binding the fields, in order, to `f0`, `f1`, ….
    fn pattern(&self) -> String {
        let binds: Vec<String> = (0..self.len())
            .map(|i| match self {
                Fields::Named(fields) => format!("{}: f{i}", fields[i].name),
                _ => format!("f{i}"),
            })
            .collect();
        let binds = binds.join(", ");
        match self {
            Fields::Unit => String::new(),
            Fields::Tuple(_) => format!("({binds})"),
            Fields::Named(_) => format!(" {{ {binds} }}"),
        }
    }

    /// Streams the fields, in declaration order, each read from
    /// `place(i)`: `&self.a` in a struct, the [`Fields::pattern`]
    /// binding in an enum variant.
    fn writes(&self, place: impl Fn(usize) -> String) -> String {
        (0..self.len())
            .map(|i| format!("::serde::Serialize::ser_bin({}, out);\n", place(i)))
            .collect()
    }

    /// The constructor after the struct or variant path: the exact
    /// inverse of [`Fields::writes`].
    fn reads(&self) -> String {
        match self {
            Fields::Unit => String::new(),
            Fields::Tuple(n) => {
                let reads = vec!["::serde::Deserialize::de_bin(r)?"; *n];
                format!("({})", reads.join(", "))
            }
            Fields::Named(fields) => {
                format!(" {{\n{}}}", fields.iter().map(de_field).collect::<String>())
            }
        }
    }
}

/// One field initializer of a derived `de_bin`. A `max_len` field reads
/// its length prefix, fails above the bound before reserving anything,
/// and decodes the elements through `de_bin_elems`.
fn de_field(field: &Field) -> String {
    let name = &field.name;
    match &field.max_len {
        None => format!("{name}: ::serde::Deserialize::de_bin(r)?,\n"),
        Some(max_len) => format!(
            "{name}: {{\n\
             let len = ::serde::bin::Reader::len(r)?;\n\
             let max_len: usize = {max_len};\n\
             if len > max_len {{\n\
             return Err(::serde::Error::custom(\"`{name}` is longer than its max_len\"));\n\
             }}\n\
             ::serde::Deserialize::de_bin_elems(r, len)?\n\
             }},\n"
        ),
    }
}

/// The derived `ser_bin`: fields streamed in declaration order; enums
/// prefixed with their variant's declaration index as a varint.
fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        // One marker byte, never zero bytes: `Vec<UnitLike>` must keep
        // the "each element costs ≥ 1 byte" invariant sequence
        // decoding relies on.
        Kind::Struct(Fields::Unit) => "out.push(0u8);".to_string(),
        Kind::Struct(fields) => fields.writes(|i| format!("&self.{}", fields.member(i))),
        Kind::Enum(variants) => {
            let arms: String = variants
                .iter()
                .enumerate()
                .map(|(idx, v)| {
                    format!(
                        "{name}::{}{} => {{\n\
                         ::serde::bin::write_varint({idx}u64, out);\n{}}}\n",
                        v.name,
                        v.fields.pattern(),
                        v.fields.writes(|i| format!("f{i}"))
                    )
                })
                .collect();
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn ser_bin(&self, out: &mut ::std::vec::Vec<u8>) {{\n{body}\n}}\n\
         }}"
    )
}

/// The derived `de_bin`: the exact inverse of [`gen_serialize`] — fields
/// in declaration order, enums selected by varint declaration index
/// (unknown indexes fail closed).
fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Fields::Unit) => format!(
            "match ::serde::bin::Reader::byte(r)? {{\n\
             0u8 => Ok({name}),\n\
             _ => Err(::serde::Error::custom(\"invalid unit-struct byte for {name}\")),\n\
             }}"
        ),
        Kind::Struct(fields) => format!("Ok({name}{})", fields.reads()),
        Kind::Enum(variants) => {
            let arms: String = variants
                .iter()
                .enumerate()
                .map(|(idx, v)| {
                    format!("{idx}u64 => Ok({name}::{}{}),\n", v.name, v.fields.reads())
                })
                .collect();
            format!(
                "match ::serde::bin::Reader::varint(r)? {{\n\
                 {arms}\
                 _ => Err(::serde::Error::custom(\"unknown {name} variant index\")),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn de_bin(r: &mut ::serde::bin::Reader<'_>) \
             -> ::core::result::Result<Self, ::serde::Error> {{\n\
             {body}\n}}\n\
         }}"
    )
}
