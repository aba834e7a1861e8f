//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against
//! the stand-in `serde` crate's traits, emitting exactly one method per
//! trait: the streaming binary codec's `ser_bin`/`de_bin` (see
//! `serde::bin`). With no access to `syn`/`quote`, the item is parsed
//! directly from the raw `proc_macro::TokenStream` and the impl is
//! emitted as formatted source text. Supported shapes are exactly what
//! this workspace uses: unit / tuple / named structs and enums whose
//! variants are unit, tuple, or struct-like — all without generics. No
//! `#[serde(...)]` attributes are recognized: the format is positional,
//! so every field is always written.
//!
//! Wire shape (schema-driven, no names — see `serde::bin`):
//! - unit struct       → one `0x00` byte (never zero bytes: sequence
//!   decoding bounds element counts by the remaining input, which
//!   requires every element to cost at least one byte)
//! - struct (other)    → fields streamed in declaration order
//! - enum variant      → varint of the variant's declaration index,
//!   then its fields in order

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum VariantData {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    data: VariantData,
}

enum Kind {
    UnitStruct,
    TupleStruct(usize),
    NamedStruct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    kind: Kind,
}

/// Derives `serde::Serialize` for the annotated item.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize` for the annotated item.
#[proc_macro_derive(Deserialize)]
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
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2, // `#` + `[...]`
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // `pub(crate)` etc.
                    }
                }
            }
            _ => break,
        }
    }

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

    let kind = match item_kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(parse_tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream())?)
            }
            other => return Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("unsupported enum body: {other:?}")),
        },
        other => return Err(format!("cannot derive for `{other}` items")),
    };

    Ok(Input { name, kind })
}

/// Counts the top-level comma-separated fields of a tuple body,
/// tracking `<`/`>` depth so generic arguments don't split fields.
fn parse_tuple_arity(body: TokenStream) -> usize {
    let mut arity = 0usize;
    let mut saw_any = false;
    let mut angle_depth = 0i32;
    for tok in body {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                saw_any = true;
                angle_depth += 1;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                arity += 1;
                saw_any = false;
            }
            _ => saw_any = true,
        }
    }
    arity + usize::from(saw_any)
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // Field attributes (doc comments etc.) — skipped.
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            i += 2;
        }
        // Visibility.
        if let Some(TokenTree::Ident(id)) = tokens.get(i) {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break, // trailing comma
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after `{name}`, found {other:?}")),
        }
        // Skip the type up to the next top-level comma.
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    Ok(fields)
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        // Variant attributes (doc comments etc.) — skipped.
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            i += 2;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break, // trailing comma
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let data = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantData::Tuple(parse_tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantData::Named(parse_named_fields(g.stream())?)
            }
            _ => VariantData::Unit,
        };
        // Skip a possible discriminant, up to the separating comma.
        while let Some(tok) = tokens.get(i) {
            i += 1;
            if let TokenTree::Punct(p) = tok {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
        variants.push(Variant { name, data });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = ser_bin_body(input);
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn ser_bin(&self, out: &mut ::std::vec::Vec<u8>) {{\n{body}\n}}\n\
         }}"
    )
}

/// Body of the derived `ser_bin`: fields streamed in declaration order;
/// enums prefixed with their variant's declaration index as a varint.
fn ser_bin_body(input: &Input) -> String {
    let name = &input.name;
    match &input.kind {
        // One marker byte, never zero bytes: `Vec<UnitLike>` must keep
        // the "each element costs ≥ 1 byte" invariant sequence
        // decoding relies on.
        Kind::UnitStruct => "out.push(0u8);".to_string(),
        Kind::TupleStruct(n) => (0..*n)
            .map(|i| format!("::serde::Serialize::ser_bin(&self.{i}, out);\n"))
            .collect(),
        Kind::NamedStruct(fields) => fields
            .iter()
            .map(|f| format!("::serde::Serialize::ser_bin(&self.{f}, out);\n"))
            .collect(),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for (idx, v) in variants.iter().enumerate() {
                let vn = &v.name;
                match &v.data {
                    VariantData::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::bin::write_varint({idx}u64, out),\n"
                    )),
                    VariantData::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let writes: String = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::ser_bin({b}, out);\n"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => {{\n\
                             ::serde::bin::write_varint({idx}u64, out);\n{writes}}}\n",
                            binds = binds.join(", ")
                        ));
                    }
                    VariantData::Named(fields) => {
                        let writes: String = fields
                            .iter()
                            .map(|f| format!("::serde::Serialize::ser_bin({f}, out);\n"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{\n\
                             ::serde::bin::write_varint({idx}u64, out);\n{writes}}}\n",
                            binds = fields.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    }
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = de_bin_body(input);
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn de_bin(r: &mut ::serde::bin::Reader<'_>) \
             -> ::core::result::Result<Self, ::serde::Error> {{\n\
             {body}\n}}\n\
         }}"
    )
}

/// Body of the derived `de_bin`: the exact inverse of
/// [`ser_bin_body`] — fields in declaration order, enums selected
/// by varint declaration index (unknown indexes fail closed).
fn de_bin_body(input: &Input) -> String {
    let name = &input.name;
    match &input.kind {
        Kind::UnitStruct => format!(
            "match ::serde::bin::Reader::byte(r)? {{\n\
             0u8 => Ok({name}),\n\
             _ => Err(::serde::Error::custom(\"invalid unit-struct byte for {name}\")),\n\
             }}"
        ),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|_| "::serde::Deserialize::de_bin(r)?".to_string())
                .collect();
            format!("Ok({name}({}))", items.join(", "))
        }
        Kind::NamedStruct(fields) => {
            let inits: String = fields
                .iter()
                .map(|f| format!("{f}: ::serde::Deserialize::de_bin(r)?,\n"))
                .collect();
            format!("Ok({name} {{\n{inits}}})")
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for (idx, v) in variants.iter().enumerate() {
                let vn = &v.name;
                match &v.data {
                    VariantData::Unit => arms.push_str(&format!("{idx}u64 => Ok({name}::{vn}),\n")),
                    VariantData::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|_| "::serde::Deserialize::de_bin(r)?".to_string())
                            .collect();
                        arms.push_str(&format!(
                            "{idx}u64 => Ok({name}::{vn}({})),\n",
                            items.join(", ")
                        ));
                    }
                    VariantData::Named(fields) => {
                        let inits: String = fields
                            .iter()
                            .map(|f| format!("{f}: ::serde::Deserialize::de_bin(r)?,\n"))
                            .collect();
                        arms.push_str(&format!("{idx}u64 => Ok({name}::{vn} {{\n{inits}}}),\n"));
                    }
                }
            }
            format!(
                "match ::serde::bin::Reader::varint(r)? {{\n\
                 {arms}\
                 _ => Err(::serde::Error::custom(\"unknown {name} variant index\")),\n\
                 }}"
            )
        }
    }
}
