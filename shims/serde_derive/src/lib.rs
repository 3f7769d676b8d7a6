//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no access to crates.io, so the workspace
//! ships a minimal `serde` shim (see `shims/serde`) whose `Serialize` /
//! `Deserialize` traits convert through an owned JSON-like
//! `serde::Value` data model. This crate derives those traits with the
//! raw [`proc_macro`] API — no `syn`, no `quote` — for the shapes the
//! workspace actually uses:
//!
//! * structs with named fields (and unit structs);
//! * enums with unit, tuple and struct variants.
//!
//! Generics, `#[serde(...)]` attributes and tuple structs are not
//! supported and produce a compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field layout of a struct or an enum variant.
enum Fields {
    Unit,
    /// Tuple fields, by arity.
    Tuple(usize),
    /// Named fields, in declaration order.
    Named(Vec<String>),
}

/// The parsed shape of the derive input.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes_and_visibility(&tokens, &mut i);
    let keyword = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected an item name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generics (on `{name}`)");
    }
    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    panic!("serde shim derive does not support tuple structs (`{name}`)")
                }
                other => panic!("unexpected struct body for `{name}`: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("unexpected enum body for `{name}`: {other:?}"),
            };
            Item::Enum {
                name,
                variants: parse_variants(body),
            }
        }
        other => panic!("cannot derive serde traits for `{other}` items"),
    }
}

/// Advances `i` past `#[...]` attributes and a `pub` / `pub(...)`
/// visibility qualifier.
fn skip_attributes_and_visibility(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => *i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => break,
        }
    }
}

/// Splits a named-field body into field names. Commas inside angle
/// brackets (`Vec<(String, f64)>`) and inside groups are not separators.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        names.push(id.to_string());
        // Skip to the next top-level comma (type text may contain nested
        // commas inside `<...>`).
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
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
    }
    names
}

/// Counts the top-level comma-separated types of a tuple-variant payload.
fn tuple_arity(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle_depth = 0i32;
    let mut trailing_comma = false;
    for (k, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if k + 1 == tokens.len() {
                    trailing_comma = true;
                } else {
                    arity += 1;
                }
            }
            _ => {}
        }
    }
    let _ = trailing_comma;
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(tuple_arity(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant and the separating comma.
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push((name, fields));
    }
    variants
}

// ------------------------------------------------------------- generation

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "::serde::Value::Map(::std::vec::Vec::new())".to_string(),
                Fields::Named(names) => named_fields_to_map(names, |f| format!("&self.{f}")),
                Fields::Tuple(_) => unreachable!("tuple structs are rejected during parsing"),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),\n"
                    )),
                    Fields::Tuple(arity) => {
                        let binders: Vec<String> = (0..*arity).map(|k| format!("__f{k}")).collect();
                        let payload = if *arity == 1 {
                            "::serde::Serialize::serialize(__f0)".to_string()
                        } else {
                            let items: Vec<String> = binders
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{v}({binds}) => ::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from(\"{v}\"), {payload})]),\n",
                            binds = binders.join(", ")
                        ));
                    }
                    Fields::Named(names) => {
                        let payload = named_fields_to_map(names, |f| f.to_string());
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from(\"{v}\"), {payload})]),\n",
                            binds = names.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self) -> ::serde::Value {{ match self {{ {arms} }} }}\n\
                 }}"
            )
        }
    }
}

/// Builds a `Value::Map` expression over named fields, with `access`
/// producing the expression for each field binding.
fn named_fields_to_map(names: &[String], access: impl Fn(&str) -> String) -> String {
    let entries: Vec<String> = names
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{f}\"), ::serde::Serialize::serialize({}))",
                access(f)
            )
        })
        .collect();
    format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => format!("::std::result::Result::Ok({name})"),
                Fields::Named(names) => {
                    let inits: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::deserialize(\
                                     ::serde::map_field(__v, \"{f}\", \"{name}\")?)?"
                            )
                        })
                        .collect();
                    format!(
                        "::std::result::Result::Ok({name} {{ {} }})",
                        inits.join(", ")
                    )
                }
                Fields::Tuple(_) => unreachable!("tuple structs are rejected during parsing"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "\"{v}\" => return ::std::result::Result::Ok({name}::{v}),\n"
                    )),
                    Fields::Tuple(arity) => {
                        if *arity == 1 {
                            tagged_arms.push_str(&format!(
                                "\"{v}\" => return ::std::result::Result::Ok(\
                                     {name}::{v}(::serde::Deserialize::deserialize(__payload)?)),\n"
                            ));
                        } else {
                            let elems: Vec<String> = (0..*arity)
                                .map(|k| {
                                    format!(
                                        "::serde::Deserialize::deserialize(\
                                             ::serde::seq_item(__payload, {k}, \"{name}::{v}\")?)?"
                                    )
                                })
                                .collect();
                            tagged_arms.push_str(&format!(
                                "\"{v}\" => return ::std::result::Result::Ok(\
                                     {name}::{v}({})),\n",
                                elems.join(", ")
                            ));
                        }
                    }
                    Fields::Named(names) => {
                        let inits: Vec<String> = names
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::deserialize(\
                                         ::serde::map_field(__payload, \"{f}\", \"{name}::{v}\")?)?"
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{v}\" => return ::std::result::Result::Ok(\
                                 {name}::{v} {{ {} }}),\n",
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(__v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
                             match __s {{ {unit_arms} _ => {{}} }}\n\
                         }}\n\
                         if let ::std::option::Option::Some((__tag, __payload)) = __v.as_tagged() {{\n\
                             match __tag {{ {tagged_arms} _ => {{}} }}\n\
                         }}\n\
                         ::std::result::Result::Err(::serde::Error::custom(\
                             ::std::format!(\"invalid value for enum {name}: {{:?}}\", __v)))\n\
                     }}\n\
                 }}"
            )
        }
    }
}
