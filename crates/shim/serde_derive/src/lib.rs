//! `#[derive(Serialize, Deserialize)]` for the workspace serde shim.
//!
//! Implemented directly on `proc_macro::TokenStream` (the build
//! environment has no `syn`/`quote`). Supports exactly the shapes this
//! workspace derives on:
//!
//! * structs with named fields;
//! * enums whose variants are unit, carry named fields, or wrap one
//!   value.
//!
//! Generated representation (matching serde's externally-tagged
//! default): structs and struct variants become objects keyed by field
//! name, unit variants become their name as a string, and a
//! data-carrying variant `V { f }` becomes `{"V": {"f": ...}}`.
//! Generics, tuple structs and wider tuple variants are rejected with
//! a compile error.
//!
//! The generated `serialize` emits a type's events into any
//! `serde::Serializer`, fields in ascending byte order of their names
//! (sorted here, at expansion time) so that the text writer's output
//! has sorted keys without ever collecting them. The generated
//! `deserialize` pulls from any `serde::Deserializer` and takes keys in
//! whatever order they come: an unknown key's value is skipped, a key
//! seen twice keeps its last value (the earlier one must still be
//! well-formed for its field), and a field whose key never came is
//! decoded as if it had been `null` (so `Option` fields may be left
//! out). Like real serde, a tagged enum demands exactly one variant key
//! — `{"Ok": ..., "Err": ...}` is rejected, not first-match-wins (the
//! wire envelopes depend on this).
//!
//! One field attribute is honoured: `#[serde(default)]` makes a field
//! fall back to `Default::default()` when the key is absent (or null)
//! during deserialization — the forward-compat knob newer stats
//! counters use so old peers' snapshots still parse. Any other content
//! inside `#[serde(...)]` is a compile error rather than a silent
//! behavior change.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(&input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(&input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

/// One named field: its name plus whether `#[serde(default)]` lets it
/// fall back to `Default::default()` when missing from the input.
struct Field {
    name: String,
    default: bool,
}

enum VariantShape {
    /// `V` — serialized as the string `"V"`.
    Unit,
    /// `V { f, ... }` — serialized as `{"V": {"f": ...}}`.
    Named(Vec<Field>),
    /// `V(T)` — serialized as `{"V": <payload>}`.
    Newtype,
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

fn expand(input: &TokenStream, mode: Mode) -> TokenStream {
    match parse(input) {
        Ok((name, shape)) => {
            let code = match (mode, &shape) {
                (Mode::Serialize, Shape::Struct(fields)) => struct_serialize(&name, fields),
                (Mode::Deserialize, Shape::Struct(fields)) => struct_deserialize(&name, fields),
                (Mode::Serialize, Shape::Enum(variants)) => enum_serialize(&name, variants),
                (Mode::Deserialize, Shape::Enum(variants)) => enum_deserialize(&name, variants),
            };
            code.parse().expect("generated impl parses")
        }
        Err(message) => format!("compile_error!({message:?});")
            .parse()
            .expect("error token parses"),
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Strips leading `#[...]` attribute pairs and a `pub` / `pub(...)`
/// visibility prefix from a token list.
fn skip_attrs_and_vis(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut rest = tokens;
    loop {
        match rest {
            [TokenTree::Punct(p), TokenTree::Group(_), tail @ ..] if p.as_char() == '#' => {
                rest = tail;
            }
            [TokenTree::Ident(i), tail @ ..] if i.to_string() == "pub" => {
                rest = match tail {
                    [TokenTree::Group(g), inner @ ..]
                        if g.delimiter() == Delimiter::Parenthesis =>
                    {
                        inner
                    }
                    _ => tail,
                };
            }
            _ => return rest,
        }
    }
}

/// Splits a token list on commas that sit outside `<...>` nesting.
/// (Parenthesised/bracketed groups are single trees, so only angle
/// brackets need explicit depth tracking.)
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut chunks = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0usize;
    for tt in tokens {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    chunks.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(tt.clone());
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Whether one `#[...]` attribute body is a serde field attribute, and
/// if so, that it contains exactly `default` (anything else inside
/// `#[serde(...)]` is unsupported and must fail loudly).
fn serde_default_attr(body: &TokenStream) -> Result<bool, String> {
    let tokens: Vec<TokenTree> = body.clone().into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(name), TokenTree::Group(args)]
            if name.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            let inner: Vec<TokenTree> = args.stream().into_iter().collect();
            match inner.as_slice() {
                [TokenTree::Ident(arg)] if arg.to_string() == "default" => Ok(true),
                _ => Err(format!(
                    "serde shim derive supports #[serde(default)] only, found #[serde({})]",
                    args.stream()
                )),
            }
        }
        _ => Ok(false),
    }
}

/// Field name and `#[serde(default)]` flag from one `name: Type` chunk.
fn parse_field(chunk: &[TokenTree]) -> Result<Field, String> {
    let mut default = false;
    let mut rest = chunk;
    while let [TokenTree::Punct(p), TokenTree::Group(g), tail @ ..] = rest {
        if p.as_char() != '#' {
            break;
        }
        default |= serde_default_attr(&g.stream())?;
        rest = tail;
    }
    match skip_attrs_and_vis(rest) {
        [TokenTree::Ident(name), TokenTree::Punct(colon), ..] if colon.as_char() == ':' => {
            Ok(Field {
                name: name.to_string(),
                default,
            })
        }
        _ => Err("serde shim derive supports named fields only".to_owned()),
    }
}

fn parse_named_fields(body: &TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.clone().into_iter().collect();
    split_top_level_commas(&tokens)
        .iter()
        .map(|chunk| parse_field(chunk))
        .collect()
}

fn parse_variants(body: &TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.clone().into_iter().collect();
    split_top_level_commas(&tokens)
        .iter()
        .map(|chunk| match skip_attrs_and_vis(chunk) {
            [TokenTree::Ident(name)] => Ok(Variant {
                name: name.to_string(),
                shape: VariantShape::Unit,
            }),
            [TokenTree::Ident(name), TokenTree::Group(g)] if g.delimiter() == Delimiter::Brace => {
                Ok(Variant {
                    name: name.to_string(),
                    shape: VariantShape::Named(parse_named_fields(&g.stream())?),
                })
            }
            [TokenTree::Ident(name), TokenTree::Group(g)]
                if g.delimiter() == Delimiter::Parenthesis =>
            {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if split_top_level_commas(&inner).len() == 1 {
                    Ok(Variant {
                        name: name.to_string(),
                        shape: VariantShape::Newtype,
                    })
                } else {
                    Err("serde shim derive supports single-field tuple variants only".to_owned())
                }
            }
            _ => Err(
                "serde shim derive supports unit, newtype and named-field variants only".to_owned(),
            ),
        })
        .collect()
}

fn parse(input: &TokenStream) -> Result<(String, Shape), String> {
    let tokens: Vec<TokenTree> = input.clone().into_iter().collect();
    let rest = skip_attrs_and_vis(&tokens);
    match rest {
        [TokenTree::Ident(kw), TokenTree::Ident(name), TokenTree::Group(body)]
            if body.delimiter() == Delimiter::Brace =>
        {
            match kw.to_string().as_str() {
                "struct" => Ok((
                    name.to_string(),
                    Shape::Struct(parse_named_fields(&body.stream())?),
                )),
                "enum" => Ok((
                    name.to_string(),
                    Shape::Enum(parse_variants(&body.stream())?),
                )),
                other => Err(format!("cannot derive for `{other}` items")),
            }
        }
        [TokenTree::Ident(_), TokenTree::Ident(name), TokenTree::Punct(p), ..]
            if p.as_char() == '<' =>
        {
            Err(format!(
                "serde shim derive does not support generics on `{name}`"
            ))
        }
        _ => Err("serde shim derive supports braced structs and enums only".to_owned()),
    }
}

// ---------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------

const SER_HEAD: &str = "fn serialize<S: ::serde::Serializer>(&self, s: &mut S)";
const DE_HEAD: &str = "fn deserialize<D: ::serde::Deserializer>(d: &mut D) \
                       -> ::std::result::Result<Self, ::serde::Error>";

/// Statements emitting an object with one entry per field, keys
/// ascending; `access` turns a field name into the expression (a
/// reference) that reads it.
fn fields_to_map(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    let entries: String = names
        .iter()
        .map(|f| {
            format!(
                "s.map_key({f:?});\n::serde::Serialize::serialize({}, s);\n",
                access(f)
            )
        })
        .collect();
    format!("s.map_begin();\n{entries}s.map_end();\n")
}

fn struct_serialize(name: &str, fields: &[Field]) -> String {
    let body = fields_to_map(fields, |f| format!("&self.{f}"));
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             {SER_HEAD} {{\n{body}}}\n\
         }}"
    )
}

/// A block expression reading an object (pending on `d`) into the
/// struct or struct variant `path`.
fn fields_from_map(path: &str, fields: &[Field]) -> String {
    let slots: String = fields
        .iter()
        .map(|f| {
            format!(
                "let mut __field_{} = ::std::option::Option::None;\n",
                f.name
            )
        })
        .collect();
    let key_arms: String = fields
        .iter()
        .enumerate()
        .map(|(slot, f)| format!("{:?} => {slot}usize,\n", f.name))
        .collect();
    let slot_arms: String = fields
        .iter()
        .enumerate()
        .map(|(slot, field)| {
            let f = &field.name;
            if field.default {
                // Absent key (older peer) or explicit null both fall
                // back; a present non-null value must still parse.
                format!("{slot}usize => __field_{f} = ::serde::defaulted_field(d)?,\n")
            } else {
                format!(
                    "{slot}usize => __field_{f} = ::std::option::Option::Some(\
                     ::serde::Deserialize::deserialize(d)?),\n"
                )
            }
        })
        .collect();
    let inits: String = fields
        .iter()
        .map(|field| {
            let f = &field.name;
            let absent = if field.default {
                "::std::default::Default::default()"
            } else {
                "::serde::missing_field()?"
            };
            format!(
                "{f}: match __field_{f} {{\n\
                     ::std::option::Option::Some(found) => found,\n\
                     ::std::option::Option::None => {absent},\n\
                 }},\n"
            )
        })
        .collect();
    format!(
        "{{\n\
             d.map_begin()?;\n\
             {slots}\
             loop {{\n\
                 let slot = match d.map_key()? {{\n\
                     ::std::option::Option::None => break,\n\
                     ::std::option::Option::Some(key) => match key {{\n\
                         {key_arms}\
                         _ => usize::MAX,\n\
                     }},\n\
                 }};\n\
                 match slot {{\n\
                     {slot_arms}\
                     _ => d.skip()?,\n\
                 }}\n\
             }}\n\
             {path} {{\n{inits}}}\n\
         }}"
    )
}

fn struct_deserialize(name: &str, fields: &[Field]) -> String {
    let body = fields_from_map(name, fields);
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             {DE_HEAD} {{\n\
                 ::std::result::Result::Ok({body})\n\
             }}\n\
         }}"
    )
}

fn enum_serialize(name: &str, variants: &[Variant]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| {
            let vname = &v.name;
            match &v.shape {
                VariantShape::Unit => format!("{name}::{vname} => s.str({vname:?}),\n"),
                VariantShape::Newtype => format!(
                    "{name}::{vname}(payload) => {{\n\
                         s.map_begin();\n\
                         s.map_key({vname:?});\n\
                         ::serde::Serialize::serialize(payload, s);\n\
                         s.map_end();\n\
                     }}\n"
                ),
                VariantShape::Named(fields) => {
                    let bindings = fields
                        .iter()
                        .map(|f| f.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ");
                    let inner = fields_to_map(fields, str::to_owned);
                    format!(
                        "{name}::{vname} {{ {bindings} }} => {{\n\
                             s.map_begin();\n\
                             s.map_key({vname:?});\n\
                             {inner}\
                             s.map_end();\n\
                         }}\n"
                    )
                }
            }
        })
        .collect();
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             {SER_HEAD} {{\n\
                 match self {{\n{arms}}}\n\
             }}\n\
         }}"
    )
}

fn enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.shape, VariantShape::Unit))
        .map(|v| {
            let vname = &v.name;
            format!("{vname:?} => ::std::result::Result::Ok({name}::{vname}),\n")
        })
        .collect();
    let tagged: Vec<&Variant> = variants
        .iter()
        .filter(|v| !matches!(v.shape, VariantShape::Unit))
        .collect();
    let tag_arms: String = tagged
        .iter()
        .enumerate()
        .map(|(slot, v)| format!("{:?} => {slot}usize,\n", v.name))
        .collect();
    let payload_arms: String = tagged
        .iter()
        .enumerate()
        .map(|(slot, v)| {
            let vname = &v.name;
            match &v.shape {
                VariantShape::Named(fields) => {
                    let body = fields_from_map(&format!("{name}::{vname}"), fields);
                    format!("{slot}usize => {body},\n")
                }
                _ => format!(
                    "{slot}usize => {name}::{vname}(::serde::Deserialize::deserialize(d)?),\n"
                ),
            }
        })
        .collect();
    let one_tag = format!(
        "::std::result::Result::Err(::serde::Error::custom(\
             \"expected exactly one variant tag for enum {name}\"))"
    );
    // An enum of unit variants only has no object form at all.
    let map_arm = if tagged.is_empty() {
        String::new()
    } else {
        format!(
            "::serde::Kind::Map => {{\n\
                 d.map_begin()?;\n\
                 let tag = match d.map_key()? {{\n\
                     ::std::option::Option::None => return {one_tag},\n\
                     ::std::option::Option::Some(key) => match key {{\n\
                         {tag_arms}\
                         other => return ::std::result::Result::Err(\
                             ::serde::Error::custom(format!(\
                                 \"unknown variant {{other}} for enum {name}\"))),\n\
                     }},\n\
                 }};\n\
                 let value = match tag {{\n\
                     {payload_arms}\
                     _ => unreachable!(\"tags map to listed variants\"),\n\
                 }};\n\
                 if d.map_key()?.is_some() {{\n\
                     return {one_tag};\n\
                 }}\n\
                 ::std::result::Result::Ok(value)\n\
             }}\n"
        )
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             {DE_HEAD} {{\n\
                 match d.kind()? {{\n\
                     ::serde::Kind::String => match d.str()? {{\n\
                         {unit_arms}\
                         other => ::std::result::Result::Err(::serde::Error::custom(\
                             format!(\"unknown variant {{other}} for enum {name}\"))),\n\
                     }},\n\
                     {map_arm}\
                     _ => ::std::result::Result::Err(d.unexpected(\"enum {name}\")),\n\
                 }}\n\
             }}\n\
         }}"
    )
}
