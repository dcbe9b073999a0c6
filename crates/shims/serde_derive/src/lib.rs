//! Derive macros for the offline `serde` shim.
//!
//! The build container has no registry access, so `syn`/`quote` are not
//! available; instead the item is parsed directly from the raw
//! [`TokenStream`] (structs with named/tuple fields, enums with unit, tuple
//! and struct variants, plain generics) and the trait impls are generated as
//! source text, then re-lexed with `str::parse::<TokenStream>()`.
//!
//! Supported `#[serde(...)]` field attributes: `default`,
//! `skip_serializing_if = "path"`, `rename = "name"`. Anything else is
//! ignored rather than rejected, mirroring how far this workspace actually
//! exercises serde.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let src = match parse_item(input) {
        Ok(item) => match which {
            Which::Serialize => gen_serialize(&item),
            Which::Deserialize => gen_deserialize(&item),
        },
        Err(msg) => return compile_error(&msg),
    };
    match src.parse() {
        Ok(ts) => ts,
        Err(e) => compile_error(&format!("serde shim derive produced invalid code ({e}): {src}")),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------------------
// Item model.

struct Item {
    name: String,
    /// Raw text between the item's `<` and `>`, e.g. `T : Scalar`.
    generics_decl: String,
    /// Just the parameter names, e.g. `T` or `'a , T , N`.
    generic_args: String,
    /// Type parameter names that get `: Serialize` / `: Deserialize` bounds.
    type_params: Vec<String>,
    /// Original `where` predicates (without the keyword), or empty.
    where_preds: String,
    kind: Kind,
}

enum Kind {
    Unit,
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// JSON key: `rename` if present, else the field name.
    key: String,
    /// `#[serde(default)]`: a missing key becomes `Default::default()`.
    default: bool,
    /// `#[serde(skip_serializing_if = "pred")]`: predicate path text.
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

// ---------------------------------------------------------------------------
// Parsing.

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Leading attributes and visibility.
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }

    let kw = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: expected `struct` or `enum`".into()),
    };
    if kw != "struct" && kw != "enum" {
        return Err(format!("serde shim derive: `{kw}` items are not supported"));
    }
    i += 1;

    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde shim derive: expected item name".into()),
    };
    i += 1;

    // Generics: collect the raw token text and pull out parameter names.
    let mut generics_trees: Vec<TokenTree> = Vec::new();
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        i += 1;
        let mut depth = 1i32;
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            generics_trees.push(toks[i].clone());
            i += 1;
        }
        if depth != 0 {
            return Err("serde shim derive: unbalanced generics".into());
        }
    }
    let (generic_args, type_params) = generic_params(&generics_trees);
    let generics_decl = render(&generics_trees);

    // Optional `where` clause (kept verbatim in the generated impls).
    let mut where_trees: Vec<TokenTree> = Vec::new();
    if matches!(toks.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        i += 1;
        while i < toks.len() {
            if matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)
                || matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == ';')
            {
                break;
            }
            where_trees.push(toks[i].clone());
            i += 1;
        }
    }

    let kind = match toks.get(i) {
        None | Some(TokenTree::Punct(_)) if kw == "struct" => Kind::Unit,
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace && kw == "struct" => {
            Kind::NamedStruct(parse_fields(&group_tokens(g))?)
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && kw == "struct" => {
            Kind::TupleStruct(split_top_commas(&group_tokens(g)).len())
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace && kw == "enum" => {
            Kind::Enum(parse_variants(g)?)
        }
        _ => return Err(format!("serde shim derive: malformed `{kw} {name}` body")),
    };

    Ok(Item {
        name,
        generics_decl,
        generic_args,
        type_params,
        where_preds: render(&where_trees),
        kind,
    })
}

fn group_tokens(g: &Group) -> Vec<TokenTree> {
    g.stream().into_iter().collect()
}

fn render(toks: &[TokenTree]) -> String {
    toks.iter().cloned().collect::<TokenStream>().to_string()
}

/// Extract `(comma-joined parameter names, type parameter names)` from the
/// tokens between a generics `<` and `>`.
fn generic_params(toks: &[TokenTree]) -> (String, Vec<String>) {
    let mut args: Vec<String> = Vec::new();
    let mut type_params: Vec<String> = Vec::new();
    let mut depth = 0i32;
    let mut at_start = true;
    let mut j = 0;
    while j < toks.len() {
        match &toks[j] {
            TokenTree::Punct(p) => match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => at_start = true,
                '\'' if depth == 0 && at_start => {
                    if let Some(TokenTree::Ident(id)) = toks.get(j + 1) {
                        args.push(format!("'{id}"));
                        j += 1;
                    }
                    at_start = false;
                }
                _ => {}
            },
            TokenTree::Ident(id) if depth == 0 && at_start => {
                let s = id.to_string();
                if s == "const" {
                    if let Some(TokenTree::Ident(n)) = toks.get(j + 1) {
                        args.push(n.to_string());
                        j += 1;
                    }
                } else {
                    type_params.push(s.clone());
                    args.push(s);
                }
                at_start = false;
            }
            _ => {}
        }
        j += 1;
    }
    (args.join(", "), type_params)
}

/// Split a token list on commas that are not nested inside `<...>`
/// (sub-groups are opaque single trees, but generic argument commas are not).
fn split_top_commas(toks: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle = 0i32;
    for t in toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        out.last_mut().unwrap().push(t.clone());
    }
    out.retain(|c| !c.is_empty());
    out
}

/// Consume leading attributes of a field/variant chunk, honouring the
/// supported `#[serde(...)]` arguments.
fn take_attrs(chunk: &[TokenTree], j: &mut usize) -> (bool, Option<String>, Option<String>) {
    let mut default = false;
    let mut skip_if = None;
    let mut rename = None;
    while matches!(chunk.get(*j), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(attr)) = chunk.get(*j + 1) {
            let inner = group_tokens(attr);
            let is_serde =
                matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
            if is_serde {
                if let Some(TokenTree::Group(argsg)) = inner.get(1) {
                    let args = group_tokens(argsg);
                    let mut k = 0;
                    while k < args.len() {
                        if let TokenTree::Ident(id) = &args[k] {
                            match id.to_string().as_str() {
                                "default" => default = true,
                                "skip_serializing_if" => {
                                    if let Some(lit) = string_lit(args.get(k + 2)) {
                                        skip_if = Some(lit);
                                        k += 2;
                                    }
                                }
                                "rename" => {
                                    if let Some(lit) = string_lit(args.get(k + 2)) {
                                        rename = Some(lit);
                                        k += 2;
                                    }
                                }
                                _ => {}
                            }
                        }
                        k += 1;
                    }
                }
            }
            *j += 2;
        } else {
            break;
        }
    }
    (default, skip_if, rename)
}

fn string_lit(t: Option<&TokenTree>) -> Option<String> {
    if let Some(TokenTree::Literal(lit)) = t {
        let s = lit.to_string();
        if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
            return Some(s[1..s.len() - 1].to_string());
        }
    }
    None
}

fn parse_fields(toks: &[TokenTree]) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for chunk in split_top_commas(toks) {
        let mut j = 0;
        let (default, skip_if, rename) = take_attrs(&chunk, &mut j);
        if matches!(chunk.get(j), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            j += 1;
            if let Some(TokenTree::Group(g)) = chunk.get(j) {
                if g.delimiter() == Delimiter::Parenthesis {
                    j += 1;
                }
            }
        }
        let name = match chunk.get(j) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("serde shim derive: expected field name".into()),
        };
        let key = rename.unwrap_or_else(|| name.clone());
        fields.push(Field { name, key, default, skip_if });
    }
    Ok(fields)
}

fn parse_variants(g: &Group) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for chunk in split_top_commas(&group_tokens(g)) {
        let mut j = 0;
        let (_, _, rename) = take_attrs(&chunk, &mut j);
        let name = match chunk.get(j) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("serde shim derive: expected variant name".into()),
        };
        if rename.is_some() {
            return Err("serde shim derive: variant rename is not supported".into());
        }
        j += 1;
        let fields = match chunk.get(j) {
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                VariantFields::Tuple(split_top_commas(&group_tokens(vg)).len())
            }
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                VariantFields::Named(parse_fields(&group_tokens(vg))?)
            }
            // Unit variant; a `= discriminant` tail is ignored.
            _ => VariantFields::Unit,
        };
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation.

fn impl_header(item: &Item, trait_path: &str) -> String {
    let mut s = String::from("impl");
    if !item.generics_decl.is_empty() {
        s.push_str(&format!("<{}>", item.generics_decl));
    }
    s.push_str(&format!(" {trait_path} for {}", item.name));
    if !item.generic_args.is_empty() {
        s.push_str(&format!("<{}>", item.generic_args));
    }
    let mut preds: Vec<String> = Vec::new();
    let orig = item.where_preds.trim().trim_end_matches(',').trim();
    if !orig.is_empty() {
        preds.push(orig.to_string());
    }
    for p in &item.type_params {
        preds.push(format!("{p}: {trait_path}"));
    }
    if !preds.is_empty() {
        s.push_str(&format!(" where {}", preds.join(", ")));
    }
    s
}

fn gen_serialize(item: &Item) -> String {
    let header = impl_header(item, "::serde::Serialize");
    let body = match &item.kind {
        Kind::Unit => "::serde::Value::Null".to_string(),
        Kind::NamedStruct(fields) => {
            let mut pushes = String::new();
            for f in fields {
                let push = format!(
                    "__fields.push((::std::string::String::from({key:?}), \
                     ::serde::Serialize::to_value(&self.{name})));",
                    key = f.key,
                    name = f.name
                );
                if let Some(pred) = &f.skip_if {
                    pushes.push_str(&format!("if !(({pred})(&self.{})) {{ {push} }}\n", f.name));
                } else {
                    pushes.push_str(&push);
                    pushes.push('\n');
                }
            }
            format!(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Object(__fields)"
            )
        }
        Kind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> =
                (0..*n).map(|k| format!("::serde::Serialize::to_value(&self.{k})")).collect();
            format!(
                "::serde::Value::Array(::std::vec::Vec::from([{}]))",
                items.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let name = &item.name;
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    VariantFields::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(::std::string::String::from({vn:?})),\n"
                    )),
                    VariantFields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__f0) => ::serde::Value::Object(::std::vec::Vec::from([(\
                         ::std::string::String::from({vn:?}), \
                         ::serde::Serialize::to_value(__f0))])),\n"
                    )),
                    VariantFields::Tuple(k) => {
                        let binds: Vec<String> = (0..*k).map(|i| format!("__f{i}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Object(::std::vec::Vec::from([(\
                             ::std::string::String::from({vn:?}), \
                             ::serde::Value::Array(::std::vec::Vec::from([{}])))])),\n",
                            binds.join(", "),
                            vals.join(", ")
                        ));
                    }
                    VariantFields::Named(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut pushes = String::new();
                        for f in fields {
                            let push = format!(
                                "__inner.push((::std::string::String::from({:?}), \
                                 ::serde::Serialize::to_value({})));",
                                f.key, f.name
                            );
                            if let Some(pred) = &f.skip_if {
                                pushes.push_str(&format!(
                                    "if !(({pred})({})) {{ {push} }}\n",
                                    f.name
                                ));
                            } else {
                                pushes.push_str(&push);
                                pushes.push('\n');
                            }
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{\n\
                             let mut __inner: ::std::vec::Vec<(::std::string::String, \
                             ::serde::Value)> = ::std::vec::Vec::new();\n{pushes}\
                             ::serde::Value::Object(::std::vec::Vec::from([(\
                             ::std::string::String::from({vn:?}), \
                             ::serde::Value::Object(__inner))]))\n}},\n",
                            binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "{header} {{\n    fn to_value(&self) -> ::serde::Value {{\n{body}\n    }}\n}}\n"
    )
}

fn field_init(f: &Field, source: &str) -> String {
    let missing = if f.default {
        "::std::default::Default::default()".to_string()
    } else {
        format!("::serde::missing_field({:?})?", f.key)
    };
    format!(
        "{name}: match {source}.get({key:?}) {{\n\
         ::std::option::Option::Some(__x) => ::serde::Deserialize::from_value(__x)?,\n\
         ::std::option::Option::None => {missing},\n}},\n",
        name = f.name,
        key = f.key
    )
}

fn gen_deserialize(item: &Item) -> String {
    let header = impl_header(item, "::serde::Deserialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::Unit => format!("let _ = __v;\n::std::result::Result::Ok({name})"),
        Kind::NamedStruct(fields) => {
            let inits: String = fields.iter().map(|f| field_init(f, "__v")).collect();
            format!(
                "if __v.as_object().is_none() {{\n\
                 return ::std::result::Result::Err(::serde::Error::custom(\
                 \"expected object for `{name}`\"));\n}}\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})"
            )
        }
        Kind::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                .collect();
            format!(
                "match __v {{\n\
                 ::serde::Value::Array(__items) if __items.len() == {n} => \
                 ::std::result::Result::Ok({name}({})),\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"expected array of length {n} for `{name}`\")),\n}}",
                items.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.fields {
                    VariantFields::Unit => unit_arms.push_str(&format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantFields::Tuple(1) => data_arms.push_str(&format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                         ::serde::Deserialize::from_value(__val)?)),\n"
                    )),
                    VariantFields::Tuple(k) => {
                        let items: Vec<String> = (0..*k)
                            .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "{vn:?} => match __val {{\n\
                             ::serde::Value::Array(__items) if __items.len() == {k} => \
                             ::std::result::Result::Ok({name}::{vn}({})),\n\
                             _ => ::std::result::Result::Err(::serde::Error::custom(\
                             \"expected array of length {k} for variant `{vn}`\")),\n}},\n",
                            items.join(", ")
                        ));
                    }
                    VariantFields::Named(fields) => {
                        let inits: String = fields.iter().map(|f| field_init(f, "__val")).collect();
                        data_arms.push_str(&format!(
                            "{vn:?} => {{\n\
                             if __val.as_object().is_none() {{\n\
                             return ::std::result::Result::Err(::serde::Error::custom(\
                             \"expected object for variant `{vn}`\"));\n}}\n\
                             ::std::result::Result::Ok({name}::{vn} {{\n{inits}}})\n}},\n"
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::String(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{__other}}` for `{name}`\"))),\n}},\n\
                 ::serde::Value::Object(__fields) if __fields.len() == 1 => {{\n\
                 let (__k, __val) = &__fields[0];\n\
                 match __k.as_str() {{\n{data_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{__other}}` for `{name}`\"))),\n}}\n}},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"expected string or single-key object for `{name}`\")),\n}}"
            )
        }
    };
    format!(
        "{header} {{\n    fn from_value(__v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::Error> {{\n{body}\n    }}\n}}\n"
    )
}
