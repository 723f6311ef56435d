//! The `BENCH_*.json` acceptance artefacts the ablation binaries write at
//! the workspace root.
//!
//! An [`Object`] keeps its keys in insertion order, and each number keeps
//! the text it was given: a fixed precision ([`Object::fixed`]) or its
//! `Display` form ([`Object::display`]). The layout is the one every
//! artefact shares: top-level keys one per line, child objects inline, and
//! a child built with [`Object::multiline`] one key per line again.

use std::fmt::Display;
use std::path::Path;

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, Default)]
pub struct Object {
    fields: Vec<(String, Field)>,
    multiline: bool,
}

#[derive(Debug, Clone)]
enum Field {
    Text(String),
    Object(Object),
}

impl Object {
    /// An empty object, written inline when nested.
    pub fn new() -> Self {
        Object::default()
    }

    /// An empty object written one key per line even when nested.
    pub fn multiline() -> Self {
        Object {
            multiline: true,
            ..Object::default()
        }
    }

    /// Adds `value` with `decimals` digits after the point.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, Field::Text(format!("{value:.decimals$}")))
    }

    /// Adds `value` in its `Display` form: integers, bools, and floats
    /// written as short as they round-trip.
    pub fn display(self, key: &str, value: impl Display) -> Self {
        self.field(key, Field::Text(value.to_string()))
    }

    /// Adds a JSON string.
    pub fn text(self, key: &str, value: &str) -> Self {
        self.field(key, Field::Text(format!("\"{value}\"")))
    }

    /// Adds a child object.
    pub fn object(self, key: &str, value: Object) -> Self {
        self.field(key, Field::Object(value))
    }

    fn field(mut self, key: &str, field: Field) -> Self {
        self.fields.push((key.to_string(), field));
        self
    }

    /// The artefact text: this object as the top level, one key per line,
    /// with a trailing newline.
    pub fn render(&self) -> String {
        self.write(0, true) + "\n"
    }

    fn write(&self, depth: usize, multiline: bool) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, field)| match field {
                Field::Text(text) => format!("\"{key}\": {text}"),
                Field::Object(child) => {
                    format!("\"{key}\": {}", child.write(depth + 1, child.multiline))
                }
            })
            .collect();
        if multiline {
            let indent = "  ".repeat(depth + 1);
            let fields = fields.join(&format!(",\n{indent}"));
            format!("{{\n{indent}{fields}\n{}}}", "  ".repeat(depth))
        } else {
            format!("{{{}}}", fields.join(", "))
        }
    }
}

/// Writes `object` to `name` at the workspace root and prints where.
pub fn write_artefact(name: &str, object: &Object) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the workspace root")
        .join(name);
    std::fs::write(&path, object.render())
        .unwrap_or_else(|e| panic!("{name} must be writable: {e}"));
    println!("[saved {}]", path.display());
}
