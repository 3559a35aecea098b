//! A tiny deterministic JSON writer for stats export, and
//! [`json_stats!`](crate::json_stats), which declares a stats record
//! once.
//!
//! No code serializes through `serde` (the vendored crate is a stub
//! that is declared but unused), and the snapshot path must be
//! byte-reproducible across runs and thread counts anyway. This writer emits keys in exactly the order the
//! caller supplies them, uses only integer and string scalars (no float
//! formatting ambiguity), and allocates nothing beyond the output
//! `String`, so two identical snapshots always serialize to identical
//! bytes.

/// Streaming JSON builder. Containers are opened/closed explicitly;
/// commas are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already has an item.
    has_item: Vec<bool>,
    /// A key was just written; the next value belongs to it.
    pending_key: bool,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Comma/sequence bookkeeping before a value is emitted.
    fn pre_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has) = self.has_item.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Open an object (`{`) in value position.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.has_item.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.has_item.pop();
        self.out.push('}');
        self
    }

    /// Open an array (`[`) in value position.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.has_item.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.has_item.pop();
        self.out.push(']');
        self
    }

    /// Write an object key; the next emitted value is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        debug_assert!(!self.pending_key, "two keys in a row");
        if let Some(has) = self.has_item.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        self.push_escaped(k);
        self.out.push(':');
        self.pending_key = true;
        self
    }

    /// Write a `u64` value. The digits go straight into the output
    /// buffer, without `format!` or a temporary `String`.
    pub fn u64(&mut self, mut v: u64) -> &mut Self {
        self.pre_value();
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend(digits[i..].iter().map(|&d| char::from(d)));
        self
    }

    /// Write a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        self.push_escaped(s);
        self
    }

    /// Write `null`: an absent optional section in value position.
    fn null(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push_str("null");
        self
    }

    /// Write a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// `key(k)` + `u64(v)` in one call.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64(v)
    }

    /// `key(k)` + `str(v)` in one call.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str(v)
    }

    /// Finish and return the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.has_item.is_empty(), "unclosed container");
        self.out
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str("\\u00");
                    let b = c as u32;
                    self.out.push(char::from_digit(b >> 4, 16).unwrap());
                    self.out.push(char::from_digit(b & 0xf, 16).unwrap());
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A value a [`json_stats!`](crate::json_stats) record can hold: a
/// counter, another record, a list of them, or an optional section.
pub trait WriteJson {
    /// Write this value in value position.
    fn write_json(&self, w: &mut JsonWriter);

    /// Write this value under `key` in the open object.
    fn write_field(&self, key: &str, w: &mut JsonWriter) {
        w.key(key);
        self.write_json(w);
    }
}

impl WriteJson for u64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.u64(*self);
    }
}

impl WriteJson for usize {
    fn write_json(&self, w: &mut JsonWriter) {
        w.u64(*self as u64);
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for v in self {
            v.write_json(w);
        }
        w.end_arr();
    }
}

/// An armed-only section: a `None` field writes neither its key nor a
/// value, so output from a machine without the feature keeps its bytes.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
            }
        }
    }

    fn write_field(&self, key: &str, w: &mut JsonWriter) {
        if let Some(v) = self {
            v.write_field(key, w);
        }
    }
}

/// Write `values` under `key` as one object whose keys are `names`, in
/// order: a fixed-size array indexed by an enum, keyed by its names.
pub fn write_keyed<T: WriteJson>(w: &mut JsonWriter, key: &str, names: &[&str], values: &[T]) {
    debug_assert_eq!(names.len(), values.len(), "one name per value");
    w.key(key).begin_obj();
    for (name, v) in names.iter().zip(values) {
        v.write_field(name, w);
    }
    w.end_obj();
}

/// Declare a stats record once: one line per field generates the public
/// struct, its copy from the live counters and its JSON.
///
/// The struct is named with the parameters its copy reads; each field
/// is `name = source` (a `u64` counter) or `name: Type = source`, where
/// `Type` is another record, a `Vec` of records, or an `Option` of one.
/// From that the macro generates
///
/// - the struct, with every field `pub` and the derives `Debug`,
///   `Clone`, `Default`, `PartialEq` and `Eq` (add `Copy` with an
///   attribute);
/// - a private `capture(params) -> Self` that evaluates each source;
/// - [`WriteJson`], writing one object whose keys are the field names,
///   in declaration order. A `None` section is omitted, key and all.
///
/// Two modifiers follow a field's name: `as "key"` writes it under
/// another key, and `by NAMES` writes an array field as an object keyed
/// by the `&str` array `NAMES` (see [`write_keyed`]).
///
/// ```
/// use sv_sim::json::WriteJson;
/// use sv_sim::{json_stats, JsonWriter};
///
/// struct Link {
///     bytes: u64,
///     busy_ns: u64,
/// }
///
/// json_stats! {
///     /// Usage of one link.
///     #[derive(Copy)]
///     pub struct LinkRow(id: usize, l: &Link) {
///         /// Link index.
///         link = id as u64,
///         /// Bytes sent.
///         bytes = l.bytes,
///     }
/// }
///
/// json_stats! {
///     /// Every link, and an armed-only section.
///     pub struct Net(links: &[Link], armed: bool) {
///         /// Busy time over all links, ns.
///         busy_ns = links.iter().map(|l| l.busy_ns).sum(),
///         /// Links that carried bytes.
///         rows as "links": Vec<LinkRow> = links
///             .iter()
///             .enumerate()
///             .filter(|(_, l)| l.bytes > 0)
///             .map(|(i, l)| LinkRow::capture(i, l))
///             .collect(),
///         /// Present only when armed.
///         extra: Option<LinkRow> = armed.then(|| LinkRow::capture(0, &links[0])),
///     }
/// }
///
/// let links = [Link { bytes: 0, busy_ns: 3 }, Link { bytes: 8, busy_ns: 4 }];
/// for (armed, want) in [
///     (false, r#"{"busy_ns":7,"links":[{"link":1,"bytes":8}]}"#),
///     (true, r#"{"busy_ns":7,"links":[{"link":1,"bytes":8}],"extra":{"link":0,"bytes":0}}"#),
/// ] {
///     let mut w = JsonWriter::new();
///     Net::capture(&links, armed).write_json(&mut w);
///     assert_eq!(w.finish(), want);
/// }
/// ```
#[macro_export]
macro_rules! json_stats {
    (@ty) => { u64 };
    (@ty $t:ty) => { $t };

    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };

    (@write $w:ident, $x:expr, $key:expr) => {
        $crate::json::WriteJson::write_field(&$x, $key, $w)
    };
    (@write $w:ident, $x:expr, $key:expr, $names:path) => {
        $crate::json::write_keyed($w, $key, &$names, &$x)
    };

    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident ($($arg:ident: $at:ty),* $(,)?) {
            $(
                $(#[$fattr:meta])*
                $f:ident $(as $key:literal)? $(by $names:path)? $(: $t:ty)? = $e:expr
            ),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fattr])* pub $f: $crate::json_stats!(@ty $($t)?),)+
        }

        impl $name {
            /// Copy the live counters.
            fn capture($($arg: $at),*) -> Self {
                Self { $($f: $e,)+ }
            }
        }

        impl $crate::json::WriteJson for $name {
            fn write_json(&self, w: &mut $crate::JsonWriter) {
                w.begin_obj();
                $($crate::json_stats!(@write w, self.$f,
                    $crate::json_stats!(@key $f $($key)?) $(, $names)?);)+
                w.end_obj();
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_structures_deterministically() {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .field_u64("a", 0)
            .field_u64("b", 1234567890123456789)
            .field_u64("max", u64::MAX)
            .key("arr")
            .begin_arr()
            .u64(1)
            .u64(2)
            .end_arr()
            .key("o")
            .begin_obj()
            .field_str("s", "x\"y\\z\n")
            .key("flag")
            .bool(true)
            .end_obj()
            .end_obj();
        assert_eq!(
            w.finish(),
            "{\"a\":0,\"b\":1234567890123456789,\"max\":18446744073709551615,\
             \"arr\":[1,2],\
             \"o\":{\"s\":\"x\\\"y\\\\z\\n\",\"flag\":true}}"
        );
    }

    #[test]
    fn optional_sections_are_omitted_when_none() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        Some(1u64).write_field("on", &mut w);
        None::<u64>.write_field("off", &mut w);
        w.key("list");
        vec![Some(2u64), None].write_json(&mut w);
        write_keyed(&mut w, "by", &["a", "b"], &[3u64, 4]);
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\"on\":1,\"list\":[2,null],\"by\":{\"a\":3,\"b\":4}}"
        );
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_obj().key("e").begin_arr().end_arr().end_obj();
        assert_eq!(w.finish(), "{\"e\":[]}");
    }

    #[test]
    fn control_characters_escape_to_valid_json() {
        // The named short escapes, plus \u00XX for the rest of C0.
        let mut w = JsonWriter::new();
        w.str("\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}");
        assert_eq!(w.finish(), "\"\\u0000\\u0001\\u0008\\u000b\\u000c\\u001f\"");

        let mut w = JsonWriter::new();
        w.str("\n\r\t\"\\");
        assert_eq!(w.finish(), "\"\\n\\r\\t\\\"\\\\\"");
    }

    #[test]
    fn control_characters_in_keys_are_escaped_too() {
        let mut w = JsonWriter::new();
        w.begin_obj().field_u64("bad\u{2}key", 7).end_obj();
        assert_eq!(w.finish(), "{\"bad\\u0002key\":7}");
    }

    #[test]
    fn non_ascii_passes_through_as_utf8() {
        // JSON permits raw UTF-8 in strings; the writer must neither
        // escape nor mangle multi-byte characters, including ones
        // outside the BMP.
        let mut w = JsonWriter::new();
        w.str("naïve – 日本語 🚀");
        assert_eq!(w.finish(), "\"naïve – 日本語 🚀\"");
    }

    #[test]
    fn delete_char_is_not_escaped() {
        // U+007F is not a C0 control; JSON does not require escaping it
        // and the writer passes it through verbatim.
        let mut w = JsonWriter::new();
        w.str("\u{7f}");
        assert_eq!(w.finish(), "\"\u{7f}\"");
    }
}
