//! Typed accessors over a parsed spec [`Document`]: each reads one
//! `section.key`, returns `None` (or the default) when it is absent,
//! and turns a value of the wrong shape into a line-numbered
//! [`SpecError::WrongType`]. Every spec dialect in the workspace
//! (experiment grids, explore searches) validates through these, so
//! their diagnostics agree word for word.

use crate::spec::SpecError;
use crate::toml::{Document, Value};

/// The [`SpecError::WrongType`] for `section.key` holding `value`
/// where `expected` was required.
pub fn wrong_type(
    section: &str,
    key: &str,
    expected: &'static str,
    value: &Value,
    line: usize,
) -> SpecError {
    SpecError::WrongType {
        section: section.to_string(),
        key: key.to_string(),
        expected,
        found: value.kind(),
        line,
    }
}

/// A non-negative integer; `default` when the key is absent.
pub fn get_u64(doc: &Document, section: &str, key: &str, default: u64) -> Result<u64, SpecError> {
    match doc.get(section, key) {
        None => Ok(default),
        Some(e) => match &e.value {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            v => Err(wrong_type(
                section,
                key,
                "a non-negative integer",
                v,
                e.line,
            )),
        },
    }
}

/// A string and its line; `None` when the key is absent.
pub fn get_str(
    doc: &Document,
    section: &str,
    key: &str,
) -> Result<Option<(String, usize)>, SpecError> {
    match doc.get(section, key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Str(s) => Ok(Some((s.clone(), e.line))),
            v => Err(wrong_type(section, key, "a string", v, e.line)),
        },
    }
}

/// A string array axis; `None` when the key is absent.
pub fn get_str_array(
    doc: &Document,
    section: &str,
    key: &'static str,
) -> Result<Option<(Vec<String>, usize)>, SpecError> {
    match doc.get(section, key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Array(items) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Str(s) => out.push(s.clone()),
                        v => {
                            return Err(wrong_type(section, key, "an array of strings", v, e.line))
                        }
                    }
                }
                Ok(Some((out, e.line)))
            }
            v => Err(wrong_type(section, key, "an array of strings", v, e.line)),
        },
    }
}

/// A numeric array axis (integers widen to `f64`); `None` when the
/// key is absent.
pub(crate) fn get_num_array(
    doc: &Document,
    section: &str,
    key: &'static str,
) -> Result<Option<(Vec<f64>, usize)>, SpecError> {
    match doc.get(section, key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Array(items) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Int(i) => out.push(*i as f64),
                        Value::Float(f) => out.push(*f),
                        v => {
                            return Err(wrong_type(section, key, "an array of numbers", v, e.line))
                        }
                    }
                }
                Ok(Some((out, e.line)))
            }
            v => Err(wrong_type(section, key, "an array of numbers", v, e.line)),
        },
    }
}

/// An integer array axis; `None` when the key is absent.
pub fn get_int_array(
    doc: &Document,
    section: &str,
    key: &'static str,
) -> Result<Option<(Vec<i64>, usize)>, SpecError> {
    match doc.get(section, key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Array(items) => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Int(i) => out.push(*i),
                        v => {
                            return Err(wrong_type(section, key, "an array of integers", v, e.line))
                        }
                    }
                }
                Ok(Some((out, e.line)))
            }
            v => Err(wrong_type(section, key, "an array of integers", v, e.line)),
        },
    }
}
