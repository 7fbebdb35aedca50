//! Schemas: ordered, named, typed fields.

use serde::{Deserialize, Serialize};

use crate::error::StorageError;
use crate::Result;

/// The scalar types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string (dictionary-encoded in columns).
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Lowercase SQL-ish name, used in error messages and plan printouts.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "string",
            DataType::Bool => "bool",
        }
    }
}

/// A named, typed field of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type, nullable: false }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type, nullable: true }
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Field names must be unique.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(StorageError::InvalidArgument(format!(
                    "duplicate field name: {}",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// All fields, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::ColumnNotFound(name.to_owned()))
    }

    /// Field with the given name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// A new schema containing only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let fields = names
            .iter()
            .map(|n| self.field(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sessions() -> Schema {
        Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
            Field::nullable("bytes", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn index_and_lookup() {
        let s = sessions();
        assert_eq!(s.index_of("time").unwrap(), 1);
        assert_eq!(s.field("bytes").unwrap().data_type, DataType::Int);
        assert!(s.field("bytes").unwrap().nullable);
        assert!(matches!(
            s.index_of("nope"),
            Err(StorageError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Float),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn projection_preserves_order() {
        let s = sessions();
        let p = s.project(&["bytes", "city"]).unwrap();
        assert_eq!(p.fields().iter().map(|f| f.name.as_str()).collect::<Vec<_>>(), ["bytes", "city"]);
    }
}
