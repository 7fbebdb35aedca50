//! Storage-layer error type.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A referenced column does not exist in the schema.
    ColumnNotFound(String),
    /// A referenced table does not exist in the catalog.
    TableNotFound(String),
    /// A table with this name is already registered.
    TableExists(String),
    /// Columns of a batch have differing lengths.
    LengthMismatch {
        /// Expected number of rows.
        expected: usize,
        /// Actual number of rows found in the offending column.
        actual: usize,
    },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        /// The declared type.
        expected: String,
        /// The offending value's type.
        actual: String,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// Requested row.
        index: usize,
        /// Number of rows available.
        len: usize,
    },
    /// Schemas were expected to be identical but differ.
    SchemaMismatch(String),
    /// Generic invalid-argument error.
    InvalidArgument(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            StorageError::TableNotFound(name) => write!(f, "table not found: {name}"),
            StorageError::TableExists(name) => write!(f, "table already exists: {name}"),
            StorageError::LengthMismatch { expected, actual } => {
                write!(f, "column length mismatch: expected {expected}, got {actual}")
            }
            StorageError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            StorageError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for length {len}")
            }
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::ColumnNotFound("city".into());
        assert!(e.to_string().contains("city"));
        let e = StorageError::LengthMismatch { expected: 3, actual: 5 };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&StorageError::TableNotFound("x".into()));
    }
}
