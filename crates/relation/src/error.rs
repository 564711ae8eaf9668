//! Error type shared by the whole workspace.

use std::fmt;

/// Errors raised anywhere in the engine.
#[derive(Debug)]
pub enum Error {
    /// A name could not be resolved against a schema, or two schemas were
    /// incompatible.
    Schema(String),
    /// A value had the wrong type for the requested operation.
    Type(String),
    /// A logical or physical plan was malformed.
    Plan(String),
    /// A runtime execution failure.
    Exec(String),
    /// An I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Exec(m) => write!(f, "execution error: {m}"),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::Schema("x".into()).to_string().contains("schema"));
        assert!(Error::Type("x".into()).to_string().contains("type"));
        assert!(Error::Plan("x".into()).to_string().contains("plan"));
        assert!(Error::Exec("x".into()).to_string().contains("execution"));
        let io = Error::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error as _;
        let io = Error::from(std::io::Error::other("boom"));
        assert!(io.source().is_some());
        assert!(Error::Plan("p".into()).source().is_none());
    }
}
