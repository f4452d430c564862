//! Error type for engine construction, search, and snapshots.

use std::fmt;

/// Errors produced by [`crate::Engine`] operations.
#[derive(Debug)]
pub enum EngineError {
    /// Operator construction failed.
    Core(ddc_core::CoreError),
    /// Index construction or search failed.
    Index(ddc_index::IndexError),
    /// Invalid engine configuration or manifest.
    Config(String),
    /// Snapshot container i/o or validation failed.
    Vecs(ddc_vecs::VecsError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "operator failure: {e}"),
            EngineError::Index(e) => write!(f, "index failure: {e}"),
            EngineError::Config(msg) => write!(f, "invalid engine config: {msg}"),
            EngineError::Vecs(e) => write!(f, "snapshot failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Index(e) => Some(e),
            EngineError::Vecs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ddc_core::CoreError> for EngineError {
    fn from(e: ddc_core::CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<ddc_index::IndexError> for EngineError {
    fn from(e: ddc_index::IndexError) -> Self {
        EngineError::Index(e)
    }
}

impl From<ddc_vecs::VecsError> for EngineError {
    fn from(e: ddc_vecs::VecsError) -> Self {
        EngineError::Vecs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = EngineError::Config("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(std::error::Error::source(&e).is_none());
        let e = EngineError::from(ddc_index::IndexError::Empty);
        assert!(std::error::Error::source(&e).is_some());
    }
}
