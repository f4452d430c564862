//! Server-level errors (binding, I/O, configuration).

/// Anything that can stop the server from starting or accepting.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, accept, clone).
    Io(std::io::Error),
    /// Invalid serving configuration.
    Config(String),
    /// An engine build/open failure surfaced at serving time.
    Engine(ddc_engine::EngineError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Config(m) => write!(f, "config: {m}"),
            ServerError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

impl From<ddc_engine::EngineError> for ServerError {
    fn from(e: ddc_engine::EngineError) -> ServerError {
        ServerError::Engine(e)
    }
}
