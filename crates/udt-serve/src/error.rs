//! Error type for the serving subsystem.

use udt_tree::TreeError;

/// Errors produced by the serving layer.
///
/// I/O errors are carried as rendered strings rather than
/// [`std::io::Error`] values so the type stays `Clone + PartialEq` —
/// responses cross thread and socket boundaries, and the wire protocol
/// flattens every error to a message anyway.
#[derive(Debug, Clone, PartialEq, thiserror::Error)]
pub enum ServeError {
    /// A socket or file operation failed.
    #[error("i/o error: {0}")]
    Io(String),

    /// A request or response line was not valid protocol JSON.
    #[error("protocol error: {0}")]
    Protocol(String),

    /// A request referenced a model name the registry does not hold.
    #[error("unknown model {0}")]
    UnknownModel(String),

    /// `load_model` targeted a name that is already bound (use `swap`).
    #[error("model {0} is already loaded; use swap to replace it")]
    ModelExists(String),

    /// The classification gate has been shut down.
    #[error("the serving queue is shut down")]
    QueueClosed,

    /// The line of requests waiting for a classification slot was full
    /// and the shed policy (or a bounded admission wait) rejected the
    /// request instead of blocking.
    #[error("server overloaded: the request queue is at capacity")]
    Overloaded,

    /// The request waited for a classification slot past its deadline
    /// and was dropped without being classified.
    #[error("deadline exceeded: the request expired in the serving queue")]
    DeadlineExceeded,

    /// Classifying this request panicked. The panic is caught per
    /// request; the slot and the server keep serving.
    #[error("a serving worker panicked: {0}")]
    WorkerPanic(String),

    /// The server reported an error for a request (client side). Carries
    /// the structured wire code alongside the message so callers can
    /// classify failures they do not map to a typed variant.
    #[error("server error ({code}): {message}")]
    Remote {
        /// The structured error code from the wire (`"error"` when the
        /// server predates codes).
        code: String,
        /// Human-readable failure description.
        message: String,
    },

    /// The server configuration was invalid.
    #[error("invalid serve configuration: {0}")]
    Config(String),

    /// An error bubbled up from the tree layer (model loading,
    /// classification).
    #[error("tree error: {0}")]
    Tree(#[from] TreeError),
}

impl ServeError {
    /// The structured wire code for this error, carried in the `"code"`
    /// field of error responses so clients can react to the *kind* of
    /// failure (shed vs. deadline vs. bad request) without parsing
    /// message text.
    pub fn code(&self) -> &str {
        match self {
            ServeError::Io(_) => "io",
            ServeError::Protocol(_) => "bad_request",
            ServeError::UnknownModel(_) => "unknown_model",
            ServeError::ModelExists(_) => "model_exists",
            ServeError::QueueClosed => "shutting_down",
            ServeError::Overloaded => "overloaded",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::WorkerPanic(_) => "internal",
            ServeError::Remote { code, .. } => code,
            ServeError::Config(_) => "config",
            ServeError::Tree(_) => "model",
        }
    }

    /// Whether a retry (on a fresh connection) has a reasonable chance
    /// of succeeding: transport failures and transient server states.
    /// Bad requests, unknown models and config errors are permanent and
    /// retrying them only adds load.
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Io(_)
            | ServeError::Overloaded
            | ServeError::DeadlineExceeded
            | ServeError::WorkerPanic(_)
            | ServeError::QueueClosed => true,
            ServeError::Remote { code, .. } => {
                matches!(
                    code.as_str(),
                    "overloaded" | "deadline_exceeded" | "internal" | "shutting_down"
                )
            }
            _ => false,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(ServeError::UnknownModel("iris".into())
            .to_string()
            .contains("iris"));
        assert!(ServeError::ModelExists("iris".into())
            .to_string()
            .contains("swap"));
        let io: ServeError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        let tree: ServeError = TreeError::NoClasses.into();
        assert!(tree.to_string().contains("classes"));
    }

    #[test]
    fn codes_and_transience_classify_the_failure_modes() {
        assert_eq!(ServeError::Overloaded.code(), "overloaded");
        assert_eq!(ServeError::DeadlineExceeded.code(), "deadline_exceeded");
        assert_eq!(ServeError::WorkerPanic("boom".into()).code(), "internal");
        assert_eq!(ServeError::UnknownModel("x".into()).code(), "unknown_model");
        assert_eq!(ServeError::QueueClosed.code(), "shutting_down");

        // Transient: worth a retry on a fresh connection.
        assert!(ServeError::Overloaded.is_transient());
        assert!(ServeError::DeadlineExceeded.is_transient());
        assert!(ServeError::Io("reset".into()).is_transient());
        assert!(ServeError::WorkerPanic("boom".into()).is_transient());
        let remote = ServeError::Remote {
            code: "overloaded".into(),
            message: "queue full".into(),
        };
        assert!(remote.is_transient());
        assert!(remote.to_string().contains("overloaded"));

        // Permanent: retrying only adds load.
        assert!(!ServeError::UnknownModel("x".into()).is_transient());
        assert!(!ServeError::Protocol("bad".into()).is_transient());
        assert!(!ServeError::Remote {
            code: "unknown_model".into(),
            message: "nope".into()
        }
        .is_transient());
    }
}
