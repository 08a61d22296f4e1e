//! The wire error contract: every failure a client can cause (or the
//! server can hit) becomes a structured JSON body with a machine-readable
//! code, never a dropped connection or a panic message.
//!
//! The shape — documented in `docs/PROTOCOL.md` and pinned by
//! `tests/integration_serve.rs` — is:
//!
//! ```json
//! {"error": {"status": 400, "code": "invalid_json", "message": "..."}}
//! ```

use serde::Value;

/// A structured HTTP error: status code, stable machine-readable `code`
/// slug, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (400/404/405/408/413/500/503).
    pub status: u16,
    /// Stable machine-readable slug (`invalid_json`, `unknown_field`,
    /// `invalid_query`, `invalid_layer`, `invalid_gpu`, `not_found`,
    /// `method_not_allowed`, `request_timeout`, `payload_too_large`,
    /// `internal`, `overloaded`).
    pub code: String,
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given code slug.
    pub fn bad_request(code: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// 404 for an unroutable path.
    pub fn not_found(path: &str) -> ApiError {
        ApiError {
            status: 404,
            code: "not_found".into(),
            message: format!(
                "no such endpoint `{path}` (have: POST /eval, POST /step, POST /sweep, \
                 GET /healthz, GET /stats, GET /metrics)"
            ),
        }
    }

    /// 405 for a known path hit with the wrong method.
    pub fn method_not_allowed(method: &str, path: &str, allowed: &str) -> ApiError {
        ApiError {
            status: 405,
            code: "method_not_allowed".into(),
            message: format!("`{path}` does not accept {method} (use {allowed})"),
        }
    }

    /// 408 for a request head that did not arrive within `limit` of
    /// the connection being accepted.
    pub fn request_timeout(limit: std::time::Duration) -> ApiError {
        ApiError {
            status: 408,
            code: "request_timeout".into(),
            message: format!(
                "request head not received within {} ms of connecting",
                limit.as_millis()
            ),
        }
    }

    /// 503 for a connection that arrived while every handler was busy
    /// and the queue in front of them was full.
    pub fn overloaded() -> ApiError {
        ApiError {
            status: 503,
            code: "overloaded".into(),
            message: "every handler is busy and the connection queue is full; retry later".into(),
        }
    }

    /// 413 for a body past the server's size cap.
    pub fn payload_too_large(limit: usize) -> ApiError {
        ApiError {
            status: 413,
            code: "payload_too_large".into(),
            message: format!("request body exceeds the {limit}-byte limit"),
        }
    }

    /// 500 for a server-side failure (serialization of a result, never a
    /// client mistake).
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            code: "internal".into(),
            message: message.into(),
        }
    }

    /// The error's JSON document as a [`Value`] tree — the inner object
    /// of the `{"error": ...}` envelope, reusable by the sweep stream's
    /// per-line errors.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![(
            "error".into(),
            Value::Map(vec![
                ("status".into(), Value::U64(u64::from(self.status))),
                ("code".into(), Value::Str(self.code.clone())),
                ("message".into(), Value::Str(self.message.clone())),
            ]),
        )])
    }

    /// The serialized response body.
    pub fn body(&self) -> String {
        // The tree holds only integers and strings, so serialization
        // cannot fail; the fallback is unreachable but keeps this
        // infallible by construction.
        serde_json::to_string(&self.to_value())
            .unwrap_or_else(|_| "{\"error\":{\"status\":500,\"code\":\"internal\"}}".into())
    }
}

impl From<delta_model::Error> for ApiError {
    /// Domain validation failures are client mistakes: the query named
    /// an impossible layer, an invalid GPU spec, or a fleet the backend
    /// refuses (mixed devices) — all 400s with the variant as the code.
    fn from(e: delta_model::Error) -> ApiError {
        let code = match e {
            delta_model::Error::InvalidLayer { .. } => "invalid_layer",
            delta_model::Error::InvalidGpu { .. } => "invalid_gpu",
            delta_model::Error::InvalidDesignOption { .. } => "invalid_design_option",
            // `Error` is non_exhaustive; future variants are still client
            // validation failures until proven otherwise.
            _ => "invalid_query",
        };
        ApiError::bad_request(code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_is_the_documented_envelope() {
        let e = ApiError::bad_request("invalid_json", "bad \"quote\"");
        let body = e.body();
        assert_eq!(
            body,
            "{\"error\":{\"status\":400,\"code\":\"invalid_json\",\
             \"message\":\"bad \\\"quote\\\"\"}}"
        );
    }

    #[test]
    fn model_errors_map_to_400_with_variant_codes() {
        let e: ApiError = delta_model::Error::InvalidGpu {
            name: "g".into(),
            reason: "mixed fleet".into(),
        }
        .into();
        assert_eq!(e.status, 400);
        assert_eq!(e.code, "invalid_gpu");
        assert!(e.message.contains("mixed fleet"));
    }
}
