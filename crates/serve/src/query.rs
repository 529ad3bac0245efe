//! Query-string parsing with structured errors.
//!
//! `?domain=wordlm&params=10000000&subbatch=16` → typed lookups. Every
//! failure mode — bad percent-encoding, duplicate keys, unparsable numbers,
//! unknown enum values — is an [`ApiError`] that renders as an HTTP 400 with
//! a JSON body; nothing in this module panics on hostile input.

use modelzoo::Domain;

use obs::Json;

/// A structured request-handling error: HTTP status + machine-readable code
/// + human message. Renders as the server's JSON error body.
#[derive(Clone, Debug, PartialEq)]
pub struct ApiError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Stable machine-readable error code (e.g. `bad_parameter`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// A 400 with the given code and message.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code,
            message: message.into(),
        }
    }

    /// The JSON error body.
    pub fn body(&self) -> Json {
        Json::obj()
            .set("error", self.code)
            .set("message", self.message.as_str())
            .set("status", u64::from(self.status))
    }
}

/// Percent-decode a query component (`+` means space).
fn percent_decode(s: &str) -> Result<String, ApiError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).ok_or_else(|| {
                    ApiError::bad_request("bad_encoding", "truncated percent escape")
                })?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| ApiError::bad_request("bad_encoding", "non-ASCII escape"))?;
                let byte = u8::from_str_radix(hex, 16).map_err(|_| {
                    ApiError::bad_request("bad_encoding", format!("invalid escape %{hex}"))
                })?;
                out.push(byte);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out)
        .map_err(|_| ApiError::bad_request("bad_encoding", "query is not valid UTF-8"))
}

/// Parsed query parameters.
#[derive(Clone, Debug, Default)]
pub struct Query {
    pairs: Vec<(String, String)>,
}

impl Query {
    /// Parse the part after `?`. Empty string ⇒ no parameters.
    pub fn parse(raw: &str) -> Result<Query, ApiError> {
        let mut pairs = Vec::new();
        if raw.is_empty() {
            return Ok(Query { pairs });
        }
        if raw.len() > 2048 {
            return Err(ApiError::bad_request(
                "query_too_long",
                "query string over 2048 bytes",
            ));
        }
        for piece in raw.split('&') {
            if piece.is_empty() {
                continue;
            }
            let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
            let k = percent_decode(k)?;
            let v = percent_decode(v)?;
            if pairs.iter().any(|(existing, _)| existing == &k) {
                return Err(ApiError::bad_request(
                    "duplicate_parameter",
                    format!("parameter {k:?} given more than once"),
                ));
            }
            pairs.push((k, v));
        }
        Ok(Query { pairs })
    }

    /// Remove and return `key`'s value. Used by the dispatcher to strip
    /// transport-level parameters (`debug`) before handlers validate the
    /// remainder with [`Query::check_known`], so cache keys never see them.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let at = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(at).1)
    }

    /// Raw string value of `key`.
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Typed optional parameter.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ApiError> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                ApiError::bad_request(
                    "bad_parameter",
                    format!("parameter {key}={v:?} is not a valid value"),
                )
            }),
        }
    }

    /// Typed required parameter.
    pub fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, ApiError> {
        self.opt(key)?.ok_or_else(|| {
            ApiError::bad_request(
                "missing_parameter",
                format!("parameter {key:?} is required"),
            )
        })
    }

    /// The `domain` parameter, by machine key (`wordlm`, `charlm`, `nmt`,
    /// `speech`, `resnet`).
    pub fn domain(&self) -> Result<Domain, ApiError> {
        let raw: String = self.required("domain")?;
        Domain::ALL
            .into_iter()
            .find(|d| d.key() == raw)
            .ok_or_else(|| {
                let known: Vec<&str> = Domain::ALL.iter().map(|d| d.key()).collect();
                ApiError::bad_request(
                    "unknown_domain",
                    format!(
                        "unknown domain {raw:?}; expected one of {}",
                        known.join(", ")
                    ),
                )
            })
    }

    /// Reject parameters outside `known` so typos fail loudly.
    pub fn check_known(&self, known: &[&str]) -> Result<(), ApiError> {
        for (k, _) in &self.pairs {
            if !known.contains(&k.as_str()) {
                return Err(ApiError::bad_request(
                    "unknown_parameter",
                    format!(
                        "unknown parameter {k:?}; expected one of {}",
                        known.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typed_parameters() {
        let q = Query::parse("domain=wordlm&params=1000&subbatch=16").expect("parses");
        assert_eq!(q.domain().expect("domain"), Domain::WordLm);
        assert_eq!(q.opt::<u64>("params").expect("ok"), Some(1000));
        assert_eq!(q.opt::<u64>("missing").expect("ok"), None);
        assert!(q.check_known(&["domain", "params", "subbatch"]).is_ok());
    }

    #[test]
    fn take_removes_the_parameter() {
        let mut q = Query::parse("domain=wordlm&debug=timings").expect("parses");
        assert_eq!(q.take("debug").as_deref(), Some("timings"));
        assert_eq!(q.take("debug"), None);
        assert!(q.check_known(&["domain"]).is_ok(), "debug is gone");
    }

    #[test]
    fn percent_decoding_and_plus() {
        let q = Query::parse("name=a%20b+c%2F").expect("parses");
        assert_eq!(q.raw("name"), Some("a b c/"));
    }

    #[test]
    fn structured_errors_for_bad_input() {
        assert_eq!(Query::parse("a=%zz").unwrap_err().code, "bad_encoding");
        assert_eq!(Query::parse("a=%f").unwrap_err().code, "bad_encoding");
        assert_eq!(
            Query::parse("a=1&a=2").unwrap_err().code,
            "duplicate_parameter"
        );
        let q = Query::parse("domain=klingon").expect("parses");
        assert_eq!(q.domain().unwrap_err().code, "unknown_domain");
        let q = Query::parse("params=banana").expect("parses");
        assert_eq!(q.opt::<u64>("params").unwrap_err().code, "bad_parameter");
        let q = Query::parse("extra=1").expect("parses");
        assert_eq!(
            q.check_known(&["domain"]).unwrap_err().code,
            "unknown_parameter"
        );
        let q = Query::parse("").expect("parses");
        assert_eq!(q.domain().unwrap_err().code, "missing_parameter");
    }

    #[test]
    fn oversized_query_rejected() {
        let raw = format!("k={}", "x".repeat(3000));
        assert_eq!(Query::parse(&raw).unwrap_err().code, "query_too_long");
    }
}
