//! The service-plane protocol: versioned request/response types and their
//! JSON codec.
//!
//! Each frame body (see [`frame`](crate::rpc::frame)) is one JSON object.
//! Requests carry an *envelope* — protocol version `v`, client-chosen
//! correlation id `id`, optional `tenant` claim — plus an `op` tag naming
//! the [`Request`] variant and that variant's fields inline. Responses echo
//! `v` and `id` and carry a `kind` tag naming the [`Response`] variant:
//!
//! ```text
//!   → {"v":1,"id":42,"op":"register","kind":"coverage",
//!      "subject":"bedroom","value":25.0}
//!   ← {"v":1,"id":42,"kind":"registered","service":3,"task":7}
//!
//!   → {"v":1,"id":43,"op":"register","kind":"coverage",
//!      "subject":"bedroom","value":25.0}
//!   ← {"v":1,"id":43,"kind":"rejected",
//!      "reason":"tenant quota exhausted: 4 live services (cap 4)"}
//! ```
//!
//! # Version negotiation
//!
//! [`PROTOCOL_VERSION`] is 1. A server rejects any request whose `v` it
//! does not speak with a [`Response::Error`] naming its own version —
//! except `op:"ping"`, which is defined to be decodable under *every*
//! version so a client can always learn the server's version from the
//! [`Response::Pong`] it gets back, then downgrade or give up.
//!
//! # Encoding and decoding
//!
//! Encoding goes through the vendored serde shim into compact JSON;
//! decoding parses with the same crate's [`JsonValue`] parser. Both
//! directions of both types are implemented so clients, servers and tests
//! share one codec:
//!
//! ```
//! use surfos::rpc::proto::{Request, RequestEnvelope, Response};
//!
//! let env = RequestEnvelope::new(7, Request::Ping);
//! let (back, json) = (RequestEnvelope::decode(&env.encode()).unwrap(), env.encode());
//! assert_eq!(back.id, 7);
//! assert!(matches!(back.request, Request::Ping));
//! assert!(json.starts_with(r#"{"v":1,"#));
//!
//! let resp = Response::Rejected { reason: "no surfaces deployed".into() };
//! let decoded = Response::decode(&resp.encode(1)).unwrap();
//! assert!(matches!(decoded.1, Response::Rejected { .. }));
//! ```

use serde::ser::{Serialize, SerializeStruct, Serializer};
use surfos_obs::{to_json, JsonValue};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// The largest integer the wire carries (ids, versions, lease and task
/// ids): 2^53 − 1. JSON numbers decode to `f64`, which holds every integer
/// up to here exactly; a larger literal may already be rounded, so it is
/// refused rather than echoed back changed.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// A decoding failure: what was wrong with the frame body.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// One service-plane operation, as named by the envelope's `op` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + version probe. Decodable under every protocol version.
    Ping,
    /// Register a service: the daemon routes this through tenant
    /// registration and admission, then submits it to the kernel.
    RegisterService {
        /// Service class: `coverage`, `link`, `sensing`, `powering` or
        /// `protect` (the shell's `request` vocabulary).
        kind: String,
        /// The subject room or endpoint id.
        subject: String,
        /// The goal value (target SNR dB, duration s, max leak dBm, … —
        /// meaning depends on `kind`).
        value: f64,
    },
    /// Release a service lease previously granted to this tenant.
    ReleaseService {
        /// The lease id from [`Response::Registered`].
        service: u64,
    },
    /// Submit a natural-language intent; the broker grounds it into
    /// service tasks.
    SubmitIntent {
        /// The utterance, e.g. `"I want to watch a movie on my laptop"`.
        utterance: String,
    },
    /// Evaluate the current channel between two registered endpoints.
    QueryChannel {
        /// Transmitter endpoint id.
        tx: String,
        /// Receiver endpoint id.
        rx: String,
    },
    /// Fetch the daemon's observability snapshot as JSON.
    Metrics {
        /// When true, return the run-invariant projection (wall-clock
        /// series dropped) instead of the full snapshot.
        deterministic: bool,
    },
}

impl Request {
    /// The envelope `op` tag for this variant.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::RegisterService { .. } => "register",
            Request::ReleaseService { .. } => "release",
            Request::SubmitIntent { .. } => "intent",
            Request::QueryChannel { .. } => "query",
            Request::Metrics { .. } => "metrics",
        }
    }
}

/// A request plus its envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Protocol version the client speaks.
    pub v: u64,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Optional tenant claim; the first claim on a connection names its
    /// session tenant (otherwise the daemon assigns one).
    pub tenant: Option<String>,
    /// The operation.
    pub request: Request,
}

impl RequestEnvelope {
    /// An envelope at [`PROTOCOL_VERSION`] with no tenant claim.
    pub fn new(id: u64, request: Request) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            id,
            tenant: None,
            request,
        }
    }

    /// Same, claiming a tenant name.
    pub fn with_tenant(id: u64, tenant: impl Into<String>, request: Request) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            id,
            tenant: Some(tenant.into()),
            request,
        }
    }

    /// Encodes the envelope as a compact JSON object (one frame body).
    pub fn encode(&self) -> String {
        to_json(self)
    }

    /// Decodes a frame body into an envelope.
    ///
    /// Unknown `op` tags and missing or mistyped fields are errors; the
    /// error text names the offending field so wire bugs are debuggable
    /// from the peer's error response alone.
    pub fn decode(body: &str) -> Result<RequestEnvelope, ProtoError> {
        let v = JsonValue::parse(body).map_err(|e| ProtoError(format!("bad JSON: {e}")))?;
        let version = get_u64(&v, "v")?;
        let id = get_u64(&v, "id")?;
        let tenant = match v.get("tenant") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ProtoError("field \"tenant\" must be a string".into())),
        };
        let op = get_str(&v, "op")?;
        let request = match op.as_str() {
            "ping" => Request::Ping,
            // Every other op requires the version to match exactly; ping
            // stays decodable so version discovery always works.
            _ if version != PROTOCOL_VERSION => {
                return Err(ProtoError(format!(
                    "unsupported protocol version {version} (this peer speaks {PROTOCOL_VERSION})"
                )));
            }
            "register" => Request::RegisterService {
                kind: get_str(&v, "kind")?,
                subject: get_str(&v, "subject")?,
                value: get_f64(&v, "value")?,
            },
            "release" => Request::ReleaseService {
                service: get_u64(&v, "service")?,
            },
            "intent" => Request::SubmitIntent {
                utterance: get_str(&v, "utterance")?,
            },
            "query" => Request::QueryChannel {
                tx: get_str(&v, "tx")?,
                rx: get_str(&v, "rx")?,
            },
            "metrics" => Request::Metrics {
                deterministic: match v.get("deterministic") {
                    None => false,
                    Some(b) => b.as_bool().ok_or_else(|| {
                        ProtoError("field \"deterministic\" must be a bool".into())
                    })?,
                },
            },
            other => return Err(ProtoError(format!("unknown op {other:?}"))),
        };
        Ok(RequestEnvelope {
            v: version,
            id,
            tenant,
            request,
        })
    }
}

impl Serialize for RequestEnvelope {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("RequestEnvelope", 4)?;
        st.serialize_field("v", &self.v)?;
        st.serialize_field("id", &self.id)?;
        if let Some(tenant) = &self.tenant {
            st.serialize_field("tenant", tenant)?;
        }
        st.serialize_field("op", self.request.op())?;
        match &self.request {
            Request::Ping => {}
            Request::RegisterService {
                kind,
                subject,
                value,
            } => {
                st.serialize_field("kind", kind)?;
                st.serialize_field("subject", subject)?;
                st.serialize_field("value", value)?;
            }
            Request::ReleaseService { service } => st.serialize_field("service", service)?,
            Request::SubmitIntent { utterance } => st.serialize_field("utterance", utterance)?,
            Request::QueryChannel { tx, rx } => {
                st.serialize_field("tx", tx)?;
                st.serialize_field("rx", rx)?;
            }
            Request::Metrics { deterministic } => {
                st.serialize_field("deterministic", deterministic)?;
            }
        }
        st.end()
    }
}

/// One service-plane reply, as named by its `kind` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`]: the server's version and the tenant
    /// name bound to this session.
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u64,
        /// This connection's tenant id.
        tenant: String,
    },
    /// The service was admitted.
    Registered {
        /// The lease id (pass to [`Request::ReleaseService`]).
        service: u64,
        /// The kernel task id backing the lease.
        task: u64,
    },
    /// The lease was released and its kernel task retired.
    Released {
        /// The released lease id.
        service: u64,
    },
    /// The intent was grounded into these kernel task ids (may be empty
    /// when no service matched the utterance).
    IntentTasks {
        /// Admitted task ids.
        tasks: Vec<u64>,
    },
    /// Channel evaluation result.
    Channel {
        /// Received signal strength, dBm.
        rss_dbm: f64,
        /// Signal-to-noise ratio, dB.
        snr_db: f64,
        /// Shannon capacity, bits/s.
        capacity_bps: f64,
    },
    /// The observability snapshot, as a JSON document in a string field.
    Metrics {
        /// The snapshot JSON (parse with `surfos_obs::JsonValue`).
        json: String,
    },
    /// The request was understood but *not admitted* — over-demand is a
    /// structured outcome, never a hang or a dropped connection.
    Rejected {
        /// Why admission failed (quota, capacity, no resources, …).
        reason: String,
    },
    /// The request could not be served (unknown endpoint, bad version,
    /// malformed body, unowned lease, …).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// The `kind` tag for this variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Pong { .. } => "pong",
            Response::Registered { .. } => "registered",
            Response::Released { .. } => "released",
            Response::IntentTasks { .. } => "intent",
            Response::Channel { .. } => "channel",
            Response::Metrics { .. } => "metrics",
            Response::Rejected { .. } => "rejected",
            Response::Error { .. } => "error",
        }
    }

    /// Encodes the response, echoing the request's correlation `id`.
    pub fn encode(&self, id: u64) -> String {
        to_json(&ResponseFrame { id, response: self })
    }

    /// Decodes a frame body into `(correlation id, response)`.
    pub fn decode(body: &str) -> Result<(u64, Response), ProtoError> {
        let v = JsonValue::parse(body).map_err(|e| ProtoError(format!("bad JSON: {e}")))?;
        let id = get_u64(&v, "id")?;
        let kind = get_str(&v, "kind")?;
        let response = match kind.as_str() {
            "pong" => Response::Pong {
                version: get_u64(&v, "version")?,
                tenant: get_str(&v, "tenant")?,
            },
            "registered" => Response::Registered {
                service: get_u64(&v, "service")?,
                task: get_u64(&v, "task")?,
            },
            "released" => Response::Released {
                service: get_u64(&v, "service")?,
            },
            "intent" => {
                let tasks = v
                    .get("tasks")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| ProtoError("missing array field \"tasks\"".into()))?;
                Response::IntentTasks {
                    tasks: tasks
                        .iter()
                        .map(exact_int)
                        .collect::<Option<_>>()
                        .ok_or_else(|| ProtoError("task id not an integer in 0..=2^53-1".into()))?,
                }
            }
            "channel" => Response::Channel {
                rss_dbm: get_f64(&v, "rss_dbm")?,
                snr_db: get_f64(&v, "snr_db")?,
                capacity_bps: get_f64(&v, "capacity_bps")?,
            },
            "metrics" => Response::Metrics {
                json: get_str(&v, "json")?,
            },
            "rejected" => Response::Rejected {
                reason: get_str(&v, "reason")?,
            },
            "error" => Response::Error {
                message: get_str(&v, "message")?,
            },
            other => return Err(ProtoError(format!("unknown response kind {other:?}"))),
        };
        Ok((id, response))
    }
}

/// Serialization shell pairing a response with its correlation id.
struct ResponseFrame<'a> {
    id: u64,
    response: &'a Response,
}

impl Serialize for ResponseFrame<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("ResponseFrame", 4)?;
        st.serialize_field("v", &PROTOCOL_VERSION)?;
        st.serialize_field("id", &self.id)?;
        st.serialize_field("kind", self.response.kind())?;
        match self.response {
            Response::Pong { version, tenant } => {
                st.serialize_field("version", version)?;
                st.serialize_field("tenant", tenant)?;
            }
            Response::Registered { service, task } => {
                st.serialize_field("service", service)?;
                st.serialize_field("task", task)?;
            }
            Response::Released { service } => st.serialize_field("service", service)?,
            Response::IntentTasks { tasks } => st.serialize_field("tasks", tasks)?,
            Response::Channel {
                rss_dbm,
                snr_db,
                capacity_bps,
            } => {
                st.serialize_field("rss_dbm", rss_dbm)?;
                st.serialize_field("snr_db", snr_db)?;
                st.serialize_field("capacity_bps", capacity_bps)?;
            }
            Response::Metrics { json } => st.serialize_field("json", json)?,
            Response::Rejected { reason } => st.serialize_field("reason", reason)?,
            Response::Error { message } => st.serialize_field("message", message)?,
        }
        st.end()
    }
}

/// An integer in `0..=MAX_EXACT_INT`, the only numbers read as ids.
fn exact_int(v: &JsonValue) -> Option<u64> {
    v.as_f64()
        .filter(|f| *f >= 0.0 && f.fract() == 0.0 && *f <= MAX_EXACT_INT as f64)
        .map(|f| f as u64)
}

fn get_u64(v: &JsonValue, field: &str) -> Result<u64, ProtoError> {
    v.get(field).and_then(exact_int).ok_or_else(|| {
        ProtoError(format!(
            "missing field {field:?}, or not an integer in 0..=2^53-1"
        ))
    })
}

/// A finite number: an overflowing literal such as `1e999` parses to an
/// infinity, which the encoder could only write back as `null`.
fn get_f64(v: &JsonValue, field: &str) -> Result<f64, ProtoError> {
    v.get(field)
        .and_then(JsonValue::as_f64)
        .filter(|f| f.is_finite())
        .ok_or_else(|| {
            ProtoError(format!(
                "missing, non-numeric or non-finite field {field:?}"
            ))
        })
}

fn get_str(v: &JsonValue, field: &str) -> Result<String, ProtoError> {
    v.get(field)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ProtoError(format!("missing or non-string field {field:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
            Request::ReleaseService { service: 3 },
            Request::SubmitIntent {
                utterance: "start VR gaming \"now\"".into(),
            },
            Request::QueryChannel {
                tx: "ap0".into(),
                rx: "laptop".into(),
            },
            Request::Metrics {
                deterministic: true,
            },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong {
                version: PROTOCOL_VERSION,
                tenant: "tenant-0".into(),
            },
            Response::Registered {
                service: 9,
                task: 4,
            },
            Response::Released { service: 9 },
            Response::IntentTasks { tasks: vec![1, 2] },
            Response::IntentTasks { tasks: vec![] },
            Response::Channel {
                rss_dbm: -51.25,
                snr_db: 32.5,
                capacity_bps: 4.5e9,
            },
            Response::Metrics {
                json: r#"{"counters":{"rpc.requests":12}}"#.into(),
            },
            Response::Rejected {
                reason: "tenant quota exhausted: 4 live (cap 4)".into(),
            },
            Response::Error {
                message: "unknown endpoint \"ghost\"".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, req) in all_requests().into_iter().enumerate() {
            let env = RequestEnvelope::with_tenant(i as u64, format!("t{i}"), req.clone());
            let body = env.encode();
            let back = RequestEnvelope::decode(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(back, env, "{body}");
        }
        // And without a tenant claim.
        let env = RequestEnvelope::new(5, Request::Ping);
        assert_eq!(RequestEnvelope::decode(&env.encode()).unwrap(), env);
        assert!(!env.encode().contains("tenant"));
    }

    #[test]
    fn responses_round_trip() {
        for (i, resp) in all_responses().into_iter().enumerate() {
            let body = resp.encode(i as u64);
            let (id, back) = Response::decode(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(id, i as u64, "{body}");
            assert_eq!(back, resp, "{body}");
        }
    }

    #[test]
    fn metrics_payload_nests_as_a_parseable_document() {
        let inner = r#"{"counters":{"rpc.requests":12,"rpc.rejected":3}}"#;
        let body = Response::Metrics { json: inner.into() }.encode(0);
        let (_, back) = Response::decode(&body).unwrap();
        let Response::Metrics { json } = back else {
            panic!("wrong kind");
        };
        let doc = JsonValue::parse(&json).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("rpc.requests"))
                .and_then(JsonValue::as_f64),
            Some(12.0)
        );
    }

    #[test]
    fn unknown_op_and_kind_are_errors_not_panics() {
        let err = RequestEnvelope::decode(r#"{"v":1,"id":0,"op":"frobnicate"}"#).unwrap_err();
        assert!(err.0.contains("frobnicate"), "{err}");
        let err = Response::decode(r#"{"v":1,"id":0,"kind":"mystery"}"#).unwrap_err();
        assert!(err.0.contains("mystery"), "{err}");
    }

    #[test]
    fn missing_and_mistyped_fields_name_the_field() {
        for (body, needle) in [
            (r#"{"id":0,"op":"ping"}"#, "\"v\""),
            (r#"{"v":1,"op":"ping"}"#, "\"id\""),
            (r#"{"v":1,"id":0}"#, "\"op\""),
            (
                r#"{"v":1,"id":0,"op":"register","subject":"x","value":1}"#,
                "\"kind\"",
            ),
            (
                r#"{"v":1,"id":0,"op":"register","kind":"coverage","subject":"x","value":"high"}"#,
                "\"value\"",
            ),
            (
                r#"{"v":1,"id":0,"op":"release","service":-2}"#,
                "\"service\"",
            ),
            (
                r#"{"v":1,"id":0,"op":"register","kind":"coverage","subject":"x","value":1e999}"#,
                "non-finite field \"value\"",
            ),
            (r#"{"v":1,"id":0.5,"op":"ping"}"#, "\"id\""),
            (r#"{"v":1,"id":0,"tenant":7,"op":"ping"}"#, "\"tenant\""),
            (
                r#"{"v":1,"id":0,"op":"metrics","deterministic":"yes"}"#,
                "\"deterministic\"",
            ),
        ] {
            let err = RequestEnvelope::decode(body).unwrap_err();
            assert!(err.0.contains(needle), "{body} -> {err}");
        }
        assert!(RequestEnvelope::decode("[1,2,3]").is_err());
        assert!(RequestEnvelope::decode("not json at all").is_err());
        assert!(RequestEnvelope::decode("").is_err());
    }

    #[test]
    fn ids_are_exact_or_refused() {
        let env = RequestEnvelope::new(MAX_EXACT_INT, Request::ReleaseService { service: 1 });
        assert_eq!(RequestEnvelope::decode(&env.encode()).unwrap(), env);
        let tasks = Response::IntentTasks {
            tasks: vec![MAX_EXACT_INT],
        };
        let back = Response::decode(&tasks.encode(MAX_EXACT_INT)).unwrap();
        assert_eq!(back, (MAX_EXACT_INT, tasks));
        // 2^53 + 1 parses as 2^53, and 2^64 is past u64::MAX: neither may
        // decode, as an id or inside `tasks`.
        for n in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            let body = format!(r#"{{"v":1,"id":{n},"op":"ping"}}"#);
            assert!(RequestEnvelope::decode(&body).is_err(), "{body}");
            let body = format!(r#"{{"v":1,"id":{n},"kind":"released","service":1}}"#);
            assert!(Response::decode(&body).is_err(), "{body}");
            let body = format!(r#"{{"v":1,"id":1,"kind":"intent","tasks":[1,{n}]}}"#);
            assert!(Response::decode(&body).is_err(), "{body}");
        }
    }

    #[test]
    fn version_gate_spares_ping_only() {
        // A v2 ping decodes (version discovery must always work) …
        let ping = RequestEnvelope::decode(r#"{"v":2,"id":1,"op":"ping"}"#).unwrap();
        assert_eq!(ping.v, 2);
        assert!(matches!(ping.request, Request::Ping));
        // … but any other v2 op is rejected with the speaker's version.
        let err = RequestEnvelope::decode(r#"{"v":2,"id":1,"op":"query","tx":"a","rx":"b"}"#)
            .unwrap_err();
        assert!(err.0.contains("version 2"), "{err}");
        assert!(err.0.contains("speaks 1"), "{err}");
    }

    #[test]
    fn string_fields_escape_cleanly() {
        let env = RequestEnvelope::new(
            1,
            Request::SubmitIntent {
                utterance: "quote \" backslash \\ newline \n done".into(),
            },
        );
        let back = RequestEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
    }
}
