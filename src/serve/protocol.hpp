// The cybok-serve wire protocol: length-prefixed JSON lines.
//
// A frame is
//
//   LENGTH '\n' PAYLOAD '\n'
//
// where LENGTH is the ASCII decimal byte count of PAYLOAD (1–8 digits, no
// sign, no leading '+'; an optional '\r' before the first '\n' is accepted
// so `nc -C` and telnet transcripts work), and PAYLOAD is one complete
// JSON object in exactly that many bytes. The trailing '\n' is a frame
// terminator, not part of the payload. Both directions use the same
// framing; docs/PROTOCOL.md is the client-author reference and carries a
// worked `nc` transcript.
//
// Every request object carries `type` (one of the wire names in
// known_message_types()) and an optional integer `id` echoed verbatim in
// the response, so clients may pipeline. Responses are `{"id", "ok":
// true, "type", "result": {...}}` or `{"id", "ok": false, "error":
// {"code", "message"}}` with `code` one of known_error_codes().
//
// Decode failures are *typed*, never crashes: framing violations raise
// ProtocolError(ErrorCode::BadFrame) and poison the decoder (the stream
// position is unrecoverable, the server closes the connection); payload
// violations (bad JSON, unknown type, missing/mistyped fields) raise
// BadRequest/UnknownType and leave the connection usable — the next frame
// is independent. tests/test_serve_protocol.cpp drives every message type
// round-trip and the adversarial-frame matrix under asan.
//
// Doc-comment standard and lockstep: the two tables below
// (known_message_types / known_error_codes) are the protocol's source of
// truth; a test asserts every wire name appears in docs/PROTOCOL.md so
// the doc cannot drift from this header.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace cybok::serve {

/// Protocol revision carried in the `hello` response. Bumped on any
/// incompatible change to framing or message schemas.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Default ceiling on one frame's payload size. Large enough for any
/// model DSL or report this repo produces; small enough that a garbage
/// length prefix cannot make the server buffer gigabytes.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

/// Typed error codes carried in the `error.code` field of a failure
/// response. The wire names are stable API (clients switch on them).
enum class ErrorCode : std::uint8_t {
    BadFrame,      ///< framing violated; the server closes the connection
    BadRequest,    ///< payload not a JSON object / missing or mistyped field
    UnknownType,   ///< `type` is not a known wire name
    UnknownSession,///< `session` names no open session
    ModelInvalid,  ///< model DSL failed to parse or validate
    Overloaded,    ///< bounded request queue full — retry with backoff
    SessionLimit,  ///< registry at max_sessions — close one or raise the cap
    SwapFailed,    ///< snapshot.swap rejected; the old generation keeps serving
    DeltaFailed,   ///< delta.apply rejected; the old generation keeps serving
    CompactFailed, ///< compact failed; the segmented generation keeps serving
    ShuttingDown,  ///< server is draining; no new work accepted
    Internal,      ///< unexpected server-side failure (bug or injected fault)
};
[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

/// One row of the error-code table (rendered in docs/PROTOCOL.md).
struct ErrorCodeInfo {
    ErrorCode code;
    std::string_view wire;    ///< stable wire name, e.g. "overloaded"
    std::string_view summary; ///< one-line meaning + client action
};
/// Every error code, in enum order. Tests assert the table is complete
/// and that docs/PROTOCOL.md mentions each wire name.
[[nodiscard]] const std::vector<ErrorCodeInfo>& known_error_codes();

/// A protocol violation, carrying the typed code the error response (or
/// connection teardown) should use.
class ProtocolError : public Error {
public:
    ProtocolError(ErrorCode code, const std::string& what) : Error(what), code_(code) {}
    [[nodiscard]] ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

/// Every request type the server dispatches. Wire names are dotted
/// lowercase ("session.open"); the enum is the in-process form.
enum class MsgType : std::uint8_t {
    Hello,        ///< handshake: server + protocol version, generation, corpus shape
    Ping,         ///< liveness probe; echoes `text`
    SessionOpen,  ///< create a session (base-model overlay, or own model DSL)
    SessionClose, ///< drop a session
    SessionList,  ///< enumerate open sessions
    Query,        ///< free-text search against the shared engine (no session)
    Associate,    ///< a session's association table (Table 1 rows)
    WhatIf,       ///< evaluate a candidate model DSL against a session; optional commit
    Posture,      ///< a session's per-component security posture
    FlowAnalyze,  ///< a session's dataflow fixpoint view (taint/slices/chokepoints)
    Metrics,      ///< server/registry counters, or one session's AssocMetrics
    SnapshotSwap, ///< admin: switch to a new snapshot generation
    DeltaApply,   ///< admin: apply a frozen corpus delta as a new generation
    Compact,      ///< admin: fold delta segments into a fresh base generation
    Shutdown,     ///< admin: graceful stop after the response is written
    FleetAnalyze, ///< batch-analyze N generated zoo systems; comparative ranking
};
[[nodiscard]] std::string_view message_type_name(MsgType type) noexcept;

/// One row of the message-type table (rendered in docs/PROTOCOL.md).
struct MessageTypeInfo {
    MsgType type;
    std::string_view wire;    ///< stable wire name, e.g. "session.open"
    std::string_view summary; ///< one-line purpose
};
/// Every message type, in enum order — the lockstep table the protocol
/// doc and the round-trip tests iterate.
[[nodiscard]] const std::vector<MessageTypeInfo>& known_message_types();

// -- framing -----------------------------------------------------------------

/// Wrap a payload in the length-prefixed frame. `payload` must be the
/// exact bytes to send (normally compact JSON from json::dump).
[[nodiscard]] std::string encode_frame(std::string_view payload);
/// dump(v) + encode_frame.
[[nodiscard]] std::string encode_frame(const json::Value& v);
/// Exact-match overload: a std::string payload would otherwise be
/// ambiguous between string_view and json::Value (which converts
/// implicitly from std::string).
[[nodiscard]] inline std::string encode_frame(const std::string& payload) {
    return encode_frame(std::string_view(payload));
}

/// Incremental frame decoder: feed() arbitrary byte chunks as they arrive
/// from the socket, then drain complete payloads with next(). Framing
/// violations (non-digit length, oversized frame, missing terminator)
/// throw ProtocolError(BadFrame) and poison the decoder — after a framing
/// error the byte stream has no recoverable resynchronization point, so
/// the owner must close the connection.
class FrameDecoder {
public:
    explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
        : max_frame_bytes_(max_frame_bytes) {}

    /// Append raw bytes from the transport.
    void feed(std::string_view bytes);

    /// The next complete payload, or nullopt when more bytes are needed.
    /// Throws ProtocolError(BadFrame) on a framing violation.
    [[nodiscard]] std::optional<std::string> next();

    /// Bytes buffered but not yet consumed as frames.
    [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }
    [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

private:
    std::size_t max_frame_bytes_;
    std::string buffer_;
    std::size_t consumed_ = 0; ///< prefix of buffer_ already emitted
    bool poisoned_ = false;
};

// -- requests ----------------------------------------------------------------

/// A decoded request: the type plus the union of every field any request
/// uses (unused fields keep their defaults). Field semantics per type are
/// specified in docs/PROTOCOL.md; decode_request enforces per-type
/// required fields with typed errors.
struct Request {
    MsgType type = MsgType::Ping;
    std::int64_t id = 0;      ///< client correlation id, echoed in the response
    std::string session;      ///< session.close/associate/whatif/posture/flow.analyze/metrics
    std::string text;         ///< query: the free-text query; ping: echo payload
    std::string cls;          ///< query: "pattern"|"weakness"|"vulnerability"|"" (all)
    std::size_t limit = 10;   ///< query: max hits returned per class
    std::string model_dsl;    ///< session.open (optional) / whatif (required)
    bool commit = false;      ///< whatif: adopt the candidate on this session
    std::string snapshot;     ///< snapshot.swap: path to the new snapshot blob
    std::string delta;        ///< delta.apply: path to a frozen corpus-delta blob
    std::size_t systems = 8;  ///< fleet.analyze: systems to generate, in [1, 4096]
    std::string domains;      ///< fleet.analyze: csv of zoo domains ("" = all four)
    std::uint64_t seed = 11;  ///< fleet.analyze: base seed (system i uses seed + i)
    std::size_t components = 40; ///< fleet.analyze: components per system
};

/// Parse one frame payload into a Request. Throws ProtocolError with
/// BadRequest (not JSON / not an object / field of the wrong type /
/// missing required field) or UnknownType.
[[nodiscard]] Request decode_request(std::string_view payload);

/// Re-encode a Request as its wire JSON object (round-trip inverse of
/// decode_request; the client subcommand and tests build requests this way).
[[nodiscard]] json::Value encode_request(const Request& req);

// -- responses ---------------------------------------------------------------

/// Build a success response envelope.
[[nodiscard]] json::Value ok_response(std::int64_t id, MsgType type, json::Value result);
/// Build a failure response envelope.
[[nodiscard]] json::Value error_response(std::int64_t id, ErrorCode code,
                                         std::string_view message);

/// A decoded response (client side). `body` is the `result` object on
/// success, null otherwise.
struct Response {
    std::int64_t id = 0;
    bool ok = false;
    std::string type;          ///< echoed request type ("" on failure)
    json::Value body;          ///< `result` on success
    std::string error_code;    ///< wire error code on failure
    std::string error_message; ///< human-readable detail on failure
};

/// Parse one frame payload into a Response. Throws ProtocolError
/// (BadRequest) when the payload is not a valid response envelope.
[[nodiscard]] Response decode_response(std::string_view payload);

} // namespace cybok::serve
