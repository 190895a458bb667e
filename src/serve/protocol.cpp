#include "serve/protocol.hpp"

#include <algorithm>

#include "util/fault.hpp"

namespace cybok::serve {

const std::vector<ErrorCodeInfo>& known_error_codes() {
    static const std::vector<ErrorCodeInfo> codes = {
        {ErrorCode::BadFrame, "bad_frame",
         "length prefix or terminator violated; the server closes the connection"},
        {ErrorCode::BadRequest, "bad_request",
         "payload is not a JSON object or a field is missing/mistyped; connection stays open"},
        {ErrorCode::UnknownType, "unknown_type", "`type` is not a known wire name"},
        {ErrorCode::UnknownSession, "unknown_session", "`session` names no open session"},
        {ErrorCode::ModelInvalid, "model_invalid",
         "model DSL failed to parse or validate; nothing was created or changed"},
        {ErrorCode::Overloaded, "overloaded",
         "request queue and admin backlog are full; retry with backoff"},
        {ErrorCode::SessionLimit, "session_limit",
         "registry is at max_sessions; close a session or raise the cap"},
        {ErrorCode::SwapFailed, "swap_failed",
         "snapshot.swap rejected (unreadable/corrupt blob); the old generation keeps serving"},
        {ErrorCode::DeltaFailed, "delta_failed",
         "delta.apply rejected (unreadable blob, validation failure, or non-BM25 engine); "
         "the old generation keeps serving"},
        {ErrorCode::CompactFailed, "compact_failed",
         "compaction fold failed; the segmented generation keeps serving, failure counted"},
        {ErrorCode::ShuttingDown, "shutting_down",
         "server is draining; no new work is accepted"},
        {ErrorCode::Internal, "internal", "unexpected server-side failure (bug or injected fault)"},
    };
    return codes;
}

std::string_view error_code_name(ErrorCode code) noexcept {
    const auto& codes = known_error_codes();
    const auto idx = static_cast<std::size_t>(code);
    return idx < codes.size() ? codes[idx].wire : "internal";
}

const std::vector<MessageTypeInfo>& known_message_types() {
    static const std::vector<MessageTypeInfo> types = {
        {MsgType::Hello, "hello",
         "handshake: server + protocol versions, current generation, corpus shape"},
        {MsgType::Ping, "ping", "liveness probe; echoes `text`"},
        {MsgType::SessionOpen, "session.open",
         "create a session: a copy-on-write overlay of the base model, or an own model DSL"},
        {MsgType::SessionClose, "session.close", "drop a session and free its overlay"},
        {MsgType::SessionList, "session.list", "enumerate open sessions"},
        {MsgType::Query, "query",
         "free-text search against the live generation (sessionless; never waits on a flip)"},
        {MsgType::Associate, "associate",
         "a session's association table: Table 1 rows plus per-class totals"},
        {MsgType::WhatIf, "whatif",
         "evaluate a candidate model DSL against a session; `commit` adopts it"},
        {MsgType::Posture, "posture", "a session's per-component security posture"},
        {MsgType::FlowAnalyze, "flow.analyze",
         "a session's dataflow fixpoint view: exposure taint, hazard slices, chokepoints"},
        {MsgType::Metrics, "metrics",
         "server/registry counters, or one session's AssocMetrics when `session` is set"},
        {MsgType::SnapshotSwap, "snapshot.swap",
         "admin: load a new snapshot and switch generations; running requests keep theirs"},
        {MsgType::DeltaApply, "delta.apply",
         "admin: apply a frozen corpus delta in O(delta) and switch generations"},
        {MsgType::Compact, "compact",
         "admin: fold delta segments into a fresh base generation and switch to it"},
        {MsgType::Shutdown, "shutdown", "admin: graceful stop after the response is written"},
        {MsgType::FleetAnalyze, "fleet.analyze",
         "batch-analyze N generated zoo systems on the shared engine; comparative ranking"},
    };
    return types;
}

std::string_view message_type_name(MsgType type) noexcept {
    const auto& types = known_message_types();
    const auto idx = static_cast<std::size_t>(type);
    return idx < types.size() ? types[idx].wire : "ping";
}

// -- framing -----------------------------------------------------------------

std::string encode_frame(std::string_view payload) {
    std::string frame = std::to_string(payload.size());
    frame += '\n';
    frame += payload;
    frame += '\n';
    return frame;
}

std::string encode_frame(const json::Value& v) {
    const std::string payload = json::dump(v);
    return encode_frame(std::string_view(payload));
}

void FrameDecoder::feed(std::string_view bytes) {
    // Compact the already-consumed prefix before growing, so a long-lived
    // connection's buffer stays proportional to its unread bytes.
    if (consumed_ > 0 && consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
    } else if (consumed_ > 4096) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(bytes);
}

std::optional<std::string> FrameDecoder::next() {
    CYBOK_FAULT_POINT("serve.frame.decode",
                      ProtocolError(ErrorCode::BadFrame, "injected: frame decode failed"));
    if (poisoned_)
        throw ProtocolError(ErrorCode::BadFrame, "frame decoder poisoned by earlier violation");
    const std::string_view view = std::string_view(buffer_).substr(consumed_);
    // Locate the length line. An optional '\r' before '\n' is tolerated.
    const std::size_t nl = view.find('\n');
    // 8 digits + '\r' bounds the longest legal length line; anything
    // longer without a newline can never become valid.
    constexpr std::size_t kMaxLengthLine = 9;
    if (nl == std::string_view::npos) {
        if (view.size() > kMaxLengthLine) {
            poisoned_ = true;
            throw ProtocolError(ErrorCode::BadFrame, "length prefix not terminated by newline");
        }
        return std::nullopt;
    }
    std::string_view digits = view.substr(0, nl);
    if (!digits.empty() && digits.back() == '\r') digits.remove_suffix(1);
    if (digits.empty() || digits.size() > 8 ||
        !std::all_of(digits.begin(), digits.end(), [](char c) { return c >= '0' && c <= '9'; })) {
        poisoned_ = true;
        throw ProtocolError(ErrorCode::BadFrame,
                            "bad length prefix: '" + std::string(digits.substr(0, 32)) + "'");
    }
    std::size_t length = 0;
    for (char c : digits) length = length * 10 + static_cast<std::size_t>(c - '0');
    if (length > max_frame_bytes_) {
        poisoned_ = true;
        throw ProtocolError(ErrorCode::BadFrame,
                            "frame of " + std::to_string(length) + " bytes exceeds limit of " +
                                std::to_string(max_frame_bytes_));
    }
    // Need the payload plus its one-byte terminator.
    if (view.size() < nl + 1 + length + 1) return std::nullopt;
    if (view[nl + 1 + length] != '\n') {
        poisoned_ = true;
        throw ProtocolError(ErrorCode::BadFrame, "payload not followed by newline terminator");
    }
    std::string payload(view.substr(nl + 1, length));
    consumed_ += nl + 1 + length + 1;
    return payload;
}

// -- requests ----------------------------------------------------------------

namespace {

/// at(key) with the typed protocol error instead of NotFoundError.
std::string require_string(const json::Value& obj, std::string_view key,
                           std::string_view type_name) {
    if (!obj.contains(key) || !obj.at(key).is_string())
        throw ProtocolError(ErrorCode::BadRequest, std::string(type_name) +
                                                       " requires string field `" +
                                                       std::string(key) + "`");
    return obj.at(key).as_string();
}

} // namespace

Request decode_request(std::string_view payload) {
    CYBOK_FAULT_POINT("serve.request.decode",
                      ProtocolError(ErrorCode::BadRequest, "injected: request decode failed"));
    json::Value doc;
    try {
        doc = json::parse(payload);
    } catch (const ParseError& e) {
        throw ProtocolError(ErrorCode::BadRequest, std::string("payload is not JSON: ") + e.what());
    }
    if (!doc.is_object())
        throw ProtocolError(ErrorCode::BadRequest, "payload must be a JSON object");
    if (!doc.contains("type") || !doc.at("type").is_string())
        throw ProtocolError(ErrorCode::BadRequest, "request requires string field `type`");
    const std::string& wire = doc.at("type").as_string();

    Request req;
    bool known = false;
    for (const MessageTypeInfo& info : known_message_types()) {
        if (info.wire == wire) {
            req.type = info.type;
            known = true;
            break;
        }
    }
    if (!known) throw ProtocolError(ErrorCode::UnknownType, "unknown request type: " + wire);

    if (doc.contains("id")) {
        if (!doc.at("id").is_number())
            throw ProtocolError(ErrorCode::BadRequest, "`id` must be a number");
        req.id = doc.at("id").as_int();
    }

    switch (req.type) {
    case MsgType::Hello:
    case MsgType::SessionList:
    case MsgType::Compact:
    case MsgType::Shutdown:
        break;
    case MsgType::Ping:
        req.text = doc.get_string("text");
        break;
    case MsgType::SessionOpen:
        req.model_dsl = doc.get_string("model"); // optional: empty = base overlay
        break;
    case MsgType::SessionClose:
    case MsgType::Associate:
    case MsgType::Posture:
    case MsgType::FlowAnalyze:
        req.session = require_string(doc, "session", wire);
        break;
    case MsgType::Query: {
        req.text = require_string(doc, "text", wire);
        req.cls = doc.get_string("class");
        if (req.cls != "" && req.cls != "pattern" && req.cls != "weakness" &&
            req.cls != "vulnerability")
            throw ProtocolError(ErrorCode::BadRequest,
                                "`class` must be pattern|weakness|vulnerability: " + req.cls);
        const std::int64_t limit = doc.get_int("limit", 10);
        if (limit < 0) throw ProtocolError(ErrorCode::BadRequest, "`limit` must be >= 0");
        req.limit = static_cast<std::size_t>(limit);
        break;
    }
    case MsgType::WhatIf:
        req.session = require_string(doc, "session", wire);
        req.model_dsl = require_string(doc, "model", wire);
        if (doc.contains("commit") && !doc.at("commit").is_bool())
            throw ProtocolError(ErrorCode::BadRequest, "`commit` must be a boolean");
        req.commit = doc.get_bool("commit", false);
        break;
    case MsgType::Metrics:
        req.session = doc.get_string("session"); // optional: empty = server-wide
        break;
    case MsgType::SnapshotSwap:
        req.snapshot = require_string(doc, "snapshot", wire);
        break;
    case MsgType::DeltaApply:
        req.delta = require_string(doc, "delta", wire);
        break;
    case MsgType::FleetAnalyze: {
        const std::int64_t systems = doc.get_int("systems", 8);
        if (systems < 1 || systems > 4096)
            throw ProtocolError(ErrorCode::BadRequest, "`systems` must be in [1, 4096]");
        req.systems = static_cast<std::size_t>(systems);
        const std::int64_t components = doc.get_int("components", 40);
        if (components < 10 || components > 10000)
            throw ProtocolError(ErrorCode::BadRequest, "`components` must be in [10, 10000]");
        req.components = static_cast<std::size_t>(components);
        const std::int64_t seed = doc.get_int("seed", 11);
        if (seed < 0) throw ProtocolError(ErrorCode::BadRequest, "`seed` must be >= 0");
        req.seed = static_cast<std::uint64_t>(seed);
        req.domains = doc.get_string("domains"); // csv; validated by the handler
        break;
    }
    }
    return req;
}

json::Value encode_request(const Request& req) {
    json::Object obj;
    obj["type"] = std::string(message_type_name(req.type));
    obj["id"] = req.id;
    switch (req.type) {
    case MsgType::Hello:
    case MsgType::SessionList:
    case MsgType::Compact:
    case MsgType::Shutdown:
        break;
    case MsgType::Ping:
        if (!req.text.empty()) obj["text"] = req.text;
        break;
    case MsgType::SessionOpen:
        if (!req.model_dsl.empty()) obj["model"] = req.model_dsl;
        break;
    case MsgType::SessionClose:
    case MsgType::Associate:
    case MsgType::Posture:
    case MsgType::FlowAnalyze:
        obj["session"] = req.session;
        break;
    case MsgType::Query:
        obj["text"] = req.text;
        if (!req.cls.empty()) obj["class"] = req.cls;
        obj["limit"] = static_cast<std::uint64_t>(req.limit);
        break;
    case MsgType::WhatIf:
        obj["session"] = req.session;
        obj["model"] = req.model_dsl;
        obj["commit"] = req.commit;
        break;
    case MsgType::Metrics:
        if (!req.session.empty()) obj["session"] = req.session;
        break;
    case MsgType::SnapshotSwap:
        obj["snapshot"] = req.snapshot;
        break;
    case MsgType::DeltaApply:
        obj["delta"] = req.delta;
        break;
    case MsgType::FleetAnalyze:
        obj["systems"] = static_cast<std::uint64_t>(req.systems);
        obj["components"] = static_cast<std::uint64_t>(req.components);
        obj["seed"] = req.seed;
        if (!req.domains.empty()) obj["domains"] = req.domains;
        break;
    }
    return json::Value(std::move(obj));
}

// -- responses ---------------------------------------------------------------

json::Value ok_response(std::int64_t id, MsgType type, json::Value result) {
    json::Object obj;
    obj["id"] = id;
    obj["ok"] = true;
    obj["type"] = std::string(message_type_name(type));
    obj["result"] = std::move(result);
    return json::Value(std::move(obj));
}

json::Value error_response(std::int64_t id, ErrorCode code, std::string_view message) {
    json::Object err;
    err["code"] = std::string(error_code_name(code));
    err["message"] = std::string(message);
    json::Object obj;
    obj["id"] = id;
    obj["ok"] = false;
    obj["error"] = json::Value(std::move(err));
    return json::Value(std::move(obj));
}

Response decode_response(std::string_view payload) {
    json::Value doc;
    try {
        doc = json::parse(payload);
    } catch (const ParseError& e) {
        throw ProtocolError(ErrorCode::BadRequest,
                            std::string("response is not JSON: ") + e.what());
    }
    if (!doc.is_object() || !doc.contains("ok") || !doc.at("ok").is_bool())
        throw ProtocolError(ErrorCode::BadRequest, "response must be an object with bool `ok`");
    Response resp;
    resp.id = doc.get_int("id", 0);
    resp.ok = doc.at("ok").as_bool();
    if (resp.ok) {
        resp.type = doc.get_string("type");
        if (doc.contains("result")) resp.body = doc.at("result");
    } else {
        if (!doc.contains("error") || !doc.at("error").is_object())
            throw ProtocolError(ErrorCode::BadRequest,
                                "failure response must carry an `error` object");
        resp.error_code = doc.at("error").get_string("code");
        resp.error_message = doc.at("error").get_string("message");
    }
    return resp;
}

} // namespace cybok::serve
