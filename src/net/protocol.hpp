// The wire protocol of the neats serving front-end (src/net/server.hpp).
//
// One port, two self-announcing dialects, distinguished by the first byte
// a connection sends:
//
//   'N' (0x4E)  binary frames — the protocol (below)
//   'G' (0x47)  "GET ..." — a minimal HTTP/1.0 responder for the stats
//               route, so `curl http://host:port/stats` works
//
// Any other first byte is answered with one binary kBadRequest frame
// ("unrecognized protocol") and the connection is closed.
//
// Binary framing: a 24-byte little-endian header followed by the payload,
// the whole frame covered by a CRC32C (io/checksum.hpp — the same
// polynomial the storage layer trailers use):
//
//   offset  size  field
//   0       4     magic "NETS" (0x5354454E)
//   4       1     version (kProtocolVersion = 1)
//   5       1     opcode (requests) / echoed opcode (responses)
//   6       2     status: 0 on requests; a WireStatus on responses
//   8       8     id: chosen by the client, echoed verbatim — lets a
//                 pipelining client match responses to requests
//   16      4     payload byte count
//   20      4     CRC32C over header bytes [0, 20) ++ payload
//
// Requests and responses share the frame shape; an error response carries
// a non-zero status and a human-readable message as its payload. Payload
// grammars per opcode live in docs/FORMAT.md; integers are little-endian,
// values are int64, indexes/lengths are uint64.
//
// Hardening contract (tests/net_test.cpp sweeps this): a frame with a bad
// magic, an unknown version/opcode, a length word past the server's
// max_frame_bytes, or a CRC mismatch yields a typed error response and/or
// a clean close — never a crash, never an out-of-bounds read.

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "io/checksum.hpp"

namespace neats::net {

inline constexpr uint32_t kFrameMagic = 0x5354454Eu;  // "NETS"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;

/// Operations the server carries — the NeatsStore read surface plus
/// introspection. Values are wire format; renumbering is a protocol break.
enum class Opcode : uint8_t {
  kPing = 1,              // ()               -> ()
  kAccess = 2,            // (u64 i)          -> (i64 value)
  kAccessBatch = 3,       // (u32 n, n*u64)   -> (n*i64)
  kDecompressRange = 4,   // (u64 from, len)  -> (len*i64)
  kDecompressRanges = 5,  // (u32 n, n*(u64 from, u64 len)) -> (sum*i64)
  kRangeSum = 6,          // (u64 from, len)  -> (i64 sum)
  kSize = 7,              // ()               -> (u64 size)
  kStats = 8,             // ()               -> (UTF-8 JSON document)
};

inline constexpr uint8_t kMaxOpcode = 8;

inline bool IsValidOpcode(uint8_t op) {
  return op >= 1 && op <= kMaxOpcode;
}

inline const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kAccess: return "access";
    case Opcode::kAccessBatch: return "access_batch";
    case Opcode::kDecompressRange: return "range";
    case Opcode::kDecompressRanges: return "ranges";
    case Opcode::kRangeSum: return "range_sum";
    case Opcode::kSize: return "size";
    case Opcode::kStats: return "stats";
  }
  return "unknown";
}

/// Response status word. kOverloaded is the admission gate's typed shed
/// (the request was rejected up front, retry against less load); it and
/// kShuttingDown are the two statuses a healthy client is expected to see
/// under stress. kUnavailable maps the store's quarantined-range error.
enum class WireStatus : uint16_t {
  kOk = 0,
  kBadRequest = 1,    // malformed frame/payload, unknown opcode
  kOutOfRange = 2,    // index/range past the store's current size
  kUnavailable = 3,   // the range routes into a quarantined shard
  kOverloaded = 4,    // shed by the admission gate; retry later
  kShuttingDown = 5,  // server is draining; connection closes after this
  kInternal = 6,      // unexpected server-side failure
};

inline const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadRequest: return "bad_request";
    case WireStatus::kOutOfRange: return "out_of_range";
    case WireStatus::kUnavailable: return "unavailable";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kShuttingDown: return "shutting_down";
    case WireStatus::kInternal: return "internal";
  }
  return "unknown";
}

/// The neats::StatusCode a client-side error for `s` carries (the client
/// library throws neats::Error so callers reuse the store's error
/// taxonomy; overload/drain map to kUnavailable — "not now", not "broken").
inline StatusCode WireStatusToCode(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return StatusCode::kOk;
    case WireStatus::kUnavailable:
    case WireStatus::kOverloaded:
    case WireStatus::kShuttingDown: return StatusCode::kUnavailable;
    case WireStatus::kBadRequest:
    case WireStatus::kOutOfRange: return StatusCode::kFailed;
    case WireStatus::kInternal: return StatusCode::kFailed;
  }
  return StatusCode::kFailed;
}

/// A decoded frame header (magic already checked and stripped of meaning).
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  uint8_t opcode = 0;
  uint16_t status = 0;
  uint64_t id = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;  // as carried on the wire
};

namespace wire_internal {

inline void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
inline void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
inline uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace wire_internal

/// Grows `out` (a std::vector<uint8_t> or std::string) by one frame of
/// `payload_len` payload bytes and returns a pointer to the frame's start.
/// The caller writes the payload at kFrameHeaderBytes past it, then calls
/// SealFrame — the way the server renders a response in place.
template <typename Bytes>
inline uint8_t* ReserveFrame(Bytes* out, size_t payload_len) {
  const size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + payload_len);
  return reinterpret_cast<uint8_t*>(out->data()) + at;
}

/// Writes the header of the frame at `frame`, whose `payload_len` payload
/// bytes already follow it, CRC included.
inline void SealFrame(uint8_t* frame, Opcode op, uint16_t status,
                      uint64_t id, uint32_t payload_len) {
  using namespace wire_internal;
  PutU32(frame, kFrameMagic);
  frame[4] = kProtocolVersion;
  frame[5] = static_cast<uint8_t>(op);
  PutU16(frame + 6, status);
  PutU64(frame + 8, id);
  PutU32(frame + 16, payload_len);
  uint32_t crc = Crc32c({frame, 20});
  crc = Crc32c({frame + kFrameHeaderBytes, payload_len}, crc);
  PutU32(frame + 20, crc);
}

/// Appends one complete frame (header + payload) to `out`.
template <typename Bytes>
inline void AppendFrame(Bytes* out, Opcode op, uint16_t status, uint64_t id,
                        std::span<const uint8_t> payload) {
  uint8_t* frame = ReserveFrame(out, payload.size());
  if (!payload.empty()) {
    std::memcpy(frame + kFrameHeaderBytes, payload.data(), payload.size());
  }
  SealFrame(frame, op, status, id, static_cast<uint32_t>(payload.size()));
}

/// Decodes the 24-byte header at `bytes` (must hold at least
/// kFrameHeaderBytes). Returns false on a magic mismatch.
inline bool DecodeFrameHeader(std::span<const uint8_t> bytes,
                              FrameHeader* out) {
  using namespace wire_internal;
  NEATS_DCHECK(bytes.size() >= kFrameHeaderBytes);
  const uint8_t* h = bytes.data();
  if (GetU32(h) != kFrameMagic) return false;
  out->version = h[4];
  out->opcode = h[5];
  out->status = GetU16(h + 6);
  out->id = GetU64(h + 8);
  out->payload_len = GetU32(h + 16);
  out->crc = GetU32(h + 20);
  return true;
}

/// Verifies the frame CRC: `header_bytes` is the raw 24-byte header,
/// `payload` the payload it announced.
inline bool VerifyFrameCrc(std::span<const uint8_t> header_bytes,
                           std::span<const uint8_t> payload) {
  NEATS_DCHECK(header_bytes.size() >= kFrameHeaderBytes);
  uint32_t crc = Crc32c(header_bytes.subspan(0, 20));
  crc = Crc32c(payload, crc);
  return crc == wire_internal::GetU32(header_bytes.data() + 20);
}

/// Little-endian payload builder (append-only over a caller's vector).
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U32(uint32_t v) {
    const size_t at = out_->size();
    out_->resize(at + 4);
    wire_internal::PutU32(out_->data() + at, v);
  }
  void U64(uint64_t v) {
    const size_t at = out_->size();
    out_->resize(at + 8);
    wire_internal::PutU64(out_->data() + at, v);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian payload cursor. Reads past the end set a
/// sticky failure flag and return 0 instead of touching out-of-bounds
/// memory; callers check ok() (and usually AtEnd()) once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint32_t U32() {
    if (!Take(4)) return 0;
    return wire_internal::GetU32(bytes_.data() + pos_ - 4);
  }
  uint64_t U64() {
    if (!Take(8)) return 0;
    return wire_internal::GetU64(bytes_.data() + pos_ - 8);
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  /// Reads `n` int64 values into `out` (resized).
  void I64Vec(size_t n, std::vector<int64_t>* out) {
    if (!Take(n * 8)) {
      out->clear();
      return;
    }
    out->resize(n);
    std::memcpy(out->data(), bytes_.data() + pos_ - n * 8, n * 8);
  }
  void U64Vec(size_t n, std::vector<uint64_t>* out) {
    if (!Take(n * 8)) {
      out->clear();
      return;
    }
    out->resize(n);
    std::memcpy(out->data(), bytes_.data() + pos_ - n * 8, n * 8);
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool Take(size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --------------------------------------------------------------------------
// Minimal JSON reader for the stats document (the kStats payload and the
// HTTP /stats body) — neats_loadgen and the tests parse it with this.
// Handles objects, arrays, numbers, strings, true/false/null with a hard
// depth limit; anything else is a clean parse failure, never UB.
// --------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  int64_t integer = 0;   // exact when `integral`
  bool integral = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace json_internal {

inline constexpr int kMaxDepth = 16;

struct Parser {
  std::string_view text;
  size_t pos = 0;

  bool Fail() { return false; }
  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' ||
            text[pos] == '\n')) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return false;
        char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // Decode \uXXXX as Latin-1 where it fits; the protocol never
            // needs more, and rejecting surrogates keeps this tiny.
            if (text.size() - pos < 4) return false;
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (v > 0xFF) return false;
            out->push_back(static_cast<char>(v));
            break;
          }
          default: return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      out->push_back(c);
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    SkipWs();
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    size_t digits = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      ++pos;
      ++digits;
    }
    if (digits == 0) return false;
    bool integral = true;
    if (pos < text.size() && text[pos] == '.') {
      integral = false;
      ++pos;
      size_t frac = 0;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        ++pos;
        ++frac;
      }
      if (frac == 0) return false;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      integral = false;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      size_t exp = 0;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        ++pos;
        ++exp;
      }
      if (exp == 0) return false;
    }
    const std::string token(text.substr(start, pos - start));
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), nullptr);
    out->integral = false;
    if (integral && token.size() <= 19) {  // int64 never needs more digits
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        out->integer = v;
        out->integral = true;
      }
    }
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipWs();
    if (pos >= text.size()) return false;
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (Eat('}')) return true;
      while (true) {
        std::string key;
        if (!ParseString(&key)) return false;
        if (!Eat(':')) return false;
        JsonValue v;
        if (!ParseValue(&v, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(v));
        if (Eat(',')) continue;
        return Eat('}');
      }
    }
    if (c == '[') {
      ++pos;
      out->kind = JsonValue::Kind::kArray;
      SkipWs();
      if (Eat(']')) return true;
      while (true) {
        JsonValue v;
        if (!ParseValue(&v, depth + 1)) return false;
        out->array.push_back(std::move(v));
        if (Eat(',')) continue;
        return Eat(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return ParseNumber(out);
  }
};

}  // namespace json_internal

/// Parses one JSON document from `text` (trailing whitespace allowed,
/// trailing garbage rejected). Returns false on any syntax error or when
/// nesting exceeds a small hard limit — hostile input fails cleanly.
inline bool ParseJson(std::string_view text, JsonValue* out) {
  json_internal::Parser p{text};
  *out = JsonValue{};
  if (!p.ParseValue(out, 0)) return false;
  p.SkipWs();
  return p.pos == p.text.size();
}

}  // namespace neats::net
