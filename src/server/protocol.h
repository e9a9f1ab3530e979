// Wire-protocol message codec for the streaming query server.
//
// The normative specification lives in docs/PROTOCOL.md; this header is its
// implementation. Every frame is one JSON object with a "type" field naming
// one of the frame types (HELLO, QUERY, PARTIAL, FINAL, ERROR, CANCEL,
// GRANT, APPEND, APPEND_OK), carried over the length-prefixed transport of
// src/server/net.h.
//
// Encode* functions produce the serialized JSON payload for one frame;
// DecodeFrame parses an inbound payload into the tagged Frame union and is
// shared by both peers (the server decodes HELLO/QUERY/CANCEL, the client
// decodes HELLO/PARTIAL/FINAL/ERROR — direction is enforced by the session
// logic, not the codec). Both walk one field table per wire struct
// (protocol.cc), so each field's key and presence rule is written once.
// Doubles round-trip bit-exactly (src/util/json.h),
// which is what makes a FINAL frame's answer bit-identical to the in-process
// BlinkDB::Query result.
#ifndef BLINKDB_SERVER_PROTOCOL_H_
#define BLINKDB_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/exec/incremental.h"
#include "src/runtime/query_runtime.h"
#include "src/storage/value.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace blink {

// Bumped on any incompatible wire change; HELLO carries it in both
// directions and the server refuses mismatched majors (docs/PROTOCOL.md
// "Versioning").
constexpr int64_t kProtocolVersion = 2;

enum class FrameType {
  kHello,
  kQuery,
  kPartial,
  kFinal,
  kError,
  kCancel,
  kGrant,
  kAppend,
  kAppendOk,
};

// Wire name of a frame type ("HELLO", "QUERY", ...).
const char* FrameTypeName(FrameType type);

// Machine-readable ERROR codes (docs/PROTOCOL.md "Error codes").
namespace wire_error {
// The frame was not valid JSON, or lacked required fields. Session survives.
inline constexpr char kMalformedFrame[] = "MALFORMED_FRAME";
// "type" named no frame type this protocol version knows.
inline constexpr char kUnknownType[] = "UNKNOWN_TYPE";
// A known frame type that is illegal in this direction or session state
// (e.g. a PARTIAL sent to the server, or a second HELLO).
inline constexpr char kUnexpectedFrame[] = "UNEXPECTED_FRAME";
// HELLO version mismatch; the server closes the connection after sending.
inline constexpr char kUnsupportedProtocol[] = "UNSUPPORTED_PROTOCOL";
// A QUERY arrived before the HELLO handshake completed.
inline constexpr char kHandshakeRequired[] = "HANDSHAKE_REQUIRED";
// The server's admission queue is full; retry later (possibly with a wider
// bound). Before this PR the server also used BUSY for a second QUERY on a
// busy session — those now queue (docs/PROTOCOL.md §2).
inline constexpr char kBusy[] = "BUSY";
// The query waited in the admission queue past the server's deadline and was
// shed without executing.
inline constexpr char kDeadlineExceeded[] = "DEADLINE_EXCEEDED";
// The engine rejected or failed the query (bad SQL, unknown table, ...);
// `message` carries the engine status text.
inline constexpr char kQueryFailed[] = "QUERY_FAILED";
// The ingest layer rejected or failed an APPEND (read-only server, unknown
// table, schema mismatch, ...); `message` carries the engine status text.
inline constexpr char kAppendFailed[] = "APPEND_FAILED";
}  // namespace wire_error

struct HelloFrame {
  int64_t protocol_version = kProtocolVersion;
  // Free-form peer description ("blinkdb_cli/0.1", "blinkdb-server/0.5").
  std::string peer;
  // Server→client only: queryable table names, so a client can introspect.
  std::vector<std::string> tables;
  // Server→client only, optional: the shard role of this server. A worker
  // holding shard i of N announces shard_index = i, shard_count = N; a
  // non-sharded server omits both (shard_count 0 on the wire = "whole
  // table"). The coordinator validates these before scattering.
  uint64_t shard_index = 0;
  uint64_t shard_count = 0;
};

struct QueryFrame {
  // Client-chosen id echoed on every PARTIAL/FINAL/ERROR for this query.
  uint64_t id = 0;
  std::string sql;
  // Optional pacing fields (docs/PROTOCOL.md "Paced execution"); all-zero
  // means the classic self-stopping execution. When round_blocks > 0 the
  // server streams in rounds of that many blocks, never self-stops on an
  // error bound, and pauses after consuming its cumulative grant
  // (grant_blocks initially, extended by GRANT frames) until granted more
  // or cancelled. `confidence` sets the CI level of streamed estimates
  // (0 = server default).
  uint64_t round_blocks = 0;
  uint64_t grant_blocks = 0;
  double confidence = 0.0;
};

// The worker side of the paced contract (docs/PROTOCOL.md §6): a paced QUERY
// runs `stmt` with a 0 relative error target at the QUERY's confidence
// (kDefaultConfidence when it gives none), so the worker never self-stops and
// its grant gate is the only pacing. Returns the round cadence as the
// runtime's batch override, clamped to uint32. Worker sessions and the
// blinkdb_coord --selfcheck reference both call it, so the reference runs
// exactly the statement the workers run.
uint32_t PaceWorkerStatement(const QueryFrame& query, SelectStatement& stmt);

struct CancelFrame {
  uint64_t id = 0;
};

// Client→server: raises query `id`'s cumulative block budget to `blocks`
// (monotonic: a grant below the current budget is a no-op). Only meaningful
// for paced queries; unknown ids are ignored (the query may have finished).
struct GrantFrame {
  uint64_t id = 0;
  uint64_t blocks = 0;
};

struct PartialFrame {
  uint64_t id = 0;
  // Monotonically increasing per query, starting at 1.
  uint64_t seq = 0;
  // Real milliseconds the query waited in the server's admission queue
  // before execution began (0 when it ran immediately).
  double queue_ms = 0.0;
  // Answer-cache outcome of the execution streaming this partial ("resume"
  // or "miss"; cache hits skip streaming entirely). Empty when the server
  // runs without a cache. Decoders default absent fields (older servers).
  std::string cache;
  // The error bound the execution is honoring: the query's own, or the
  // widened rung the load-shedding ladder substituted. 0 for non-error
  // bounds.
  double effective_bound = 0.0;
  StreamProgress progress;
  QueryResult result;
};

struct FinalFrame {
  uint64_t id = 0;
  QueryResult result;
  ExecutionReport report;
};

// Client→server: streaming ingest (docs/PROTOCOL.md "APPEND"). The rows land
// as one sealed level-0 run of the table's leveled store; queries accepted
// after the acknowledging APPEND_OK observe them, queries already running
// keep their pinned level set (snapshot isolation). `columns` names the row
// layout and must match the table's schema, in order; each row carries one
// tagged value per column.
struct AppendFrame {
  uint64_t id = 0;
  std::string table;
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
};

// Server→client: acknowledges an APPEND after publication. `version` is the
// leveled store's manifest version with the new run visible.
struct AppendOkFrame {
  uint64_t id = 0;
  uint64_t rows_appended = 0;
  uint64_t version = 0;
};

struct ErrorFrame {
  // The offending query id; absent (has_id = false) for session-level errors
  // such as malformed frames.
  bool has_id = false;
  uint64_t id = 0;
  std::string code;
  std::string message;
};

// A decoded inbound frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::variant<HelloFrame, QueryFrame, CancelFrame, PartialFrame, FinalFrame,
               ErrorFrame, GrantFrame, AppendFrame, AppendOkFrame>
      payload;
};

// --- Encoding (struct → serialized JSON payload) -----------------------------

std::string EncodeHello(const HelloFrame& hello);
std::string EncodeQuery(const QueryFrame& query);
std::string EncodeCancel(const CancelFrame& cancel);
std::string EncodeGrant(const GrantFrame& grant);
std::string EncodeAppend(const AppendFrame& append);
std::string EncodeAppendOk(const AppendOkFrame& ok);
std::string EncodePartial(const PartialFrame& partial);
std::string EncodeFinal(const FinalFrame& final_frame);
std::string EncodeError(const ErrorFrame& error);

// --- Decoding ----------------------------------------------------------------

// Parses one frame payload. InvalidArgument covers both JSON syntax errors
// and structurally invalid frames (missing "type", missing required fields,
// a present field of the wrong type, an integer that is fractional or out of
// its range) — the MALFORMED_FRAME case; an unknown "type" string maps to
// Unimplemented — the UNKNOWN_TYPE case.
Result<Frame> DecodeFrame(std::string_view payload);

// Building blocks, exposed for tests: answers and reports round-trip through
// these.
JsonValue EncodeQueryResult(const QueryResult& result);
Result<QueryResult> DecodeQueryResult(const JsonValue& json);
JsonValue EncodeReport(const ExecutionReport& report);
Result<ExecutionReport> DecodeReport(const JsonValue& json);
JsonValue EncodeProgress(const StreamProgress& progress);
Result<StreamProgress> DecodeProgress(const JsonValue& json);

}  // namespace blink

#endif  // BLINKDB_SERVER_PROTOCOL_H_
