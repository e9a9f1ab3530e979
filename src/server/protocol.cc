#include "src/server/protocol.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/plan/scheduler.h"

namespace blink {
namespace {

// --- Field tables ------------------------------------------------------------
// Every wire struct declares its fields once, in wire order, as kFields<S>:
// the JSON key, the member, and the presence rule. The one encoder and the one
// decoder below walk these tables; neither names a key. scripts/check_docs.sh
// reads the keys from the Field("...") entries.

enum Presence {
  kRequired,  // always encoded; decoding fails without it
  kOptional,  // always encoded; an absent key decodes to the member's default
  kOmitted,   // encoded only when set (see Field); absent decodes to the default
};

template <typename S, typename T>
struct Field {
  constexpr Field(const char* key, T S::*member, Presence presence = kRequired)
      : key(key), member(member), presence(presence) {}
  // kOmitted: on the wire only when `sent` holds.
  template <typename Pred,
            typename = std::enable_if_t<std::is_convertible_v<Pred, bool (*)(const S&)>>>
  constexpr Field(const char* key, T S::*member, Pred sent)
      : key(key), member(member), presence(kOmitted), sent(sent) {}
  // kOmitted: on the wire only when the `seen` flag is set, and decoding sets
  // the flag when the key is present.
  constexpr Field(const char* key, T S::*member, bool S::*seen)
      : key(key), member(member), presence(kOmitted), seen(seen) {}

  const char* key;
  T S::*member;
  Presence presence;
  bool (*sent)(const S&) = nullptr;
  bool S::*seen = nullptr;
};

// Not a wire struct; each specialization is a tuple of Fields.
template <typename S>
constexpr int kFields = 0;

template <>
constexpr auto kFields<ScanStats> = std::make_tuple(
    Field("rows_scanned", &ScanStats::rows_scanned),
    Field("rows_matched", &ScanStats::rows_matched),
    Field("blocks_scanned", &ScanStats::blocks_scanned),
    Field("block_rows", &ScanStats::block_rows),
    Field("bytes_scanned", &ScanStats::bytes_scanned));

template <>
constexpr auto kFields<Estimate> = std::make_tuple(
    Field("value", &Estimate::value), Field("variance", &Estimate::variance));

template <>
constexpr auto kFields<ResultRow> = std::make_tuple(
    Field("group", &ResultRow::group_values),
    Field("aggregates", &ResultRow::aggregates));

template <>
constexpr auto kFields<QueryResult> = std::make_tuple(
    Field("group_names", &QueryResult::group_names),
    Field("aggregate_names", &QueryResult::aggregate_names),
    Field("confidence", &QueryResult::confidence), Field("rows", &QueryResult::rows),
    Field("stats", &QueryResult::stats));

template <>
constexpr auto kFields<StreamProgress> = std::make_tuple(
    Field("blocks_consumed", &StreamProgress::blocks_consumed),
    Field("blocks_total", &StreamProgress::blocks_total),
    Field("rows_consumed", &StreamProgress::rows_consumed),
    Field("rows_total", &StreamProgress::rows_total),
    Field("achieved_error", &StreamProgress::achieved_error),
    Field("bound_met", &StreamProgress::bound_met, kOptional),
    Field("bytes_scanned", &StreamProgress::bytes_scanned, kOptional),
    Field("bytes_decoded", &StreamProgress::bytes_decoded, kOptional));

template <>
constexpr auto kFields<ElpPoint> = std::make_tuple(
    Field("resolution", &ElpPoint::resolution), Field("rows", &ElpPoint::rows),
    Field("blocks", &ElpPoint::blocks),
    Field("projected_error", &ElpPoint::projected_error),
    Field("projected_latency", &ElpPoint::projected_latency),
    Field("projected_matched", &ElpPoint::projected_matched));

template <>
constexpr auto kFields<PipelineOutcome> = std::make_tuple(
    Field("blocks_total", &PipelineOutcome::blocks_total),
    Field("blocks_consumed", &PipelineOutcome::blocks_consumed),
    Field("rows_consumed", &PipelineOutcome::rows_consumed),
    Field("rows_matched", &PipelineOutcome::rows_matched),
    Field("reused_probe", &PipelineOutcome::reused_probe, kOptional),
    Field("scheduled_rounds", &PipelineOutcome::scheduled_rounds),
    Field("error_contribution", &PipelineOutcome::error_contribution),
    Field("bytes_scanned", &PipelineOutcome::bytes_scanned, kOptional),
    Field("bytes_decoded", &PipelineOutcome::bytes_decoded, kOptional),
    Field("degraded", &PipelineOutcome::degraded,
          [](const PipelineOutcome& o) { return o.degraded; }));

template <>
constexpr auto kFields<ExecutionReport> = std::make_tuple(
    Field("family", &ExecutionReport::family),
    Field("resolution", &ExecutionReport::resolution),
    Field("cap", &ExecutionReport::cap), Field("rows_read", &ExecutionReport::rows_read),
    Field("blocks_read", &ExecutionReport::blocks_read),
    Field("blocks_reused", &ExecutionReport::blocks_reused),
    Field("blocks_consumed", &ExecutionReport::blocks_consumed),
    Field("stopped_early", &ExecutionReport::stopped_early, kOptional),
    Field("cancelled", &ExecutionReport::cancelled, kOptional),
    Field("probe_latency", &ExecutionReport::probe_latency),
    Field("execution_latency", &ExecutionReport::execution_latency),
    Field("total_latency", &ExecutionReport::total_latency),
    Field("queue_latency", &ExecutionReport::queue_latency, kOptional),
    Field("effective_error_bound", &ExecutionReport::effective_error_bound, kOptional),
    Field("cache", &ExecutionReport::cache, kOptional),
    Field("projected_error", &ExecutionReport::projected_error),
    Field("achieved_error", &ExecutionReport::achieved_error),
    Field("num_subqueries", &ExecutionReport::num_subqueries),
    Field("rewrite_fallback", &ExecutionReport::rewrite_fallback, kOptional),
    Field("bytes_scanned", &ExecutionReport::bytes_scanned, kOptional),
    Field("bytes_decoded", &ExecutionReport::bytes_decoded, kOptional),
    Field("schedule", &ExecutionReport::schedule),
    Field("elp", &ExecutionReport::elp, kOptional),
    Field("pipeline_outcomes", &ExecutionReport::pipeline_outcomes, kOptional));

// A stand-alone server sends neither half of the shard role.
bool HasShardRole(const HelloFrame& hello) { return hello.shard_count > 0; }

template <>
constexpr auto kFields<HelloFrame> = std::make_tuple(
    Field("protocol_version", &HelloFrame::protocol_version),
    Field("peer", &HelloFrame::peer, kOptional),
    Field("tables", &HelloFrame::tables,
          [](const HelloFrame& hello) { return !hello.tables.empty(); }),
    Field("shard_index", &HelloFrame::shard_index, HasShardRole),
    Field("shard_count", &HelloFrame::shard_count, HasShardRole));

// Pacing fields go on the wire only when set, so a classic client's QUERY is
// byte-identical to protocol v1's.
template <>
constexpr auto kFields<QueryFrame> = std::make_tuple(
    Field("id", &QueryFrame::id), Field("sql", &QueryFrame::sql),
    Field("round_blocks", &QueryFrame::round_blocks,
          [](const QueryFrame& query) { return query.round_blocks > 0; }),
    Field("grant_blocks", &QueryFrame::grant_blocks,
          [](const QueryFrame& query) { return query.grant_blocks > 0; }),
    Field("confidence", &QueryFrame::confidence,
          [](const QueryFrame& query) { return query.confidence > 0; }));

template <>
constexpr auto kFields<CancelFrame> = std::make_tuple(Field("id", &CancelFrame::id));

template <>
constexpr auto kFields<GrantFrame> = std::make_tuple(
    Field("id", &GrantFrame::id), Field("blocks", &GrantFrame::blocks));

template <>
constexpr auto kFields<AppendFrame> = std::make_tuple(
    Field("id", &AppendFrame::id), Field("table", &AppendFrame::table),
    Field("columns", &AppendFrame::columns), Field("rows", &AppendFrame::rows));

template <>
constexpr auto kFields<AppendOkFrame> = std::make_tuple(
    Field("id", &AppendOkFrame::id),
    Field("rows_appended", &AppendOkFrame::rows_appended),
    Field("version", &AppendOkFrame::version));

template <>
constexpr auto kFields<PartialFrame> = std::make_tuple(
    Field("id", &PartialFrame::id), Field("seq", &PartialFrame::seq),
    Field("queue_ms", &PartialFrame::queue_ms, kOptional),
    Field("cache", &PartialFrame::cache, kOptional),
    Field("effective_bound", &PartialFrame::effective_bound, kOptional),
    Field("progress", &PartialFrame::progress), Field("result", &PartialFrame::result));

template <>
constexpr auto kFields<FinalFrame> = std::make_tuple(
    Field("id", &FinalFrame::id), Field("result", &FinalFrame::result),
    Field("report", &FinalFrame::report));

// Session-level errors, such as malformed frames, carry no id.
template <>
constexpr auto kFields<ErrorFrame> = std::make_tuple(
    Field("id", &ErrorFrame::id, &ErrorFrame::has_id), Field("code", &ErrorFrame::code),
    Field("message", &ErrorFrame::message));

// --- Values ------------------------------------------------------------------
// A table Value is encoded as a single-key object tagging its type:
// {"i": 42} int64, {"d": 4.2} double, {"s": "text"} string. The tag keeps
// decoding unambiguous — "%.17g" renders 42.0 as "42", which bare JSON would
// reparse as an integer.

JsonValue EncodeValue(const Value& value) {
  JsonValue out = JsonValue::Object();
  if (value.is_int()) {
    out.Set("i", value.AsInt());
  } else if (value.is_double()) {
    out.Set("d", value.AsDouble());
  } else {
    out.Set("s", value.AsString());
  }
  return out;
}

Status DecodeValue(const JsonValue& json, Value& out) {
  if (!json.is_object() || json.members().size() != 1) {
    return Status::InvalidArgument("value must be a single-key tagged object");
  }
  const auto& [tag, v] = json.members().front();
  if (tag == "i") {
    if (const std::optional<int64_t> i = v.AsInt()) {
      out = Value(*i);
      return Status::Ok();
    }
  } else if (tag == "d" && v.is_number()) {
    out = Value(v.AsDouble());
    return Status::Ok();
  } else if (tag == "s" && v.is_string()) {
    out = Value(v.AsString());
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown value tag or mistyped value '" + tag + "'");
}

// --- The codec ---------------------------------------------------------------

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

Status Malformed(const char* key) {
  return Status::InvalidArgument(std::string("missing or mistyped field '") + key +
                                 "'");
}

template <typename S>
void EncodeFields(const S& s, JsonValue& out);
template <typename S>
Status DecodeFields(const JsonValue& json, S& out);

// The encoder: one branch per C++ field type.
template <typename T>
JsonValue Encode(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    return JsonValue(v);
  } else if constexpr (std::is_integral_v<T>) {
    return JsonValue(static_cast<int64_t>(v));
  } else if constexpr (std::is_same_v<T, ScheduleMode>) {
    return JsonValue(ScheduleModeName(v));
  } else if constexpr (std::is_same_v<T, Value>) {
    return EncodeValue(v);
  } else if constexpr (IsVector<T>::value) {
    JsonValue out = JsonValue::Array();
    for (const auto& item : v) {
      out.Append(Encode(item));
    }
    return out;
  } else {
    JsonValue out = JsonValue::Object();
    EncodeFields(v, out);
    return out;
  }
}

// The decoder: one checked getter per C++ field type. `key` names the field
// in errors.
template <typename T>
Status Decode(const JsonValue& json, const char* key, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!json.is_bool()) {
      return Malformed(key);
    }
    out = json.AsBool();
  } else if constexpr (std::is_integral_v<T>) {
    // docs/PROTOCOL.md §1: integer fields are JSON integers in [0, 2^63),
    // and narrower members take only what they can hold.
    constexpr auto kMax = static_cast<uint64_t>(std::numeric_limits<T>::max());
    const std::optional<int64_t> v = json.AsInt();
    if (!v || *v < 0 || static_cast<uint64_t>(*v) > kMax) {
      return Malformed(key);
    }
    out = static_cast<T>(*v);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!json.is_number()) {
      return Malformed(key);
    }
    out = json.AsDouble();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!json.is_string()) {
      return Malformed(key);
    }
    out = json.AsString();
  } else if constexpr (std::is_same_v<T, ScheduleMode>) {
    if (!json.is_string()) {
      return Malformed(key);
    }
    out = json.AsString() == ScheduleModeName(ScheduleMode::kAdaptive)
              ? ScheduleMode::kAdaptive
              : ScheduleMode::kUniform;
  } else if constexpr (std::is_same_v<T, Value>) {
    return DecodeValue(json, out);
  } else if constexpr (IsVector<T>::value) {
    if (!json.is_array()) {
      return Malformed(key);
    }
    out.resize(json.items().size());
    for (size_t i = 0; i < out.size(); ++i) {
      BLINK_RETURN_IF_ERROR(Decode(json.items()[i], key, out[i]));
    }
  } else {
    if (!json.is_object()) {
      return Malformed(key);
    }
    return DecodeFields(json, out);
  }
  return Status::Ok();
}

template <typename S, typename T>
void EncodeField(const S& s, const Field<S, T>& field, JsonValue& out) {
  if (field.presence == kOmitted &&
      !(field.seen != nullptr ? s.*field.seen : field.sent(s))) {
    return;
  }
  out.Set(field.key, Encode(s.*field.member));
}

template <typename S, typename T>
Status DecodeField(const JsonValue& json, const Field<S, T>& field, S& out) {
  const JsonValue* v = json.Find(field.key);
  if (v == nullptr) {
    return field.presence == kRequired ? Malformed(field.key) : Status::Ok();
  }
  if (field.seen != nullptr) {
    out.*field.seen = true;
  }
  return Decode(*v, field.key, out.*field.member);
}

template <typename S>
void EncodeFields(const S& s, JsonValue& out) {
  std::apply([&](const auto&... field) { (EncodeField(s, field, out), ...); },
             kFields<S>);
}

template <typename S>
Status DecodeFields(const JsonValue& json, S& out) {
  Status status;
  // Stops at the first field that fails.
  std::apply(
      [&](const auto&... field) {
        (void)((status = DecodeField(json, field, out)).ok() && ...);
      },
      kFields<S>);
  return status;
}

template <typename S>
Result<S> DecodeAs(const JsonValue& json, const char* what) {
  S out;
  BLINK_RETURN_IF_ERROR(Decode(json, what, out));
  return out;
}

// --- Frames ------------------------------------------------------------------

template <typename S>
Status DecodePayload(const JsonValue& json, Frame& frame) {
  S payload;
  BLINK_RETURN_IF_ERROR(DecodeFields(json, payload));
  if constexpr (std::is_same_v<S, AppendFrame>) {
    for (const auto& row : payload.rows) {
      if (row.size() != payload.columns.size()) {
        return Status::InvalidArgument(
            "APPEND row width does not match its columns array");
      }
    }
  }
  frame.payload = std::move(payload);
  return Status::Ok();
}

// Wire names and decoders of the frame types, indexed by FrameType.
struct FrameCodec {
  const char* name;
  Status (*decode)(const JsonValue& json, Frame& frame);
};

constexpr FrameCodec kFrameCodecs[] = {
    {"HELLO", DecodePayload<HelloFrame>},
    {"QUERY", DecodePayload<QueryFrame>},
    {"PARTIAL", DecodePayload<PartialFrame>},
    {"FINAL", DecodePayload<FinalFrame>},
    {"ERROR", DecodePayload<ErrorFrame>},
    {"CANCEL", DecodePayload<CancelFrame>},
    {"GRANT", DecodePayload<GrantFrame>},
    {"APPEND", DecodePayload<AppendFrame>},
    {"APPEND_OK", DecodePayload<AppendOkFrame>},
};
static_assert(std::size(kFrameCodecs) == static_cast<size_t>(FrameType::kAppendOk) + 1,
              "one codec per FrameType, in enum order");

template <typename S>
std::string EncodeFrame(FrameType type, const S& payload) {
  JsonValue out = JsonValue::Object();
  out.Set("type", FrameTypeName(type));
  EncodeFields(payload, out);
  return out.Serialize();
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  return kFrameCodecs[static_cast<size_t>(type)].name;
}

JsonValue EncodeQueryResult(const QueryResult& result) { return Encode(result); }

Result<QueryResult> DecodeQueryResult(const JsonValue& json) {
  return DecodeAs<QueryResult>(json, "QueryResult");
}

JsonValue EncodeProgress(const StreamProgress& progress) { return Encode(progress); }

Result<StreamProgress> DecodeProgress(const JsonValue& json) {
  return DecodeAs<StreamProgress>(json, "StreamProgress");
}

JsonValue EncodeReport(const ExecutionReport& report) { return Encode(report); }

Result<ExecutionReport> DecodeReport(const JsonValue& json) {
  return DecodeAs<ExecutionReport>(json, "ExecutionReport");
}

std::string EncodeHello(const HelloFrame& hello) {
  return EncodeFrame(FrameType::kHello, hello);
}

std::string EncodeQuery(const QueryFrame& query) {
  return EncodeFrame(FrameType::kQuery, query);
}

std::string EncodeCancel(const CancelFrame& cancel) {
  return EncodeFrame(FrameType::kCancel, cancel);
}

std::string EncodeGrant(const GrantFrame& grant) {
  return EncodeFrame(FrameType::kGrant, grant);
}

std::string EncodeAppend(const AppendFrame& append) {
  return EncodeFrame(FrameType::kAppend, append);
}

std::string EncodeAppendOk(const AppendOkFrame& ok) {
  return EncodeFrame(FrameType::kAppendOk, ok);
}

std::string EncodePartial(const PartialFrame& partial) {
  return EncodeFrame(FrameType::kPartial, partial);
}

std::string EncodeFinal(const FinalFrame& final_frame) {
  return EncodeFrame(FrameType::kFinal, final_frame);
}

std::string EncodeError(const ErrorFrame& error) {
  return EncodeFrame(FrameType::kError, error);
}

Result<Frame> DecodeFrame(std::string_view payload) {
  auto parsed = JsonValue::Parse(payload);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& json = parsed.value();
  if (!json.is_object()) {
    return Status::InvalidArgument("frame must be a JSON object");
  }
  const JsonValue* type = json.Find("type");
  if (type == nullptr || !type->is_string()) {
    return Malformed("type");
  }
  for (size_t i = 0; i < std::size(kFrameCodecs); ++i) {
    if (type->AsString() == kFrameCodecs[i].name) {
      Frame frame;
      frame.type = static_cast<FrameType>(i);
      BLINK_RETURN_IF_ERROR(kFrameCodecs[i].decode(json, frame));
      return frame;
    }
  }
  return Status::Unimplemented("unknown frame type '" + type->AsString() + "'");
}

uint32_t PaceWorkerStatement(const QueryFrame& query, SelectStatement& stmt) {
  stmt.bounds.kind = QueryBounds::Kind::kError;
  stmt.bounds.error = 0.0;
  stmt.bounds.relative = true;
  stmt.bounds.confidence = query.confidence > 0 ? query.confidence : kDefaultConfidence;
  return static_cast<uint32_t>(
      std::min<uint64_t>(query.round_blocks, std::numeric_limits<uint32_t>::max()));
}

}  // namespace blink
