// The dbred wire protocol: newline-delimited JSON requests and responses.
//
// Requests:   {"id": <int>, "cmd": "<command>", ...parameters}
// Responses:  {"id": <int>, "ok": true, "result": {...}}
//          |  {"id": <int|null>, "ok": false,
//              "error": {"code": "<status-code-name>", "message": "..."}}
//
// One request per line, one response line per request, in order. Error
// codes are the stable StatusCode names from common/status.h, so clients
// can branch on "not_found" vs "failed_precondition" without parsing
// messages. Malformed JSON, oversized lines and unknown commands all
// produce error *responses* — a protocol slip must never take the daemon
// down. See docs/SERVICE.md for the full command reference.
#ifndef DBRE_SERVICE_PROTOCOL_H_
#define DBRE_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/replay_oracle.h"
#include "relational/equi_join.h"
#include "service/async_oracle.h"
#include "service/json.h"

namespace dbre::service {

// Bumped when the wire surface changes incompatibly. 2 added the `hello`
// handshake (protocol/session fields), `detach`, and the router commands.
// A client may send its version in `hello`; a mismatch is rejected with a
// structured failed_precondition before any session state is touched.
inline constexpr int64_t kProtocolVersion = 2;

// Advisory minor revision within the major version: additions that old
// clients can ignore. 2.1 added the `mutate` and `watch` commands (live
// DML + presumption-change streaming). 2.2 added fenced ownership: the
// `lease` command, epoch fields in `hello`/`stats`, and structured
// `session_moved` error details on commands against a migrated session.
// Never checked for compatibility — `hello` reports it so clients can
// discover the additions.
inline constexpr int64_t kProtocolMinorVersion = 2;

struct ProtocolLimits {
  size_t max_line_bytes = 8u << 20;  // big enough for a CSV extension chunk
  size_t max_json_depth = 32;
};

struct Request {
  int64_t id = -1;  // echoed in the response; -1 if the client sent none
  std::string cmd;
  Json params;  // the whole request object (cmd/id included)
};

// Parses one request line. Errors: kInvalidArgument (oversized, not an
// object, missing cmd), kParseError (malformed JSON).
Result<Request> ParseRequest(const std::string& line,
                             const ProtocolLimits& limits = {});

// {"id":…,"ok":true,"result":…} on one line (no trailing newline).
std::string OkResponse(int64_t id, Json result);

// {"id":…,"ok":false,"error":{"code":…,"message":…}}.
std::string ErrorResponse(int64_t id, const Status& status);

// Same, with extra machine-readable fields merged into the error object
// (e.g. {"reason":"session_moved","owner":"w2","epoch":3} so a client of
// a failed-over session can re-route without parsing the message). The
// code/message fields win on key collision.
std::string ErrorResponse(int64_t id, const Status& status, Json details);

// A pending expert question as wire JSON: id, kind, subject, plus the
// kind-specific context (the join and its three valuations, the FD and its
// g3 error, the hidden-object candidate) in both human-readable and
// structured form, so observers can render it and scripted clients can
// reconstruct the exact oracle call.
Json QuestionToJson(const std::string& session_id,
                    const PendingQuestion& question);

// The names NEI actions go by in answers and answer records:
// "conceptualize", "force_left", "force_right" and "ignore".
// ParseNeiAction inverts NeiActionName; nullopt for any other name.
const char* NeiActionName(NeiAction action);
std::optional<NeiAction> ParseNeiAction(const std::string& name);

// Parses the answer fields of an `answer` request for `kind`:
//   nei:            {"action": "conceptualize"|"force_left"|"force_right"
//                    |"ignore", "name": "..."?}
//   enforce_fd / validate_fd / hidden_object: {"value": true|false}
//   name_fd / name_hidden:                    {"name": "..."}
Result<OracleAnswer> ParseAnswer(PendingQuestion::Kind kind,
                                 const Json& params);

// The answer record: the one form in which a resolved expert decision is
// logged (Session::RecordAnswer), journaled (SessionPersistence::LogAnswer
// puts "t":"answer" in front) and replayed (PrimeReplayAnswer).
// {"kind": PendingQuestionKindName(kind), "subject": subject} and then the
// answer fields of `kind`, as ParseAnswer reads them, except that an nei
// record names its relation whatever the action, and only when the name is
// non-empty.
Json AnswerRecord(PendingQuestion::Kind kind, const std::string& subject,
                  const OracleAnswer& answer);

// Parses a join object {"left": "R", "left_attrs": ["a"...],
// "right": "S", "right_attrs": ["b"...]} (validated for shape).
Result<EquiJoin> ParseJoin(const Json& value);

Json JoinToJson(const EquiJoin& join);

// Primes `oracle` with one answer record (AnswerRecord's form). Lenient,
// since the record may come back from disk: unknown kinds are skipped so
// an old daemon can replay a journal a newer one wrote, and an unknown NEI
// action replays as ignore. Session::ExecuteRun primes each run's
// ReplayOracle from the session's answer log entries of the run's policy,
// so a rerun (after a mutation, or after a crash) only re-asks questions
// that policy never answered.
void PrimeReplayAnswer(ReplayOracle* oracle, const Json& record);

}  // namespace dbre::service

#endif  // DBRE_SERVICE_PROTOCOL_H_
