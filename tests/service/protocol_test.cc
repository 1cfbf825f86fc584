#include "service/protocol.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "service/persist.h"
#include "service/server.h"
#include "store/store.h"

namespace dbre::service {
namespace {

namespace fs = std::filesystem;

// -- ParseRequest ---------------------------------------------------------

TEST(ProtocolTest, ParsesWellFormedRequest) {
  auto request = ParseRequest(R"({"id":7,"cmd":"hello","extra":1})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, 7);
  EXPECT_EQ(request->cmd, "hello");
  EXPECT_EQ(request->params.GetInt("extra"), 1);
}

TEST(ProtocolTest, MissingIdDefaultsToMinusOne) {
  auto request = ParseRequest(R"({"cmd":"hello"})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, -1);
}

TEST(ProtocolTest, MalformedJsonIsParseError) {
  auto request = ParseRequest("{\"cmd\":");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError);
}

TEST(ProtocolTest, NonObjectAndMissingCmdAreInvalid) {
  EXPECT_EQ(ParseRequest("[1,2]").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest(R"({"id":1})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest(R"({"cmd":42})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest(R"({"cmd":""})").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, OversizedLineIsRejectedWithoutParsing) {
  ProtocolLimits limits;
  limits.max_line_bytes = 64;
  std::string line = R"({"cmd":"load_csv","csv":")" +
                     std::string(1000, 'x') + "\"}";
  auto request = ParseRequest(line, limits);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(request.status().message().find("exceeds"), std::string::npos);
}

TEST(ProtocolTest, DepthLimitGuardsNestedBombs) {
  ProtocolLimits limits;
  limits.max_json_depth = 4;
  std::string line = R"({"cmd":"x","a":[[[[[[1]]]]]]})";
  EXPECT_EQ(ParseRequest(line, limits).status().code(),
            StatusCode::kParseError);
}

// -- Responses ------------------------------------------------------------

TEST(ProtocolTest, ResponsesAreSingleLineJson) {
  Json result = Json::MakeObject();
  result.Set("x", Json::Int(1));
  std::string ok = OkResponse(3, std::move(result));
  EXPECT_EQ(ok, R"({"id":3,"ok":true,"result":{"x":1}})");
  EXPECT_EQ(ok.find('\n'), std::string::npos);

  std::string error = ErrorResponse(-1, NotFoundError("gone"));
  EXPECT_EQ(
      error,
      R"({"id":null,"ok":false,"error":{"code":"not_found","message":"gone"}})");
}

// -- Answers --------------------------------------------------------------

TEST(ProtocolTest, ParsesNeiAnswers) {
  auto conceptualize = ParseAnswer(
      PendingQuestion::Kind::kNei,
      *Json::Parse(R"({"action":"conceptualize","name":"Bridge"})"));
  ASSERT_TRUE(conceptualize.ok());
  EXPECT_EQ(conceptualize->nei.action, NeiAction::kConceptualize);
  EXPECT_EQ(conceptualize->nei.relation_name, "Bridge");

  EXPECT_EQ(ParseAnswer(PendingQuestion::Kind::kNei,
                        *Json::Parse(R"({"action":"force_left"})"))
                ->nei.action,
            NeiAction::kForceLeftInRight);
  EXPECT_EQ(ParseAnswer(PendingQuestion::Kind::kNei,
                        *Json::Parse(R"({"action":"force_right"})"))
                ->nei.action,
            NeiAction::kForceRightInLeft);
  EXPECT_EQ(ParseAnswer(PendingQuestion::Kind::kNei,
                        *Json::Parse(R"({"action":"ignore"})"))
                ->nei.action,
            NeiAction::kIgnore);

  auto bad = ParseAnswer(PendingQuestion::Kind::kNei,
                         *Json::Parse(R"({"action":"destroy"})"));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ParsesBooleanAndNamingAnswers) {
  EXPECT_TRUE(ParseAnswer(PendingQuestion::Kind::kEnforceFd,
                          *Json::Parse(R"({"value":true})"))
                  ->yes);
  EXPECT_FALSE(ParseAnswer(PendingQuestion::Kind::kValidateFd,
                           *Json::Parse(R"({"value":false})"))
                   ->yes);
  // Truthy non-booleans are rejected, not coerced.
  EXPECT_EQ(ParseAnswer(PendingQuestion::Kind::kHiddenObject,
                        *Json::Parse(R"({"value":1})"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(ParseAnswer(PendingQuestion::Kind::kNameFd,
                        *Json::Parse(R"({"name":"Manager"})"))
                ->name,
            "Manager");
  EXPECT_EQ(ParseAnswer(PendingQuestion::Kind::kNameHidden,
                        *Json::Parse(R"({"nope":1})"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// -- Answer records -------------------------------------------------------
// One record form is logged, journaled and replayed. Journals written by
// older daemons must keep replaying, so its bytes are pinned: each literal
// below is what the answer log and the journal held for the same decision
// before the log and the journal shared one record builder.

EquiJoin PinnedJoin() {
  EquiJoin join;
  join.left_relation = "Assignment";
  join.left_attributes = {"emp", "dep"};
  join.right_relation = "Department";
  join.right_attributes = {"emp", "dep"};
  return join;
}

FunctionalDependency PinnedFd() {
  return FunctionalDependency("Department", AttributeSet{"emp"},
                              AttributeSet{"skill", "proj"});
}

QualifiedAttributes PinnedCandidate() {
  return QualifiedAttributes{"HEmployee", AttributeSet{"no"}};
}

struct PinnedAnswer {
  PendingQuestion::Kind kind;
  OracleAnswer answer;
  std::string record;   // the answer log's record
  std::string payload;  // the journal line's "r" object
};

OracleAnswer NeiAnswer(NeiAction action, std::string name) {
  OracleAnswer answer;
  answer.nei = NeiDecision{action, std::move(name)};
  return answer;
}

OracleAnswer YesAnswer(bool yes) {
  OracleAnswer answer;
  answer.yes = yes;
  return answer;
}

OracleAnswer NameAnswer(std::string name) {
  OracleAnswer answer;
  answer.name = std::move(name);
  return answer;
}

// Every kind, each NEI action with and without a name, both values of the
// yes/no kinds and empty names; subjects repeat, so replay must be FIFO.
std::vector<PinnedAnswer> PinnedAnswers() {
  using Kind = PendingQuestion::Kind;
  return {
      {Kind::kNei, NeiAnswer(NeiAction::kConceptualize, "Bridge"),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"conceptualize","name":"Bridge"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"conceptualize","name":"Bridge"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kConceptualize, ""),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"conceptualize"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"conceptualize"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kForceLeftInRight, "Bridge"),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_left","name":"Bridge"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_left","name":"Bridge"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kForceLeftInRight, ""),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_left"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_left"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kForceRightInLeft, "Bridge"),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_right","name":"Bridge"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_right","name":"Bridge"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kForceRightInLeft, ""),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_right"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"force_right"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kIgnore, "Bridge"),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"ignore","name":"Bridge"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"ignore","name":"Bridge"})"},
      {Kind::kNei, NeiAnswer(NeiAction::kIgnore, ""),
       R"({"kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"ignore"})",
       R"({"t":"answer","kind":"nei","subject":"Assignment[emp, dep] |><| Department[emp, dep]","action":"ignore"})"},
      {Kind::kEnforceFd, YesAnswer(true),
       R"({"kind":"enforce_fd","subject":"Department: {emp} -> {proj, skill}","value":true})",
       R"({"t":"answer","kind":"enforce_fd","subject":"Department: {emp} -> {proj, skill}","value":true})"},
      {Kind::kEnforceFd, YesAnswer(false),
       R"({"kind":"enforce_fd","subject":"Department: {emp} -> {proj, skill}","value":false})",
       R"({"t":"answer","kind":"enforce_fd","subject":"Department: {emp} -> {proj, skill}","value":false})"},
      {Kind::kValidateFd, YesAnswer(true),
       R"({"kind":"validate_fd","subject":"Department: {emp} -> {proj, skill}","value":true})",
       R"({"t":"answer","kind":"validate_fd","subject":"Department: {emp} -> {proj, skill}","value":true})"},
      {Kind::kValidateFd, YesAnswer(false),
       R"({"kind":"validate_fd","subject":"Department: {emp} -> {proj, skill}","value":false})",
       R"({"t":"answer","kind":"validate_fd","subject":"Department: {emp} -> {proj, skill}","value":false})"},
      {Kind::kHiddenObject, YesAnswer(true),
       R"({"kind":"hidden_object","subject":"HEmployee.{no}","value":true})",
       R"({"t":"answer","kind":"hidden_object","subject":"HEmployee.{no}","value":true})"},
      {Kind::kHiddenObject, YesAnswer(false),
       R"({"kind":"hidden_object","subject":"HEmployee.{no}","value":false})",
       R"({"t":"answer","kind":"hidden_object","subject":"HEmployee.{no}","value":false})"},
      {Kind::kNameFd, NameAnswer("Manager"),
       R"({"kind":"name_fd","subject":"Department: {emp} -> {proj, skill}","name":"Manager"})",
       R"({"t":"answer","kind":"name_fd","subject":"Department: {emp} -> {proj, skill}","name":"Manager"})"},
      {Kind::kNameFd, NameAnswer(""),
       R"({"kind":"name_fd","subject":"Department: {emp} -> {proj, skill}","name":""})",
       R"({"t":"answer","kind":"name_fd","subject":"Department: {emp} -> {proj, skill}","name":""})"},
      {Kind::kNameHidden, NameAnswer("Employee"),
       R"({"kind":"name_hidden","subject":"HEmployee.{no}","name":"Employee"})",
       R"({"t":"answer","kind":"name_hidden","subject":"HEmployee.{no}","name":"Employee"})"},
      {Kind::kNameHidden, NameAnswer(""),
       R"({"kind":"name_hidden","subject":"HEmployee.{no}","name":""})",
       R"({"t":"answer","kind":"name_hidden","subject":"HEmployee.{no}","name":""})"},
  };
}

std::string SubjectOf(PendingQuestion::Kind kind) {
  switch (kind) {
    case PendingQuestion::Kind::kNei:
      return PinnedJoin().ToString();
    case PendingQuestion::Kind::kHiddenObject:
    case PendingQuestion::Kind::kNameHidden:
      return PinnedCandidate().ToString();
    default:
      return PinnedFd().ToString();
  }
}

// The payloads of the journal lines in `dir`, byte for byte: each line is
// {"c":"<crc32c hex>","r":<payload>}.
std::vector<std::string> JournalPayloads(const fs::path& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ndjson") segments.push_back(entry);
  }
  std::sort(segments.begin(), segments.end());
  std::vector<std::string> payloads;
  for (const fs::path& segment : segments) {
    std::ifstream in(segment);
    for (std::string line; std::getline(in, line);) {
      const std::string head = R"(","r":)";
      size_t at = line.find(head);
      if (line.rfind(R"({"c":")", 0) != 0 || at == std::string::npos ||
          line.back() != '}') {
        payloads.push_back("unexpected journal line: " + line);
        continue;
      }
      at += head.size();
      payloads.push_back(line.substr(at, line.size() - 1 - at));
    }
  }
  return payloads;
}

TEST(ProtocolTest, AnswerRecordsKeepTheirBytesInTheLogAndTheJournal) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dbre_protocol_test_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
       "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::vector<PinnedAnswer> pinned = PinnedAnswers();
  {
    auto store = store::Store::Open(dir.string());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto journal = (*store)->OpenSessionJournal("pin");
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    SessionPersistence persist(store->get(), "pin", std::move(*journal));
    for (const PinnedAnswer& answer : pinned) {
      Json record =
          AnswerRecord(answer.kind, SubjectOf(answer.kind), answer.answer);
      EXPECT_EQ(record.Dump(), answer.record);
      persist.LogAnswer(record);
    }
    EXPECT_TRUE(persist.last_error().ok()) << persist.last_error().ToString();
  }
  std::vector<std::string> payloads =
      JournalPayloads(dir / "sessions" / "pin");
  fs::remove_all(dir);
  ASSERT_EQ(payloads.size(), pinned.size());
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(payloads[i], pinned[i].payload);
  }
}

TEST(ProtocolTest, AnswerRecordsReplayTheirDecisionsFifoPerSubject) {
  DefaultOracle defaults;
  RecordingOracle fell_through(&defaults);
  ReplayOracle replay;
  replay.SetFallback(&fell_through);
  const std::vector<PinnedAnswer> pinned = PinnedAnswers();
  for (const PinnedAnswer& answer : pinned) {
    Result<Json> record = Json::Parse(answer.record);
    ASSERT_TRUE(record.ok());
    PrimeReplayAnswer(&replay, *record);
  }
  for (const PinnedAnswer& answer : pinned) {
    SCOPED_TRACE(answer.record);
    switch (answer.kind) {
      case PendingQuestion::Kind::kNei: {
        NeiDecision decision =
            replay.DecideNonEmptyIntersection(PinnedJoin(), JoinCounts{});
        EXPECT_EQ(decision.action, answer.answer.nei.action);
        EXPECT_EQ(decision.relation_name, answer.answer.nei.relation_name);
        break;
      }
      case PendingQuestion::Kind::kEnforceFd:
        EXPECT_EQ(replay.EnforceFailedFd(PinnedFd(), 0.25), answer.answer.yes);
        break;
      case PendingQuestion::Kind::kValidateFd:
        EXPECT_EQ(replay.ValidateFd(PinnedFd()), answer.answer.yes);
        break;
      case PendingQuestion::Kind::kHiddenObject:
        EXPECT_EQ(replay.ConceptualizeHiddenObject(PinnedCandidate()),
                  answer.answer.yes);
        break;
      case PendingQuestion::Kind::kNameFd:
        EXPECT_EQ(replay.NameRelationForFd(PinnedFd()), answer.answer.name);
        break;
      case PendingQuestion::Kind::kNameHidden:
        EXPECT_EQ(replay.NameHiddenObjectRelation(PinnedCandidate()),
                  answer.answer.name);
        break;
    }
  }
  // Every question was answered from the records.
  EXPECT_EQ(fell_through.InteractionCount(), 0u);
}

TEST(ProtocolTest, ReplaySkipsAnswerRecordsOfUnknownKinds) {
  DefaultOracle defaults;
  RecordingOracle fell_through(&defaults);
  ReplayOracle replay;
  replay.SetFallback(&fell_through);
  // A kind from a newer daemon, on subjects this one asks about.
  for (const std::string& subject :
       {PinnedFd().ToString(), PinnedCandidate().ToString()}) {
    Json record = Json::MakeObject();
    record.Set("kind", Json::Str("rename"));
    record.Set("subject", Json::Str(subject));
    record.Set("value", Json::Bool(true));
    record.Set("name", Json::Str("Renamed"));
    PrimeReplayAnswer(&replay, record);
  }
  EXPECT_FALSE(replay.EnforceFailedFd(PinnedFd()));
  EXPECT_TRUE(replay.ValidateFd(PinnedFd()));
  EXPECT_FALSE(replay.ConceptualizeHiddenObject(PinnedCandidate()));
  EXPECT_EQ(replay.NameRelationForFd(PinnedFd()), "");
  EXPECT_EQ(replay.NameHiddenObjectRelation(PinnedCandidate()), "");
  // All five fell through to the live oracle.
  EXPECT_EQ(fell_through.InteractionCount(), 5u);
}

TEST(ProtocolTest, ReplayReadsAnUnknownNeiActionAsIgnore) {
  DefaultOracle defaults;
  RecordingOracle fell_through(&defaults);
  ReplayOracle replay;
  replay.SetFallback(&fell_through);
  Json record = Json::MakeObject();
  record.Set("kind", Json::Str("nei"));
  record.Set("subject", Json::Str(PinnedJoin().ToString()));
  record.Set("action", Json::Str("destroy"));
  PrimeReplayAnswer(&replay, record);
  EXPECT_EQ(replay.DecideNonEmptyIntersection(PinnedJoin(), JoinCounts{})
                .action,
            NeiAction::kIgnore);
  EXPECT_EQ(fell_through.InteractionCount(), 0u);
}

// -- Joins ----------------------------------------------------------------

TEST(ProtocolTest, JoinRoundTrip) {
  EquiJoin join;
  join.left_relation = "Assignment";
  join.left_attributes = {"emp", "dep"};
  join.right_relation = "Department";
  join.right_attributes = {"emp", "dep"};
  auto reparsed = ParseJoin(JoinToJson(join));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), join.ToString());
}

TEST(ProtocolTest, RejectsMalformedJoins) {
  EXPECT_FALSE(ParseJoin(*Json::Parse(R"("R=S")")).ok());
  // Arity mismatch fails EquiJoin::Validate.
  EXPECT_FALSE(
      ParseJoin(*Json::Parse(
                    R"({"left":"R","left_attrs":["a","b"],)"
                    R"("right":"S","right_attrs":["c"]})"))
          .ok());
  EXPECT_FALSE(ParseJoin(*Json::Parse(
                             R"({"left":"R","left_attrs":"a",)"
                             R"("right":"S","right_attrs":["c"]})"))
                   .ok());
}

// -- Server-level robustness ---------------------------------------------
// A protocol slip must produce a structured error response, never a crash
// or a dropped connection.

class ServerRobustnessTest : public ::testing::Test {
 protected:
  Json Handle(const std::string& line) {
    std::string response = server_.HandleLine(line);
    auto parsed = Json::Parse(response);
    EXPECT_TRUE(parsed.ok()) << response;
    return parsed.ok() ? *parsed : Json::MakeObject();
  }

  std::string ErrorCode(const Json& response) {
    const Json* error = response.Find("error");
    return error != nullptr ? error->GetString("code") : "";
  }

  Server server_;
};

TEST_F(ServerRobustnessTest, MalformedJsonYieldsParseError) {
  Json response = Handle("this is not json");
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(ErrorCode(response), "parse_error");
  EXPECT_TRUE(response.Find("id")->IsNull());
}

TEST_F(ServerRobustnessTest, OversizedMessageYieldsInvalidArgument) {
  ServerOptions options;
  options.limits.max_line_bytes = 128;
  Server small(options);
  std::string huge =
      R"({"id":1,"cmd":"load_csv","csv":")" + std::string(4096, 'x') + "\"}";
  auto response = Json::Parse(small.HandleLine(huge));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->GetBool("ok", true));
  EXPECT_EQ(response->Find("error")->GetString("code"), "invalid_argument");
}

TEST_F(ServerRobustnessTest, UnknownCommandYieldsInvalidArgument) {
  Json response = Handle(R"({"id":5,"cmd":"explode"})");
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(ErrorCode(response), "invalid_argument");
  EXPECT_EQ(response.GetInt("id"), 5);  // id still echoed
}

TEST_F(ServerRobustnessTest, CommandsOnMissingSessionYieldNotFound) {
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"status","session":"nope"})")),
            "not_found");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"answer","session":"nope",)"
                             R"("question":1,"value":true})")),
            "not_found");
}

TEST_F(ServerRobustnessTest, MissingParametersYieldInvalidArgument) {
  Handle(R"({"cmd":"create"})");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"status"})")), "invalid_argument");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"load_ddl","session":"s1"})")),
            "invalid_argument");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"load_csv","session":"s1"})")),
            "invalid_argument");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"add_joins","session":"s1"})")),
            "invalid_argument");
  EXPECT_EQ(
      ErrorCode(Handle(R"({"cmd":"answer","session":"s1","value":true})")),
      "invalid_argument");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"wait","session":"s1",)"
                             R"("for":"godot"})")),
            "invalid_argument");
}

TEST_F(ServerRobustnessTest, AnswerToNeverAskedQuestionYieldsNotFound) {
  Handle(R"({"cmd":"create"})");
  Json response = Handle(
      R"({"cmd":"answer","session":"s1","question":42,"value":true})");
  EXPECT_EQ(ErrorCode(response), "not_found");
}

TEST_F(ServerRobustnessTest, ReportBeforeRunYieldsFailedPrecondition) {
  Handle(R"({"cmd":"create"})");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"report","session":"s1"})")),
            "failed_precondition");
  EXPECT_EQ(ErrorCode(Handle(R"({"cmd":"export_eer","session":"s1"})")),
            "failed_precondition");
}

TEST_F(ServerRobustnessTest, ClosedSessionRejectsMutation) {
  Handle(R"({"cmd":"create"})");
  Json closed = Handle(R"({"cmd":"close","session":"s1"})");
  EXPECT_TRUE(closed.GetBool("ok"));
  Json response = Handle(
      R"({"cmd":"load_ddl","session":"s1","sql":"CREATE TABLE T (a INTEGER);"})");
  EXPECT_FALSE(response.GetBool("ok", true));
}

}  // namespace
}  // namespace dbre::service
