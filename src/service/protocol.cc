#include "service/protocol.h"

#include <utility>

namespace dbre::service {
namespace {

Json StringArray(const std::vector<std::string>& values) {
  Json array = Json::MakeArray();
  for (const std::string& value : values) array.Append(Json::Str(value));
  return array;
}

Json AttributeSetToJson(const AttributeSet& set) {
  return StringArray(set.names());
}

Json FdToJson(const FunctionalDependency& fd) {
  Json object = Json::MakeObject();
  object.Set("relation", Json::Str(fd.relation));
  object.Set("lhs", AttributeSetToJson(fd.lhs));
  object.Set("rhs", AttributeSetToJson(fd.rhs));
  return object;
}

Json QualifiedToJson(const QualifiedAttributes& qa) {
  Json object = Json::MakeObject();
  object.Set("relation", Json::Str(qa.relation));
  object.Set("attributes", AttributeSetToJson(qa.attributes));
  return object;
}

Result<std::vector<std::string>> ParseStringArray(const Json* value,
                                                  const char* what) {
  if (value == nullptr || !value->IsArray()) {
    return InvalidArgumentError(std::string(what) +
                                " must be an array of strings");
  }
  std::vector<std::string> out;
  out.reserve(value->array().size());
  for (const Json& element : value->array()) {
    if (!element.IsString()) {
      return InvalidArgumentError(std::string(what) +
                                  " must be an array of strings");
    }
    out.push_back(element.AsString());
  }
  return out;
}

}  // namespace

Result<Request> ParseRequest(const std::string& line,
                             const ProtocolLimits& limits) {
  if (line.size() > limits.max_line_bytes) {
    return InvalidArgumentError(
        "request line of " + std::to_string(line.size()) +
        " bytes exceeds the " + std::to_string(limits.max_line_bytes) +
        "-byte limit");
  }
  DBRE_ASSIGN_OR_RETURN(Json parsed,
                        Json::Parse(line, limits.max_json_depth));
  if (!parsed.IsObject()) {
    return InvalidArgumentError("request must be a JSON object");
  }
  Request request;
  const Json* id = parsed.Find("id");
  if (id != nullptr && id->IsNumber()) request.id = id->AsInt(-1);
  const Json* cmd = parsed.Find("cmd");
  if (cmd == nullptr || !cmd->IsString() || cmd->AsString().empty()) {
    return InvalidArgumentError("request is missing the \"cmd\" field");
  }
  request.cmd = cmd->AsString();
  request.params = std::move(parsed);
  return request;
}

std::string OkResponse(int64_t id, Json result) {
  Json response = Json::MakeObject();
  response.Set("id", id >= 0 ? Json::Int(id) : Json::Null());
  response.Set("ok", Json::Bool(true));
  response.Set("result", std::move(result));
  return response.Dump();
}

std::string ErrorResponse(int64_t id, const Status& status) {
  return ErrorResponse(id, status, Json::MakeObject());
}

std::string ErrorResponse(int64_t id, const Status& status, Json details) {
  Json error = std::move(details);
  if (!error.IsObject()) error = Json::MakeObject();
  error.Set("code", Json::Str(StatusCodeName(status.code())));
  error.Set("message", Json::Str(status.message()));
  Json response = Json::MakeObject();
  response.Set("id", id >= 0 ? Json::Int(id) : Json::Null());
  response.Set("ok", Json::Bool(false));
  response.Set("error", std::move(error));
  return response.Dump();
}

Json QuestionToJson(const std::string& session_id,
                    const PendingQuestion& question) {
  Json object = Json::MakeObject();
  object.Set("session", Json::Str(session_id));
  object.Set("qid", Json::Int(static_cast<int64_t>(question.id)));
  object.Set("kind", Json::Str(PendingQuestionKindName(question.kind)));
  object.Set("subject", Json::Str(question.subject));
  switch (question.kind) {
    case PendingQuestion::Kind::kNei: {
      object.Set("join", JoinToJson(question.join));
      Json counts = Json::MakeObject();
      counts.Set("left",
                 Json::Int(static_cast<int64_t>(question.counts.n_left)));
      counts.Set("right",
                 Json::Int(static_cast<int64_t>(question.counts.n_right)));
      counts.Set("join",
                 Json::Int(static_cast<int64_t>(question.counts.n_join)));
      object.Set("counts", std::move(counts));
      break;
    }
    case PendingQuestion::Kind::kEnforceFd:
      object.Set("fd", FdToJson(question.fd));
      if (question.g3_error >= 0.0) {
        object.Set("g3_error", Json::Number(question.g3_error));
      }
      break;
    case PendingQuestion::Kind::kValidateFd:
    case PendingQuestion::Kind::kNameFd:
      object.Set("fd", FdToJson(question.fd));
      break;
    case PendingQuestion::Kind::kHiddenObject:
    case PendingQuestion::Kind::kNameHidden:
      object.Set("candidate", QualifiedToJson(question.candidate));
      break;
  }
  return object;
}

const char* NeiActionName(NeiAction action) {
  switch (action) {
    case NeiAction::kConceptualize: return "conceptualize";
    case NeiAction::kForceLeftInRight: return "force_left";
    case NeiAction::kForceRightInLeft: return "force_right";
    case NeiAction::kIgnore: return "ignore";
  }
  return "ignore";
}

std::optional<NeiAction> ParseNeiAction(const std::string& name) {
  for (NeiAction action :
       {NeiAction::kConceptualize, NeiAction::kForceLeftInRight,
        NeiAction::kForceRightInLeft, NeiAction::kIgnore}) {
    if (name == NeiActionName(action)) return action;
  }
  return std::nullopt;
}

Result<OracleAnswer> ParseAnswer(PendingQuestion::Kind kind,
                                 const Json& params) {
  OracleAnswer answer;
  switch (kind) {
    case PendingQuestion::Kind::kNei: {
      std::string action = params.GetString("action");
      std::optional<NeiAction> parsed = ParseNeiAction(action);
      if (!parsed) {
        return InvalidArgumentError(
            "nei answer needs \"action\": conceptualize, force_left, "
            "force_right or ignore (got '" + action + "')");
      }
      answer.nei.action = *parsed;
      if (*parsed == NeiAction::kConceptualize) {
        answer.nei.relation_name = params.GetString("name");
      }
      return answer;
    }
    case PendingQuestion::Kind::kEnforceFd:
    case PendingQuestion::Kind::kValidateFd:
    case PendingQuestion::Kind::kHiddenObject: {
      const Json* value = params.Find("value");
      if (value == nullptr || !value->IsBool()) {
        return InvalidArgumentError(
            "yes/no answer needs a boolean \"value\" field");
      }
      answer.yes = value->AsBool();
      return answer;
    }
    case PendingQuestion::Kind::kNameFd:
    case PendingQuestion::Kind::kNameHidden: {
      const Json* name = params.Find("name");
      if (name == nullptr || !name->IsString()) {
        return InvalidArgumentError(
            "naming answer needs a string \"name\" field (may be empty to "
            "derive automatically)");
      }
      answer.name = name->AsString();
      return answer;
    }
  }
  return InternalError("unhandled question kind");
}

Result<EquiJoin> ParseJoin(const Json& value) {
  if (!value.IsObject()) {
    return InvalidArgumentError("join must be a JSON object");
  }
  EquiJoin join;
  join.left_relation = value.GetString("left");
  join.right_relation = value.GetString("right");
  DBRE_ASSIGN_OR_RETURN(join.left_attributes,
                        ParseStringArray(value.Find("left_attrs"),
                                         "join.left_attrs"));
  DBRE_ASSIGN_OR_RETURN(join.right_attributes,
                        ParseStringArray(value.Find("right_attrs"),
                                         "join.right_attrs"));
  DBRE_RETURN_IF_ERROR(join.Validate());
  return join;
}

Json JoinToJson(const EquiJoin& join) {
  Json object = Json::MakeObject();
  object.Set("left", Json::Str(join.left_relation));
  object.Set("left_attrs", StringArray(join.left_attributes));
  object.Set("right", Json::Str(join.right_relation));
  object.Set("right_attrs", StringArray(join.right_attributes));
  return object;
}

Json AnswerRecord(PendingQuestion::Kind kind, const std::string& subject,
                  const OracleAnswer& answer) {
  Json record = Json::MakeObject();
  record.Set("kind", Json::Str(PendingQuestionKindName(kind)));
  record.Set("subject", Json::Str(subject));
  switch (kind) {
    case PendingQuestion::Kind::kNei:
      record.Set("action", Json::Str(NeiActionName(answer.nei.action)));
      if (!answer.nei.relation_name.empty()) {
        record.Set("name", Json::Str(answer.nei.relation_name));
      }
      break;
    case PendingQuestion::Kind::kEnforceFd:
    case PendingQuestion::Kind::kValidateFd:
    case PendingQuestion::Kind::kHiddenObject:
      record.Set("value", Json::Bool(answer.yes));
      break;
    case PendingQuestion::Kind::kNameFd:
    case PendingQuestion::Kind::kNameHidden:
      record.Set("name", Json::Str(answer.name));
      break;
  }
  return record;
}

void PrimeReplayAnswer(ReplayOracle* oracle, const Json& record) {
  std::string kind = record.GetString("kind");
  std::string subject = record.GetString("subject");
  if (kind == "nei") {
    NeiDecision decision;
    decision.action = ParseNeiAction(record.GetString("action"))
                          .value_or(NeiAction::kIgnore);
    decision.relation_name = record.GetString("name");
    oracle->RecordNei(subject, std::move(decision));
  } else if (kind == "enforce_fd") {
    oracle->RecordEnforceFd(subject, record.GetBool("value"));
  } else if (kind == "validate_fd") {
    oracle->RecordValidateFd(subject, record.GetBool("value"));
  } else if (kind == "hidden_object") {
    oracle->RecordHiddenObject(subject, record.GetBool("value"));
  } else if (kind == "name_fd") {
    oracle->RecordFdRelationName(subject, record.GetString("name"));
  } else if (kind == "name_hidden") {
    oracle->RecordHiddenRelationName(subject, record.GetString("name"));
  }
}

}  // namespace dbre::service
