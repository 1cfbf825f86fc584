#include "relational/schema.h"

#include <algorithm>

namespace dbre {

Status RelationSchema::AddAttribute(Attribute attribute) {
  if (attribute.name.empty()) {
    return InvalidArgumentError("attribute name must not be empty");
  }
  if (HasAttribute(attribute.name)) {
    return AlreadyExistsError("attribute already exists: " + name_ + "." +
                              attribute.name);
  }
  attributes_.push_back(std::move(attribute));
  RefreshNotNull();
  return Status::Ok();
}

Status RelationSchema::AddAttribute(std::string name, DataType type,
                                    bool not_null) {
  return AddAttribute(Attribute{std::move(name), type, not_null});
}

Status RelationSchema::RemoveAttribute(std::string_view name) {
  auto it = std::find_if(
      attributes_.begin(), attributes_.end(),
      [&](const Attribute& attribute) { return attribute.name == name; });
  if (it == attributes_.end()) {
    return NotFoundError("no attribute " + name_ + "." + std::string(name));
  }
  attributes_.erase(it);
  for (AttributeSet& unique : unique_constraints_) unique.Remove(name);
  unique_constraints_.erase(
      std::remove_if(unique_constraints_.begin(), unique_constraints_.end(),
                     [](const AttributeSet& set) { return set.empty(); }),
      unique_constraints_.end());
  RefreshNotNull();
  return Status::Ok();
}

bool RelationSchema::HasAttribute(std::string_view name) const {
  return std::any_of(
      attributes_.begin(), attributes_.end(),
      [&](const Attribute& attribute) { return attribute.name == name; });
}

Result<DataType> RelationSchema::AttributeType(std::string_view name) const {
  for (const Attribute& attribute : attributes_) {
    if (attribute.name == name) return attribute.type;
  }
  return NotFoundError("no attribute " + name_ + "." + std::string(name));
}

Result<size_t> RelationSchema::AttributeIndex(std::string_view name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return NotFoundError("no attribute " + name_ + "." + std::string(name));
}

AttributeSet RelationSchema::AttributeNames() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const Attribute& attribute : attributes_) names.push_back(attribute.name);
  return AttributeSet(std::move(names));
}

Status RelationSchema::DeclareUnique(AttributeSet attributes) {
  if (attributes.empty()) {
    return InvalidArgumentError("unique declaration must not be empty");
  }
  for (const std::string& name : attributes) {
    if (!HasAttribute(name)) {
      return NotFoundError("unique declaration on missing attribute " +
                           name_ + "." + name);
    }
  }
  if (IsKey(attributes)) {
    return AlreadyExistsError("duplicate unique declaration on " + name_ +
                              "." + attributes.ToString());
  }
  unique_constraints_.push_back(std::move(attributes));
  RefreshNotNull();
  return Status::Ok();
}

Status RelationSchema::DeclareNotNull(std::string_view name) {
  for (Attribute& attribute : attributes_) {
    if (attribute.name == name) {
      attribute.not_null = true;
      RefreshNotNull();
      return Status::Ok();
    }
  }
  return NotFoundError("no attribute " + name_ + "." + std::string(name));
}

std::optional<AttributeSet> RelationSchema::PrimaryKey() const {
  if (unique_constraints_.empty()) return std::nullopt;
  return unique_constraints_.front();
}

bool RelationSchema::IsKey(const AttributeSet& attributes) const {
  return std::any_of(
      unique_constraints_.begin(), unique_constraints_.end(),
      [&](const AttributeSet& unique) { return unique == attributes; });
}

AttributeSet RelationSchema::NotNullAttributes() const {
  AttributeSet out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (not_null_[i]) out.Insert(attributes_[i].name);
  }
  return out;
}

void RelationSchema::RefreshNotNull() {
  not_null_.assign(attributes_.size(), false);
  for (size_t i = 0; i < attributes_.size(); ++i) {
    not_null_[i] = attributes_[i].not_null;
  }
  for (const AttributeSet& unique : unique_constraints_) {
    for (const std::string& name : unique) {
      for (size_t i = 0; i < attributes_.size(); ++i) {
        if (attributes_[i].name == name) not_null_[i] = true;
      }
    }
  }
}

std::string RelationSchema::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i].name;
    if (attributes_[i].not_null) out += "*";
  }
  out += ")";
  for (const AttributeSet& unique : unique_constraints_) {
    out += " unique" + unique.ToString();
  }
  return out;
}

}  // namespace dbre
