// Relation schemas as recorded in a legacy data dictionary.
//
// A `RelationSchema` carries the attribute list with declared types plus the
// only constraints the paper assumes available a priori (§4): `unique`
// declarations (which induce the key set K) and `not null` declarations
// (which induce N). Functional and inclusion dependencies are deliberately
// absent — discovering them is the point of the method.
#ifndef DBRE_RELATIONAL_SCHEMA_H_
#define DBRE_RELATIONAL_SCHEMA_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/attribute_set.h"
#include "relational/value.h"

namespace dbre {

// One column of a relation.
struct Attribute {
  std::string name;
  DataType type = DataType::kString;
  bool not_null = false;  // declared `not null` in the dictionary
};

class RelationSchema {
 public:
  RelationSchema() = default;
  explicit RelationSchema(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<Attribute>& attributes() const { return attributes_; }
  size_t arity() const { return attributes_.size(); }

  // Adds a column; fails on duplicate names.
  Status AddAttribute(Attribute attribute);
  Status AddAttribute(std::string name, DataType type, bool not_null = false);

  // Drops a column and removes it from every unique declaration it appears
  // in (declarations left empty are dropped). Used by Restruct when FD right
  // hand sides migrate to a new relation.
  Status RemoveAttribute(std::string_view name);

  bool HasAttribute(std::string_view name) const;
  Result<DataType> AttributeType(std::string_view name) const;

  // Index of `name` in attributes(), or error.
  Result<size_t> AttributeIndex(std::string_view name) const;

  // All attribute names as a set (the X_i of R_i(X_i)).
  AttributeSet AttributeNames() const;

  // Declares `attributes` unique; every involved attribute implicitly
  // becomes not-null (standard SQL, §4). Fails if any attribute is missing.
  Status DeclareUnique(AttributeSet attributes);

  // Marks a single attribute `not null`.
  Status DeclareNotNull(std::string_view name);

  // All unique declarations, in declaration order.
  const std::vector<AttributeSet>& unique_constraints() const {
    return unique_constraints_;
  }

  // The key of the relation per the paper's algorithms ("let K_i be the key
  // of R_i"): the first unique declaration, if any.
  std::optional<AttributeSet> PrimaryKey() const;

  // True if `attributes` exactly matches some unique declaration.
  bool IsKey(const AttributeSet& attributes) const;

  // Attributes that may not be null: declared not-null plus every attribute
  // of every unique declaration.
  AttributeSet NotNullAttributes() const;

  // The same set as a flag per attribute, in attributes() order — what row
  // validation consults. Kept current by the mutators above.
  const std::vector<bool>& not_null_mask() const { return not_null_; }

  // Renders e.g. "Person(id*, name, street) unique{id}" for diagnostics.
  std::string ToString() const;

 private:
  // Rebuilds not_null_ from the declarations after any of them changes.
  void RefreshNotNull();

  std::string name_;
  std::vector<Attribute> attributes_;
  std::vector<AttributeSet> unique_constraints_;
  std::vector<bool> not_null_;  // parallel to attributes_
};

}  // namespace dbre

#endif  // DBRE_RELATIONAL_SCHEMA_H_
