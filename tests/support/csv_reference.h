// The row-at-a-time CSV loader, kept as the reference the columnar loader
// in src/relational/csv.cc is crosschecked against: every record is parsed
// into a ValueVector of Values (Value::Parse per cell) and appended with
// Table::Insert, so its errors are Insert's own. `raw_rows` receives each
// accepted row as parsed, before the table's encoding folds ±0.0.
#ifndef DBRE_TESTS_SUPPORT_CSV_REFERENCE_H_
#define DBRE_TESTS_SUPPORT_CSV_REFERENCE_H_

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "relational/table.h"

namespace dbre::reference {

// One parsed CSV field. Unquoted fields — nearly all of a dump — are
// viewed in place; quoted ones are assembled with their "" escapes
// resolved.
struct CsvField {
  std::string_view raw;
  std::string unescaped;
  bool quoted = false;  // a quoted empty string is "" rather than NULL

  std::string_view text() const {
    return quoted ? std::string_view(unescaped) : raw;
  }
};

// Parses CSV records one at a time into a field buffer reused across
// records, so steady-state parsing allocates nothing. Handles quoted fields
// with embedded commas and line breaks.
class RecordParser {
 public:
  explicit RecordParser(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  size_t pos() const { return pos_; }

  // Parses the record starting at pos() and advances past its terminator.
  // Afterwards size() fields are valid (none for a blank line) and lines()
  // counts the physical line breaks consumed — including breaks inside
  // quoted fields — so callers can report real file line numbers even
  // when records span lines.
  Status Next() {
    size_ = 0;
    lines_ = 0;
    const size_t n = text_.size();
    size_t i = pos_;
    if (i >= n || text_[i] == '\n' || text_[i] == '\r') {
      pos_ = i < n ? SkipTerminator(i) : n;  // blank line (or end)
      return Status::Ok();
    }
    while (true) {
      CsvField& field = NewField();
      if (text_[i] == '"') {
        DBRE_RETURN_IF_ERROR(ParseQuoted(&i, &field));
      } else {
        const size_t end = FindDelimiter(i);
        field.raw = text_.substr(i, end - i);
        i = end;
      }
      if (i >= n) {
        pos_ = n;
        return Status::Ok();
      }
      if (text_[i] != ',') {
        pos_ = SkipTerminator(i);
        return Status::Ok();
      }
      ++i;
      if (i >= n) {  // trailing comma: one more, empty, field
        NewField();
        pos_ = n;
        return Status::Ok();
      }
    }
  }

  size_t size() const { return size_; }
  size_t lines() const { return lines_; }
  const CsvField& field(size_t i) const { return fields_[i]; }

 private:
  CsvField& NewField() {
    if (size_ == fields_.size()) fields_.emplace_back();
    CsvField& field = fields_[size_++];
    field.raw = {};
    field.unescaped.clear();
    field.quoted = false;
    return field;
  }

  // First ',', '\n' or '\r' at or after `i`, or the end of the input.
  size_t FindDelimiter(size_t i) const {
    const size_t n = text_.size();
    while (i < n) {
      const char c = text_[i];
      if (c == ',' || c == '\n' || c == '\r') break;
      ++i;
    }
    return i;
  }

  // Consumes the \r\n or lone terminator at `i`; returns the next record's
  // start.
  size_t SkipTerminator(size_t i) {
    if (text_[i] == '\r' && i + 1 < text_.size() && text_[i + 1] == '\n') ++i;
    ++lines_;
    return i + 1;
  }

  // Parses a field opening with '"' at *i: "" escapes a quote, the closing
  // quote ends quoting, and any bytes after it up to the next delimiter are
  // literal text of the same field. Leaves *i on that delimiter.
  Status ParseQuoted(size_t* i, CsvField* field) {
    const size_t n = text_.size();
    field->quoted = true;
    for (size_t k = *i + 1;;) {
      const void* hit = std::memchr(text_.data() + k, '"', n - k);
      if (hit == nullptr) return ParseError("unterminated quoted CSV field");
      const size_t quote =
          static_cast<size_t>(static_cast<const char*>(hit) - text_.data());
      CountLineBreaks(k, quote);
      if (quote + 1 < n && text_[quote + 1] == '"') {
        field->unescaped.append(text_.data() + k, quote + 1 - k);
        k = quote + 2;
        continue;
      }
      field->unescaped.append(text_.data() + k, quote - k);
      const size_t end = FindDelimiter(quote + 1);
      field->unescaped.append(text_.data() + quote + 1, end - quote - 1);
      *i = end;
      return Status::Ok();
    }
  }

  // Counts line breaks in quoted bytes [from, to): each \n, and each \r not
  // followed by \n.
  void CountLineBreaks(size_t from, size_t to) {
    for (size_t k = from; k < to; ++k) {
      const bool crlf = k + 1 < text_.size() && text_[k + 1] == '\n';
      if (text_[k] == '\n' || (text_[k] == '\r' && !crlf)) ++lines_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<CsvField> fields_;
  size_t size_ = 0;
  size_t lines_ = 0;
};

inline Result<size_t> LoadCsvText(std::string_view csv_text, Table* table,
                                  std::vector<ValueVector>* raw_rows) {
  if (table == nullptr) return InvalidArgumentError("table is null");
  const RelationSchema& schema = table->schema();
  RecordParser parser(csv_text);
  DBRE_RETURN_IF_ERROR(parser.Next());
  size_t line = 1 + parser.lines();  // physical line the next record starts on
  if (parser.size() == 0) return ParseError("CSV input has no header");
  const size_t width = parser.size();
  if (width != schema.arity()) {
    return ParseError("CSV header has " + std::to_string(width) +
                      " columns, schema " + schema.name() + " has " +
                      std::to_string(schema.arity()));
  }
  std::vector<size_t> column_to_attribute(width);
  std::vector<bool> used(schema.arity(), false);
  for (size_t i = 0; i < width; ++i) {
    std::string name(TrimWhitespace(parser.field(i).text()));
    DBRE_ASSIGN_OR_RETURN(size_t index, schema.AttributeIndex(name));
    if (used[index]) {
      return ParseError("duplicate CSV header column: " + name);
    }
    used[index] = true;
    column_to_attribute[i] = index;
  }

  size_t loaded = 0;
  while (!parser.AtEnd()) {
    const size_t record_line = line;
    DBRE_RETURN_IF_ERROR(parser.Next());
    line += parser.lines();
    if (parser.size() == 0) continue;  // blank line
    if (parser.size() != width) {
      return ParseError("CSV record at line " + std::to_string(record_line) +
                        " has " + std::to_string(parser.size()) +
                        " fields, expected " + std::to_string(width));
    }
    ValueVector row(schema.arity());
    for (size_t i = 0; i < width; ++i) {
      const CsvField& field = parser.field(i);
      const size_t attribute_index = column_to_attribute[i];
      const DataType type = schema.attributes()[attribute_index].type;
      Value& value = row[attribute_index];
      if (field.quoted) {
        // Quoted fields are never NULL: string fields are taken verbatim
        // (a quoted empty string is "" rather than NULL), and typed fields
        // must parse — a quoted "NULL" in an int64 column is an error, not
        // a silent NULL.
        if (type == DataType::kString) {
          value = Value::Text(std::string(field.text()));
        } else {
          DBRE_ASSIGN_OR_RETURN(
              value, Value::Parse(field.text(), type,
                                  Value::NullHandling::kNeverNull));
        }
      } else {
        DBRE_ASSIGN_OR_RETURN(value, Value::Parse(field.text(), type));
      }
    }
    DBRE_RETURN_IF_ERROR(table->Insert(row));
    raw_rows->push_back(std::move(row));
    ++loaded;
  }
  return loaded;
}

}  // namespace dbre::reference

#endif  // DBRE_TESTS_SUPPORT_CSV_REFERENCE_H_
