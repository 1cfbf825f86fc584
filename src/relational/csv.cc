#include "relational/csv.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/string_util.h"

namespace dbre {
namespace {

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

bool NeedsQuoting(std::string_view text) {
  return text.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string QuoteFieldAlways(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string QuoteField(std::string_view text) {
  if (!NeedsQuoting(text)) return std::string(text);
  return QuoteFieldAlways(text);
}

// True if `text` written unquoted reads back verbatim. The reader trims
// unquoted fields and maps empty/"NULL" text to SQL NULL, so empty
// strings, NULL lookalikes and fields with surrounding whitespace must be
// quoted to survive the round trip.
bool UnquotedTextRoundTrips(std::string_view text) {
  if (text.empty()) return false;
  if (TrimWhitespace(text).size() != text.size()) return false;
  if (EqualsIgnoreCase(text, "null")) return false;
  return true;
}

}  // namespace

Result<size_t> LoadCsvText(std::string_view csv_text, Table* table) {
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

  // One reallocation-free append run: every remaining physical line is at
  // most one record (records can span lines but never share one), so the
  // newline count bounds the number of inserts.
  table->Reserve(static_cast<size_t>(
      std::count(csv_text.begin() + static_cast<ptrdiff_t>(parser.pos()),
                 csv_text.end(), '\n')) +
                 1);

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
    DBRE_RETURN_IF_ERROR(table->Insert(std::move(row)));
    ++loaded;
  }
  return loaded;
}

Result<size_t> LoadCsvFile(const std::string& path, Table* table) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open " + path);
  // A file that can be sized arrives in one read(); the rest — all of a
  // pipe, which cannot be sized, or bytes appended meanwhile — is streamed.
  std::filebuf& file = *in.rdbuf();
  std::string buffer;
  const std::streamoff size = file.pubseekoff(0, std::ios::end, std::ios::in);
  if (size > 0) {
    if (file.pubseekoff(0, std::ios::beg, std::ios::in) != 0) {
      return IoError("cannot read " + path);
    }
    buffer.resize(static_cast<size_t>(size));
    buffer.resize(static_cast<size_t>(file.sgetn(buffer.data(), size)));
  }
  char chunk[1 << 16];
  for (std::streamsize got; (got = file.sgetn(chunk, sizeof chunk)) > 0;) {
    buffer.append(chunk, static_cast<size_t>(got));
  }
  return LoadCsvText(buffer, table);
}

std::string WriteCsvText(const Table& table) {
  std::string out;
  const RelationSchema& schema = table.schema();
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (i > 0) out += ',';
    out += QuoteField(schema.attributes()[i].name);
  }
  out += '\n';
  // ForEachRow streams paged extensions page-by-page; it only fails when
  // the extension cannot encode, which cannot happen for a table that was
  // loadable in the first place.
  (void)table.ForEachRow([&out](const ValueVector& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      if (row[i].is_null()) {
        out += "NULL";
      } else if (row[i].is_text()) {
        // Quote anything the reader would not read back verbatim:
        // delimiters, empty strings, NULL lookalikes ("null",
        // whitespace-only) and surrounding whitespace.
        const std::string& text = row[i].as_text();
        if (NeedsQuoting(text) || !UnquotedTextRoundTrips(text)) {
          out += QuoteFieldAlways(text);
        } else {
          out += text;
        }
      } else {
        out += row[i].ToString();
      }
    }
    out += '\n';
  });
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return IoError("cannot open " + path + " for writing");
  out << WriteCsvText(table);
  if (!out) return IoError("write failed for " + path);
  return Status::Ok();
}

Result<size_t> ExportDatabaseCsv(const Database& database,
                                 const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return IoError("cannot create directory " + directory + ": " +
                   ec.message());
  }
  size_t written = 0;
  for (const std::string& relation : database.RelationNames()) {
    DBRE_ASSIGN_OR_RETURN(const Table* table, database.GetTable(relation));
    DBRE_RETURN_IF_ERROR(
        WriteCsvFile(*table, directory + "/" + relation + ".csv"));
    ++written;
  }
  return written;
}

Result<size_t> ImportDatabaseCsv(const std::string& directory,
                                 Database* database) {
  if (database == nullptr) return InvalidArgumentError("database is null");
  size_t loaded = 0;
  for (const std::string& relation : database->RelationNames()) {
    std::string path = directory + "/" + relation + ".csv";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) continue;
    DBRE_ASSIGN_OR_RETURN(Table * table,
                          database->GetMutableTable(relation));
    DBRE_ASSIGN_OR_RETURN(size_t rows, LoadCsvFile(path, table));
    (void)rows;
    ++loaded;
  }
  return loaded;
}

}  // namespace dbre
