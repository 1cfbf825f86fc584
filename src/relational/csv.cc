#include "relational/csv.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/string_util.h"

namespace dbre {
namespace {

// One parsed CSV field. Unquoted fields — nearly all of a dump — and
// quoted ones without "" escapes or bytes after the closing quote are
// viewed in place; the rest are assembled with their escapes resolved.
struct CsvField {
  std::string_view raw;
  std::string unescaped;
  bool quoted = false;   // a quoted empty string is "" rather than NULL
  bool escaped = false;  // text() lives in `unescaped`

  std::string_view text() const {
    return escaped ? std::string_view(unescaped) : raw;
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
    field.escaped = false;
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
        field->escaped = true;
        field->unescaped.append(text_.data() + k, quote + 1 - k);
        k = quote + 2;
        continue;
      }
      const size_t end = FindDelimiter(quote + 1);
      if (!field->escaped && end == quote + 1) {
        field->raw = text_.substr(*i + 1, quote - *i - 1);
      } else {
        field->escaped = true;
        field->unescaped.append(text_.data() + k, quote - k);
        field->unescaped.append(text_.data() + quote + 1, end - quote - 1);
      }
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

// Records validated before their cells are encoded, column by column.
constexpr size_t kChunkRows = 16384;

// One column's cells of a chunk, parsed to the declared type. Strings are
// views into the input or into the chunk's arena.
struct ChunkColumn {
  std::vector<uint8_t> null;
  std::vector<uint64_t> bits;  // int64, double and bool payloads
  std::vector<std::string_view> texts;

  void Truncate(size_t rows) {
    null.resize(rows);
    if (bits.size() > rows) bits.resize(rows);
    if (texts.size() > rows) texts.resize(rows);
  }
};

// Whether a (trimmed) double field is plain decimal text, which
// std::from_chars reads exactly as strtod does (both round correctly);
// anything else — signs, hex, inf/nan spellings — goes through
// Value::Parse.
bool PlainDecimal(std::string_view text) {
  if (!text.empty() && text.front() == '-') text.remove_prefix(1);
  return !text.empty() &&
         (std::isdigit(static_cast<unsigned char>(text.front())) ||
          text.front() == '.');
}

// Parses `field` into `column` by Value::Parse's rules for `type`; a field
// Value::Parse rejects fails with its error. Quoted fields are never NULL
// (a quoted "NULL" in an int64 column is an error, not a silent NULL), and
// quoted strings keep their text verbatim.
Status ParseCell(const CsvField& field, DataType type, ChunkColumn* column,
                 std::deque<std::string>* arena) {
  const std::string_view trimmed = TrimWhitespace(field.text());
  if (!field.quoted &&
      (trimmed.empty() || EqualsIgnoreCase(trimmed, "null"))) {
    column->null.push_back(1);
    if (type == DataType::kString) {
      column->texts.emplace_back();
    } else {
      column->bits.push_back(0);
    }
    return Status::Ok();
  }
  const auto fallback = [&]() -> Result<Value> {
    return Value::Parse(field.text(), type,
                        field.quoted ? Value::NullHandling::kNeverNull
                                     : Value::NullHandling::kLenient);
  };
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  switch (type) {
    case DataType::kString:
      if (!field.quoted) {
        column->texts.push_back(trimmed);
      } else if (field.escaped) {
        column->texts.push_back(arena->emplace_back(field.unescaped));
      } else {
        column->texts.push_back(field.raw);
      }
      break;
    case DataType::kInt64: {
      int64_t parsed = 0;
      auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc() || ptr != end) return fallback().status();
      column->bits.push_back(static_cast<uint64_t>(parsed));
      break;
    }
    case DataType::kDouble: {
      double parsed = 0;
      bool done = false;
      if (PlainDecimal(trimmed)) {
        auto [ptr, ec] = std::from_chars(begin, end, parsed);
        done = ec == std::errc() && ptr == end;
      }
      if (!done) {
        DBRE_ASSIGN_OR_RETURN(Value value, fallback());
        parsed = value.as_real();
      }
      column->bits.push_back(std::bit_cast<uint64_t>(parsed));
      break;
    }
    case DataType::kBool:
      if (EqualsIgnoreCase(trimmed, "true") || trimmed == "1") {
        column->bits.push_back(1);
      } else if (EqualsIgnoreCase(trimmed, "false") || trimmed == "0") {
        column->bits.push_back(0);
      } else {
        return fallback().status();
      }
      break;
  }
  column->null.push_back(0);
  return Status::Ok();
}

// Encodes the first `rows` parsed cells of every column onto `extension`,
// one column at a time, continuing its dictionaries.
void EncodeChunk(const RelationSchema& schema,
                 const std::vector<ChunkColumn>& chunk, size_t rows,
                 EncodedTable* extension) {
  if (rows == 0) return;
  for (size_t c = 0; c < chunk.size(); ++c) {
    const ChunkColumn& column = chunk[c];
    EncodedTable::ColumnWriter writer = extension->Writer(c);
    const DataType type = schema.attributes()[c].type;
    for (size_t r = 0; r < rows; ++r) {
      if (column.null[r]) {
        writer.AppendNull();
        continue;
      }
      switch (type) {
        case DataType::kInt64:
          writer.AppendInt(static_cast<int64_t>(column.bits[r]));
          break;
        case DataType::kDouble:
          writer.AppendReal(std::bit_cast<double>(column.bits[r]));
          break;
        case DataType::kBool:
          writer.AppendBool(column.bits[r] != 0);
          break;
        case DataType::kString:
          writer.AppendText(column.texts[r]);
          break;
      }
    }
  }
  extension->CommitAppendedRows(rows);
}

// The CSV text of a double: Value::ToString's six significant digits when
// they read back bit-identically (so such values export as they always
// have), the shortest round-tripping form otherwise. NaN prints as
// ToString does; any NaN reads back as NaN.
std::string DoubleText(double d) {
  std::string text = Value::Real(d).ToString();
  if (std::isnan(d) || std::bit_cast<uint64_t>(std::strtod(
                           text.c_str(), nullptr)) ==
                           std::bit_cast<uint64_t>(d)) {
    return text;
  }
  char buffer[32];
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, d);
  return std::string(buffer, ptr);
}

// The CSV text of a non-NULL cell, as LoadCsvText reads it back.
std::string CellText(const Value& value) {
  if (value.is_real()) return DoubleText(value.as_real());
  if (!value.is_text()) return value.ToString();
  // Quote anything the reader would not read back verbatim: delimiters,
  // empty strings, NULL lookalikes ("null", whitespace-only) and
  // surrounding whitespace.
  const std::string& text = value.as_text();
  if (NeedsQuoting(text) || !UnquotedTextRoundTrips(text)) {
    return QuoteFieldAlways(text);
  }
  return text;
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

  const std::vector<bool>& not_null = schema.not_null_mask();
  const bool paged = table->is_paged();
  // The extension grows on a copy and is installed once: each column is
  // detached from the table's on its first write.
  EncodedTable extension = table->extension();
  if (!paged) {
    // Every remaining physical line is at most one record (records can
    // span lines but never share one), so the newline count bounds the
    // appended rows.
    extension.ReserveRows(
        extension.num_rows() + 1 +
        static_cast<size_t>(std::count(
            csv_text.begin() + static_cast<ptrdiff_t>(parser.pos()),
            csv_text.end(), '\n')));
  }
  std::vector<ChunkColumn> chunk(schema.arity());
  std::deque<std::string> arena;
  size_t chunk_rows = 0;
  size_t loaded = 0;
  // Every record is validated in row order before its chunk is encoded, so
  // the first error in row-major order wins and the rows before it are
  // kept, as a row-at-a-time load would leave them.
  Status failure = Status::Ok();
  while (!parser.AtEnd()) {
    const size_t record_line = line;
    failure = parser.Next();
    if (!failure.ok()) break;
    line += parser.lines();
    if (parser.size() == 0) continue;  // blank line
    if (parser.size() != width) {
      failure = ParseError("CSV record at line " +
                           std::to_string(record_line) + " has " +
                           std::to_string(parser.size()) +
                           " fields, expected " + std::to_string(width));
      break;
    }
    for (size_t i = 0; i < width && failure.ok(); ++i) {
      const size_t attribute = column_to_attribute[i];
      failure = ParseCell(parser.field(i), schema.attributes()[attribute].type,
                          &chunk[attribute], &arena);
    }
    if (failure.ok() && paged) {
      failure = FailedPreconditionError("relation " + schema.name() +
                                        " is paged and read-only");
    }
    for (size_t a = 0; a < schema.arity() && failure.ok(); ++a) {
      if (not_null[a] && chunk[a].null[chunk_rows]) {
        failure = InvalidArgumentError("NULL in not-null attribute " +
                                       schema.name() + "." +
                                       schema.attributes()[a].name);
      }
    }
    if (!failure.ok()) break;
    if (++chunk_rows == kChunkRows) {
      EncodeChunk(schema, chunk, chunk_rows, &extension);
      loaded += chunk_rows;
      chunk_rows = 0;
      for (ChunkColumn& column : chunk) column.Truncate(0);
      arena.clear();
    }
  }
  for (ChunkColumn& column : chunk) column.Truncate(chunk_rows);
  EncodeChunk(schema, chunk, chunk_rows, &extension);
  loaded += chunk_rows;
  if (loaded > 0) {
    extension.Compact();
    table->AppendExtension(std::move(extension));
  }
  if (!failure.ok()) return failure;
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
      out += row[i].is_null() ? "NULL" : CellText(row[i]);
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
