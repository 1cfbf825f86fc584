// The DBSNAP01 on-disk vocabulary: the format's constants, the writer's
// encoders and the one codec for dictionary entries. The snapshot scan
// (store/snapshot.cc) and the page store's pool-backed reads
// (src/pagestore/) both decode through it, so the format changes here and
// nowhere else:
//
//   [magic "DBSNAP01"]
//   [u64 schema_size][u32 schema CRC32C][schema blob]
//   per column, in schema order:
//     [u64 payload_size][u32 payload CRC32C][payload]
//       payload = u32 dict_size, u8 has_null,
//                 dict_size tagged values (AppendValue / ReadEntry),
//                 rows x 4-byte little-endian codes
//   [u64 fingerprint][u32 CRC32C of the 8 fingerprint bytes]
//   [magic "DBSNAPFT"]
//
// Everything here is header-only; file handling, verification and
// materialization stay in snapshot.cc.
#ifndef DBRE_STORE_SNAPSHOT_FORMAT_H_
#define DBRE_STORE_SNAPSHOT_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace dbre::store {

inline constexpr char kSnapshotMagic[8] = {'D', 'B', 'S', 'N',
                                           'A', 'P', '0', '1'};
inline constexpr char kSnapshotFooterMagic[8] = {'D', 'B', 'S', 'N',
                                                 'A', 'P', 'F', 'T'};
inline constexpr size_t kSnapshotFooterSize = 8 + 4 + 8;  // fp, crc, magic

// Dictionary value tags; NULL never appears in a dictionary, so tag 0 is
// reserved (it matches the fingerprint encoding's NULL tag for symmetry).
inline constexpr uint8_t kTagInt = 1;
inline constexpr uint8_t kTagReal = 2;
inline constexpr uint8_t kTagBool = 3;
inline constexpr uint8_t kTagString = 4;

// int64/double dictionary entries are fixed-width: tag + 8 payload bytes.
inline constexpr size_t kFixedEntryBytes = 9;

// Unaligned little-endian loads of the format's integers.
inline uint32_t LoadU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t LoadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// ---- little-endian buffer building -------------------------------------

struct Writer {
  std::string out;

  void U8(uint8_t v) { out.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out.append(s);
  }
};

// Bounds-checked little-endian reads over a byte range. Every primitive
// fails (sticky `ok = false`) instead of reading past the end, so a
// truncated or lying length field surfaces as a parse error.
struct Reader {
  const unsigned char* p;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  bool Need(size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }

  // The byte-source interface of ReadEntry; a failure only clears `ok`.
  uint64_t remaining() const { return size - pos; }
  bool Read(void* out, size_t n) {
    if (!Need(n)) return false;
    std::memcpy(out, p + pos, n);
    pos += n;
    return true;
  }
  bool Skip(uint64_t n) {
    if (!Need(n)) return false;
    pos += n;
    return true;
  }
  bool Fail(const Status&) {
    ok = false;
    return false;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return p[pos++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[pos++]) << (i * 8);
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[pos++]) << (i * 8);
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return "";
    std::string s(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
    return s;
  }
};

inline void AppendValue(Writer* w, const Value& value) {
  if (value.is_int()) {
    w->U8(kTagInt);
    w->U64(static_cast<uint64_t>(value.as_int()));
  } else if (value.is_real()) {
    w->U8(kTagReal);
    w->U64(std::bit_cast<uint64_t>(value.as_real()));
  } else if (value.is_bool()) {
    w->U8(kTagBool);
    w->U8(value.as_bool() ? 1 : 0);
  } else {
    w->U8(kTagString);
    w->Str(value.as_text());
  }
}

// ---- dictionary entries -------------------------------------------------
//
// An entry is a tag byte and its payload: kTagInt and kTagReal carry 8
// bytes, kTagBool one, kTagString a u32 length and that many bytes. Every
// entry of a column carries its column's tag (the scan refuses any other),
// so the entries of a column declared int64 or double are fixed-width:
// entry i sits kFixedEntryBytes * i bytes in.

// The tag every entry of a column declared `type` carries.
inline uint8_t EntryTag(DataType type) {
  switch (type) {
    case DataType::kInt64: return kTagInt;
    case DataType::kDouble: return kTagReal;
    case DataType::kBool: return kTagBool;
    case DataType::kString: return kTagString;
  }
  return 0;
}

// EntryTag for a column whose entries are fixed-width; 0 for bool and
// string columns.
inline uint8_t FixedTag(DataType type) {
  const uint8_t tag = EntryTag(type);
  return tag == kTagInt || tag == kTagReal ? tag : 0;
}

// Reads the rest of an entry whose tag byte `tag` was just read from `in`
// into `*out`, or steps over it when `out` is null, and returns whether it
// could. `in` is a byte source with `bool Read(void*, size_t)`, `bool
// Skip(uint64_t)` and `uint64_t remaining()`, which fail when too few bytes
// remain and keep their error, and `bool Fail(Status)`, which keeps the
// codec's own error, an unknown tag, and returns false. Entries are the
// scan's hot loop, so nothing here builds a Status on the way through.
template <typename Source>
bool ReadEntryAfterTag(Source& in, uint8_t tag, Value* out) {
  switch (tag) {
    case kTagInt:
    case kTagReal: {
      if (out == nullptr) return in.Skip(8);
      unsigned char bits[8];
      if (!in.Read(bits, sizeof(bits))) return false;
      *out = tag == kTagInt ? Value::Int(static_cast<int64_t>(LoadU64(bits)))
                            : Value::Real(std::bit_cast<double>(LoadU64(bits)));
      return true;
    }
    case kTagBool: {
      if (out == nullptr) return in.Skip(1);
      uint8_t flag = 0;
      if (!in.Read(&flag, 1)) return false;
      *out = Value::Boolean(flag != 0);
      return true;
    }
    case kTagString: {
      unsigned char length[4];
      if (!in.Read(length, sizeof(length))) return false;
      const uint32_t n = LoadU32(length);
      // A length past the source's end fails in Skip before anything is
      // allocated for it.
      if (out == nullptr || n > in.remaining()) return in.Skip(n);
      std::string text(n, '\0');
      if (!in.Read(text.data(), n)) return false;
      *out = Value::Text(std::move(text));
      return true;
    }
    default:
      return in.Fail(
          ParseError("snapshot: unknown value tag " + std::to_string(tag)));
  }
}

// Reads a whole entry, tag byte first, as ReadEntryAfterTag does the rest.
template <typename Source>
bool ReadEntry(Source& in, Value* out) {
  uint8_t tag = 0;
  return in.Read(&tag, 1) && ReadEntryAfterTag(in, tag, out);
}

// ---- schema blob --------------------------------------------------------

inline std::string BuildSchemaBlob(const RelationSchema& schema,
                                   uint64_t rows) {
  Writer w;
  w.Str(schema.name());
  w.U32(static_cast<uint32_t>(schema.arity()));
  for (const Attribute& attribute : schema.attributes()) {
    w.Str(attribute.name);
    w.U8(static_cast<uint8_t>(attribute.type));
    w.U8(attribute.not_null ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(schema.unique_constraints().size()));
  for (const AttributeSet& unique : schema.unique_constraints()) {
    w.U32(static_cast<uint32_t>(unique.size()));
    for (const std::string& name : unique) w.Str(name);
  }
  w.U64(rows);
  w.U32(static_cast<uint32_t>(schema.arity()));
  return std::move(w.out);
}

struct ParsedSchema {
  RelationSchema schema;
  uint64_t rows = 0;
  uint32_t columns = 0;
};

inline Result<ParsedSchema> ParseSchemaBlob(const unsigned char* data,
                                            size_t size) {
  Reader r{data, size};
  ParsedSchema out;
  out.schema.set_name(r.Str());
  uint32_t arity = r.U32();
  for (uint32_t i = 0; i < arity && r.ok; ++i) {
    std::string name = r.Str();
    uint8_t type = r.U8();
    bool not_null = r.U8() != 0;
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return ParseError("snapshot: unknown attribute type tag " +
                        std::to_string(type));
    }
    DBRE_RETURN_IF_ERROR(out.schema.AddAttribute(
        std::move(name), static_cast<DataType>(type), not_null));
  }
  uint32_t uniques = r.U32();
  for (uint32_t i = 0; i < uniques && r.ok; ++i) {
    uint32_t n = r.U32();
    std::vector<std::string> names;
    names.reserve(n);
    for (uint32_t j = 0; j < n && r.ok; ++j) names.push_back(r.Str());
    if (!r.ok) break;
    DBRE_RETURN_IF_ERROR(
        out.schema.DeclareUnique(AttributeSet(std::move(names))));
  }
  out.rows = r.U64();
  out.columns = r.U32();
  if (!r.ok || r.pos != size) {
    return ParseError("snapshot: malformed schema blob");
  }
  if (out.columns != out.schema.arity()) {
    return ParseError("snapshot: schema column count mismatch");
  }
  return out;
}

}  // namespace dbre::store

#endif  // DBRE_STORE_SNAPSHOT_FORMAT_H_
